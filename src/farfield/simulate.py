"""Meeting-audio simulation with ground truth.

Shoebox room impulse responses come from the image-source model: every
mirror image up to a reflection order contributes an attenuated,
fractionally delayed spike. Dry utterances are convolved with their
RIRs, placed at onsets, summed, and optionally mixed with noise at a
target SNR. The returned bundle keeps the per-source reverberant images
and the exact noise component, so enhancement tests can measure
separation quality against known ground truth, and the mixture equals
the sum of the returned parts bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_field, check_file_name, check_finite, check_int
from .metrics import DiarizationSet, DiarSegment
from .signal import WaveformBuffer, check_finite_samples

_SINC_HALF = 40  # 81-tap fractional-delay interpolator
_SEG_WIN_S = 0.025
_SEG_HOP_S = 0.010
_SEG_THRESHOLD = 10.0 ** (-40.0 / 20.0)  # -40 dBFS frame RMS
_SEG_MERGE_GAP_S = 0.3
# one RIR of a 6 x 5 x 3 m room at 16 kHz peaks at 9.4 MiB of numpy arrays
# (tracemalloc) at order 20 and at 18.1 MiB at order 30, most of it the
# reflection counts of image_sources' 8 (2 max_order + 2)^3 mirror combinations
_MAX_ORDER = 30
# image_source_rir forms the taps of this many images at a time, 1.3 MiB of
# float64 per (block, 81) array
_RIR_BLOCK = 2048
# image_source_rir returns ceil(largest delay) + _SINC_HALF + 2 samples, and
# an image of order at most n lies less than (n + 1) room diagonals from the
# mic, so RoomSpec bounds the rate to keep that many samples within this cap
# (8 MiB of float64; a 6 x 5 x 3 m room at order 30 allows up to 1386647 Hz)
_MAX_RIR_SAMPLES = 2**20
_MAX_MIXTURE_SAMPLES = 2**27  # 1 GiB of float64 per mic and array, 2.3 hours at 16 kHz
_MAX_SNR_DB = 200.0  # 10^(snr_db / 10) stays far inside the float range


def _vector(name: str, value) -> np.ndarray:
    """``value`` as a float64 3-vector: it must hold three finite real
    numbers, so a scalar, a string, a bool or a NaN raises
    :class:`ParameterError` here and not deep in the simulation."""
    items = np.asarray(value, dtype=object).reshape(-1)
    if items.shape != (3,):
        raise ParameterError(f"{name} must be a 3-vector, got shape {items.shape}")
    for i, v in enumerate(items):
        check_finite(f"{name}[{i}]", v)
    return items.astype(np.float64)


def _check_inside(name: str, pos, dims) -> np.ndarray:
    p = _vector(name, pos)
    if np.any(p <= 0.0) or np.any(p >= dims):
        raise ParameterError(f"{name} = {p.tolist()} is not strictly inside the room")
    return p


@dataclass(frozen=True)
class RoomSpec:
    """Shoebox room with uniform wall absorption.

    Parameters
    ----------
    dimensions : (Lx, Ly, Lz) meters, all positive.
    absorption : wall energy absorption in (0, 1]; the per-bounce
        amplitude factor is (1 - absorption).
    max_order : highest total reflection count simulated, at most 30.
    sample_rate_hz : output RIR sampling rate. At most the rate at which
        ``(max_order + 1)`` room diagonals, at ``speed_of_sound``, span
        2^20 samples less the interpolator's 42, which bounds the RIR
        length at 2^20 samples.
    source_positions, mic_positions : 3-vectors strictly inside the room.
    speed_of_sound : meters per second.
    """

    dimensions: tuple
    absorption: float
    max_order: int
    sample_rate_hz: int
    source_positions: tuple
    mic_positions: tuple
    speed_of_sound: float = 343.0

    def __post_init__(self):
        dims = _vector("dimensions", self.dimensions)
        if not np.all(dims > 0.0):
            raise ParameterError(f"dimensions must be 3 positive lengths, got {self.dimensions}")
        check_finite("absorption", self.absorption)
        if not 0.0 < self.absorption <= 1.0:
            raise ParameterError(f"absorption must lie in (0, 1], got {self.absorption}")
        check_int("max_order", self.max_order, 0)
        if self.max_order > _MAX_ORDER:
            raise ParameterError(f"max_order must be <= {_MAX_ORDER}, got {self.max_order}")
        check_int("sample_rate_hz", self.sample_rate_hz, 1)
        check_finite("speed_of_sound", self.speed_of_sound)
        if not self.speed_of_sound > 0:
            raise ParameterError(f"speed_of_sound must be > 0, got {self.speed_of_sound}")
        reach_s = (self.max_order + 1) * float(np.linalg.norm(dims)) / self.speed_of_sound
        if self.sample_rate_hz * reach_s > _MAX_RIR_SAMPLES - _SINC_HALF - 2:
            limit = math.floor((_MAX_RIR_SAMPLES - _SINC_HALF - 2) / reach_s)
            raise ParameterError(
                f"sample_rate_hz must be <= {limit} in this room at max_order "
                f"{self.max_order}, so that an impulse response stays within "
                f"{_MAX_RIR_SAMPLES} samples, got {self.sample_rate_hz}"
            )
        object.__setattr__(self, "dimensions", tuple(dims))
        for name in ("source_positions", "mic_positions"):
            positions = getattr(self, name)
            if not isinstance(positions, (list, tuple)) or not positions:
                raise ParameterError(
                    f"{name} must be a non-empty list of 3-vectors, got {positions!r}"
                )
            checked = tuple(
                tuple(_check_inside(f"{name}[{i}]", p, dims)) for i, p in enumerate(positions)
            )
            object.__setattr__(self, name, checked)
        object.__setattr__(self, "sample_rate_hz", int(self.sample_rate_hz))


def image_sources(room: RoomSpec, src: int, mic: int) -> tuple:
    """Image expansion of one source as seen from one microphone.

    A mirror combination ``(p, r)``, with ``p`` in {0, 1}^3 and ``r``
    in [-max_order, max_order + 1]^3, reflects ``|r - p| + |r|`` times
    along each axis. Those per-axis counts, one (2, 2 max_order + 2)
    table, are broadcast into the reflection count of every combination,
    and the combinations of count at most ``max_order`` are taken from
    its nonzero indices in C order, which is ``itertools.product``
    order. Distances are the square roots of one batched ``matmul`` of
    each offset row with itself, the same dot product
    ``np.linalg.norm`` of a row takes, so they equal the per-row norms
    bit for bit; amplitudes look up ``(1 - absorption)^order`` in a
    table. Memory is one int64 count per combination, 8 (2 max_order +
    2)^3 of them (15 MiB at order 30), plus a few arrays of one row per
    kept image.

    Returns
    -------
    (delays, amplitudes, orders)
        Parallel arrays sorted by delay (stable, so ties keep
        enumeration order): arrival time in samples (fractional),
        amplitude (1 - absorption)^order / (4 pi dist), and the total
        reflection count of each image.

    Raises
    ------
    ParameterError
        ``src`` or ``mic`` is not an integer index of a source or
        microphone position of ``room``.
    """
    for name, index, positions in (
        ("src", src, room.source_positions),
        ("mic", mic, room.mic_positions),
    ):
        check_int(name, index, 0)
        if index >= len(positions):
            raise ParameterError(f"{name} must be < {len(positions)}, got {index}")
    s = np.asarray(room.source_positions[src])
    m = np.asarray(room.mic_positions[mic])
    if np.allclose(s, m):
        raise ParameterError("source and microphone coincide")
    dims = np.asarray(room.dimensions)
    n = room.max_order
    reflect = 1.0 - room.absorption

    span = np.arange(-n, n + 2, dtype=np.int64)
    axis = np.abs(span - np.arange(2)[:, None]) + np.abs(span)  # (bit, r) -> reflections
    cost = (
        axis[:, None, None, :, None, None]
        + axis[None, :, None, None, :, None]
        + axis[None, None, :, None, None, :]
    )
    index = np.nonzero(cost <= n)  # in C order, the itertools.product order
    orders = cost[index]
    del cost  # freed before the per-image arrays: 15 MiB at order 30
    p = np.stack(index[:3], axis=1)
    r = span[np.stack(index[3:], axis=1)]
    pos = (1.0 - 2.0 * p) * s + 2.0 * r * dims
    d = pos - m
    dist = np.sqrt(np.matmul(d[:, None, :], d[:, :, None]))[:, 0, 0]
    delays = dist / room.speed_of_sound * room.sample_rate_hz
    gain = np.array([reflect**o for o in range(n + 1)])
    amps = gain[orders] / (4.0 * math.pi * dist)
    idx = np.argsort(delays, kind="stable")
    return delays[idx], amps[idx], orders[idx]


def image_source_rir(room: RoomSpec, src: int, mic: int) -> np.ndarray:
    """Room impulse response between one source and one microphone.

    Each image contributes amplitude * sinc(n - delay) under an 81-tap
    Hann window centered on the fractional delay, at the samples ``n``
    within 40 of the delay. The taps are formed in blocks of 2048 images
    (``_RIR_BLOCK``) taken in delay order, one (block, 81) array each,
    and one ``np.add.at`` per block adds them in image-major order:
    every sample sums its images' taps in delay order, the order of a
    loop over the images.

    An image at an integer delay is one exact spike: its tap at the delay
    is exactly the amplitude, and its other taps are sinc's zeros as
    ``np.sinc`` rounds them, below 1e-15 of it.

    Examples
    --------
    >>> room = RoomSpec(dimensions=(4.0, 4.0, 3.0), absorption=0.5, max_order=0,
    ...                 sample_rate_hz=1024, source_positions=((1.0, 1.0, 1.0),),
    ...                 mic_positions=((1.0, 1.0, 2.0),), speed_of_sound=256.0)
    >>> h = image_source_rir(room, 0, 0)
    >>> int(np.argmax(h)), bool(h[4] == 1 / (4 * math.pi))
    (4, True)
    >>> bool(np.max(np.abs(np.delete(h, 4))) < 1e-15 * h[4])
    True
    """
    all_delays, all_amps, _ = image_sources(room, src, mic)
    length = int(math.ceil(all_delays.max())) + _SINC_HALF + 2
    h = np.zeros(length)
    for start in range(0, all_delays.size, _RIR_BLOCK):
        delays = all_delays[start : start + _RIR_BLOCK]
        amps = all_amps[start : start + _RIR_BLOCK]
        first = np.ceil(delays).astype(np.int64) - _SINC_HALF
        lo = np.maximum(first, 0)
        hi = np.minimum(np.floor(delays).astype(np.int64) + _SINC_HALF + 1, length)
        n = first[:, None] + np.arange(2 * _SINC_HALF + 1)
        x = n - delays[:, None]
        window = 0.5 + 0.5 * np.cos(np.pi * x / (_SINC_HALF + 1))
        taps = amps[:, None] * np.sinc(x) * window
        inside = (n >= lo[:, None]) & (n < hi[:, None])
        np.add.at(h, n[inside], taps[inside])
    return h


def _fft_size(n: int) -> int:
    """The smallest 5-smooth integer (2^a 3^b 5^c) >= ``n`` >= 1."""
    # every 3^b 5^c below the best so far, times the least power of two
    # that lifts it to n or more
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve(x: np.ndarray, kernels) -> np.ndarray:
    """Full linear convolutions of one signal (n,) with M kernels.

    Returns an (M, n + L - 1) array, L the longest kernel's length; the
    row of a shorter kernel is zero after its own n + len - 1 samples.
    One ``rfft`` of ``x`` is shared by the ``rfft`` of every kernel,
    zero-padded to the smallest 5-smooth length >= n + L - 1 (Stockham,
    1966), and one batched ``irfft`` gives all rows: the direct sums
    (``np.convolve``) to rounding at every length, but not bit for bit.
    """
    n, taps = x.size, max(k.size for k in kernels)
    size = _fft_size(n + taps - 1)
    padded = np.zeros((len(kernels), taps))
    for row, k in zip(padded, kernels):
        row[: k.size] = k
    spectra = np.fft.rfft(padded, size, axis=1)
    spectra *= np.fft.rfft(x, size)
    out = np.fft.irfft(spectra, size, axis=1)[:, : n + taps - 1]
    for row, k in zip(out, kernels):
        row[n + k.size - 1 :] = 0.0  # rounding residue past a shorter kernel's end
    return out


def _power(x: np.ndarray) -> float:
    return float(np.mean(np.square(x)))


@dataclass(frozen=True)
class PlannedSource:
    speaker: str
    audio: WaveformBuffer
    onset_s: float = 0.0

    def __post_init__(self):
        check_file_name("speaker", self.speaker)  # names the image file
        check_field("speaker", self.speaker)  # and an RTTM field
        check_finite("onset_s", self.onset_s)
        if self.onset_s < 0:
            raise ParameterError(f"onset must be >= 0, got {self.onset_s}")
        if self.audio.channels != 1:
            raise ParameterError("planned sources must be mono")
        check_finite_samples(self.audio.samples, f"speaker {self.speaker}")
        object.__setattr__(self, "onset_s", float(self.onset_s))


@dataclass(frozen=True)
class MixturePlan:
    """What to mix: dry sources with onsets, one per speaker, plus an
    optional noise floor.

    ``snr_db`` lies in [-200, 200] dB; with ``noise=None`` it uses seeded
    white Gaussian noise, and ``snr_db=None`` disables noise entirely. A
    NaN or infinite sample in a source or in the noise raises a
    :class:`~farfield.errors.DataError` naming the speaker (or the noise),
    the channel and the sample index, when the source or plan is built.
    """

    sources: tuple
    snr_db: float | None = None
    noise: WaveformBuffer | None = None
    seed: int = 0
    session: str = "sim0"

    def __post_init__(self):
        if not self.sources:
            raise ParameterError("plan needs at least one source")
        if self.noise is not None:
            if self.snr_db is None:
                raise ParameterError("snr_db is required when a noise source is given")
            check_finite_samples(self.noise.samples, "noise")
        if self.snr_db is not None:
            check_finite("snr_db", self.snr_db)
            if abs(self.snr_db) > _MAX_SNR_DB:
                raise ParameterError(f"snr_db must be between -200 and 200, got {self.snr_db}")
        check_int("seed", self.seed, 0)
        check_field("session", self.session)  # an RTTM field
        object.__setattr__(self, "sources", tuple(self.sources))
        speakers = [s.speaker for s in self.sources]
        for speaker in speakers:
            if speakers.count(speaker) > 1:  # its images would overwrite each other
                raise ParameterError(f"speaker {speaker!r} has more than one source")


@dataclass(frozen=True)
class MeetingResult:
    """Simulated mixture with its ground truth.

    The mixture equals sum of images plus noise exactly (same floats).
    """

    mixture: WaveformBuffer
    reference: DiarizationSet
    images: dict  # speaker -> WaveformBuffer (mics x samples)
    noise: WaveformBuffer | None


def _dry_segments(source: PlannedSource, session: str, rate: int) -> list:
    """Energy-gated speech segments of a dry source, onset applied.

    Frames of ``_SEG_WIN_S`` every ``_SEG_HOP_S`` are active above
    ``_SEG_THRESHOLD`` RMS. Each run of active frames spans its first
    frame's start to its last frame's end, and a run joins the one
    before it when the gap between them is shorter than
    ``_SEG_MERGE_GAP_S``. Times are sample counts divided by the rate,
    then offset by the onset.
    """
    win = int(round(_SEG_WIN_S * rate))
    hop = int(round(_SEG_HOP_S * rate))
    x = source.audio.samples[0]
    if x.size < win:
        return []
    n_frames = 1 + (x.size - win) // hop
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    rms = np.sqrt(np.mean(np.square(x[idx]), axis=1))
    # the mask changes at each run's first frame and one past its last
    edges = np.flatnonzero(np.diff(rms > _SEG_THRESHOLD, prepend=False, append=False))
    first, last = edges[0::2], edges[1::2] - 1
    apart = first[1:] * hop - (last[:-1] * hop + win) >= _SEG_MERGE_GAP_S * rate
    first = np.append(first[:1], first[1:][apart])
    last = np.append(last[:-1][apart], last[-1:])
    t0 = source.onset_s + first * hop / rate
    t1 = source.onset_s + (last * hop + win) / rate  # the last frame ends within x
    return [
        DiarSegment(session, source.speaker, a, b) for a, b in zip(t0.tolist(), t1.tolist())
    ]


def make_meeting(plan: MixturePlan, room: RoomSpec) -> MeetingResult:
    """Render a multichannel meeting mixture with ground truth.

    Every dry source is convolved with its RIR to every microphone and
    placed at its onset; the per-source images are summed and noise is
    added at the requested SNR. Reference segments come from the dry
    sources' frame energy. Deterministic given ``plan.seed``. A mixture
    of more than 2^27 samples (2.3 hours at 16 kHz) is a ParameterError.

    Each source is convolved with all of its microphones' RIRs at once by
    :func:`_convolve`: the direct sums to rounding at every length (below
    1e-15 of each image's peak on the bench's sessions), not bit for bit.
    """
    rate = room.sample_rate_hz
    for s in plan.sources:
        if s.audio.sample_rate_hz != rate:
            raise ParameterError(
                f"source {s.speaker} sample rate {s.audio.sample_rate_hz} != room rate {rate}"
            )
    if plan.noise is not None and plan.noise.sample_rate_hz != rate:
        raise ParameterError("noise sample rate differs from the room rate")
    if len(plan.sources) != len(room.source_positions):
        raise ParameterError(
            f"plan has {len(plan.sources)} sources but the room declares "
            f"{len(room.source_positions)} source positions"
        )
    n_mics = len(room.mic_positions)

    rirs = [
        [image_source_rir(room, si, mi) for mi in range(n_mics)]
        for si in range(len(plan.sources))
    ]
    length = 0
    for si, s in enumerate(plan.sources):
        onset = int(round(s.onset_s * rate))
        tail = max(len(r) for r in rirs[si])
        length = max(length, onset + s.audio.n_samples + tail - 1)
    if length > _MAX_MIXTURE_SAMPLES:
        raise ParameterError(f"the mixture would last {length} samples, more than 2^27")

    images = {}
    segments = []
    for si, s in enumerate(plan.sources):
        onset = int(round(s.onset_s * rate))
        img = np.zeros((n_mics, length))
        y = _convolve(s.audio.samples[0], rirs[si])
        img[:, onset : onset + y.shape[1]] = y
        del y  # it may view a whole transform buffer: free it before the next source
        images[s.speaker] = WaveformBuffer(img, rate)
        segments.extend(_dry_segments(s, plan.session, rate))
    # summed after the loop, in source order, so no running sum is alive
    # while a source is convolved
    clean = np.zeros((n_mics, length))
    for image in images.values():
        clean += image.samples

    noise_buf = None
    mixture = clean
    if plan.snr_db is not None:
        if plan.noise is None:
            noise = np.random.default_rng(plan.seed).standard_normal((n_mics, length))
        else:
            # a seeded crop of the noise recording, a mono one broadcast to every mic
            src = plan.noise
            if src.n_samples < length:
                raise ParameterError(f"noise ({src.n_samples}) shorter than mixture ({length})")
            if src.channels not in (1, n_mics):
                raise ParameterError(f"noise has {src.channels} channels, expected 1 or {n_mics}")
            offset = int(np.random.default_rng(plan.seed).integers(0, src.n_samples - length + 1))
            noise = np.broadcast_to(src.samples[:, offset : offset + length], (n_mics, length))
        p_clean = _power(clean)
        p_noise = _power(noise)
        if p_clean == 0.0:
            raise ParameterError("mixture of sources has zero power")
        if p_noise == 0.0:
            raise ParameterError("noise crop has zero power")
        scale = math.sqrt(p_clean / (p_noise * 10.0 ** (plan.snr_db / 10.0)))
        noise = scale * noise  # rebound, so the unscaled draw is freed
        noise_buf = WaveformBuffer(noise, rate)
        mixture = clean + noise_buf.samples

    return MeetingResult(
        mixture=WaveformBuffer(mixture, rate),
        reference=DiarizationSet(segments=tuple(segments)),
        images=images,
        noise=noise_buf,
    )
