"""Time-frequency analysis, synthesis and resampling primitives.

All downstream processing (dereverberation, source separation,
simulation) works on :class:`ComplexSpectrogram` values produced by
:func:`stft` and goes back to the time domain through :func:`istft`.

Conventions
-----------
* Waveforms are float64 matrices of shape ``(channels, samples)``.
* Spectrograms are complex128 tensors of shape ``(frames, bins, channels)``
  with one-sided spectra (``bins = fft_size // 2 + 1``). Each carries the
  :class:`StftParams` that made it, which :func:`istft` synthesizes with.
* Analysis reflect-pads ``frame_length - frame_shift`` samples at both
  ends so every original sample sits in the constant-overlap region and
  the round trip is exact; :func:`istft` removes that padding again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, check_int

_COLA_TOL = 1e-10


def _periodic_hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


@dataclass(frozen=True)
class WaveformBuffer:
    """Multi-channel time-domain audio.

    Parameters
    ----------
    samples : ndarray, shape (channels, n_samples)
        Amplitudes, nominally within [-1, 1]. Coerced to float64.
    sample_rate_hz : int
        Sampling rate, must be positive.

    NaN and Inf are not rejected here, which would cost a full pass over
    every :func:`istft` output. Audio is checked where it enters:
    :func:`~farfield.wavio.read_wav` and :func:`~farfield.gss.gss_enhance`
    raise :class:`~farfield.errors.DataError` on a non-finite sample.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2:
            raise ParameterError(
                f"samples must be (channels, n_samples), got ndim={arr.ndim}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ParameterError(f"empty waveform of shape {arr.shape}")
        check_int("sample_rate_hz", self.sample_rate_hz, 1)
        object.__setattr__(self, "samples", np.ascontiguousarray(arr))
        object.__setattr__(self, "sample_rate_hz", int(self.sample_rate_hz))

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


def check_finite_samples(samples: np.ndarray, context: str) -> None:
    """Reject NaN and infinite audio samples.

    Raises :class:`~farfield.errors.DataError` naming the earliest
    non-finite sample of a (channels, n_samples) array by channel and
    sample index, prefixed by ``context`` (a file name, say).
    """
    bad = ~np.isfinite(samples)
    if bad.any():
        index, channel = np.argwhere(bad.T)[0]
        raise DataError(
            f"{context}: non-finite sample {samples[channel, index]} in channel "
            f"{channel} at sample index {index}"
        )


@dataclass(frozen=True)
class StftParams:
    """Framing parameters for :func:`stft` / :func:`istft`.

    Analysis uses a periodic Hann window and synthesis a rectangular one,
    so the Hann window at this shift must satisfy constant overlap-add
    (within 1e-10 relative deviation), otherwise construction fails.
    """

    frame_length: int = 512
    frame_shift: int = 128
    fft_size: int = 512

    def __post_init__(self):
        for name in ("frame_length", "frame_shift", "fft_size"):
            check_int(name, getattr(self, name))
        if not (0 < self.frame_shift <= self.frame_length <= self.fft_size):
            raise ParameterError(
                "need 0 < frame_shift <= frame_length <= fft_size, got "
                f"shift={self.frame_shift} length={self.frame_length} fft={self.fft_size}"
            )
        dev = self._cola_deviation()
        if dev > _COLA_TOL:
            raise ParameterError(
                f"hann window with shift={self.frame_shift} does not satisfy "
                f"constant overlap-add (relative deviation {dev:.3e} > {_COLA_TOL})"
            )

    @property
    def analysis_window(self) -> np.ndarray:
        return _periodic_hann(self.frame_length)

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    @property
    def edge_padding(self) -> int:
        return self.frame_length - self.frame_shift

    def n_frames(self, n_samples: int) -> int:
        """Frames :func:`stft` cuts from ``n_samples`` samples."""
        n_padded = n_samples + 2 * self.edge_padding
        return int(math.ceil((n_padded - self.frame_length) / self.frame_shift)) + 1

    def _cola_deviation(self) -> float:
        w = self.analysis_window
        sums = np.array(
            [w[r :: self.frame_shift].sum() for r in range(self.frame_shift)]
        )
        mean = sums.mean()
        if mean <= 0:
            return np.inf
        return float((sums.max() - sums.min()) / mean)


@dataclass(frozen=True)
class ComplexSpectrogram:
    """One-sided multichannel STFT with the framing parameters that made it."""

    values: np.ndarray  # (frames, bins, channels) complex128
    params: StftParams
    sample_rate_hz: int

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.ndim != 3:
            raise ParameterError(f"values must be (frames, bins, channels), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[2] < 1:
            raise ParameterError(f"empty spectrogram of shape {arr.shape}")
        if arr.shape[1] != self.params.n_bins:
            raise ParameterError(
                f"bin count {arr.shape[1]} inconsistent with fft_size={self.params.fft_size}"
            )
        object.__setattr__(self, "values", np.ascontiguousarray(arr))

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def bins(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


def stft(wav: WaveformBuffer, p: StftParams) -> ComplexSpectrogram:
    """Short-time Fourier transform of a multichannel waveform.

    The input is reflect-padded by ``frame_length - frame_shift`` at both
    ends, cut into the fewest frames of hop ``frame_shift`` that cover it
    (a zero tail completes the last), windowed and transformed by rfft.

    Parameters
    ----------
    wav : WaveformBuffer
    p : StftParams

    Returns
    -------
    ComplexSpectrogram of shape (frames, fft_size // 2 + 1, channels).
    """
    if not isinstance(wav, WaveformBuffer):
        raise ParameterError("stft expects a WaveformBuffer")
    pad = p.edge_padding
    x = np.pad(wav.samples, ((0, 0), (pad, pad)), mode="reflect")
    n_padded = x.shape[1]
    n_frames = p.n_frames(wav.n_samples)
    full = (n_frames - 1) * p.frame_shift + p.frame_length
    if full > n_padded:
        x = np.pad(x, ((0, 0), (0, full - n_padded)))

    window = p.analysis_window
    view = np.lib.stride_tricks.sliding_window_view(x, p.frame_length, axis=1)
    frames = view[:, :: p.frame_shift, :][:, :n_frames, :]  # (C, T, L)
    spec = np.fft.rfft(frames * window, n=p.fft_size, axis=2)  # (C, T, F)
    return ComplexSpectrogram(
        values=np.transpose(spec, (1, 2, 0)),
        params=p,
        sample_rate_hz=wav.sample_rate_hz,
    )


def istft(spec: ComplexSpectrogram, target_length: int) -> WaveformBuffer:
    """Overlap-add synthesis with ``spec.params``, inverse of :func:`stft`.

    The imaginary parts of the DC bin and, for an even ``fft_size``, the
    Nyquist bin do not reach the output: Hermitian reconstruction drops them.
    Synthesis is rectangular: the frames are overlap-added as they are,
    the sum is divided by the overlap sum of the Hann analysis window and
    the analysis edge padding is cut off, then the output is truncated or
    zero-padded to ``target_length`` samples, a positive integer.

    >>> x = WaveformBuffer(np.arange(1.0, 11.0), 16000)
    >>> y = istft(stft(x, StftParams(8, 4, 8)), x.n_samples)
    >>> float(np.max(np.abs(y.samples - x.samples))) < 1e-12
    True
    """
    check_int("target_length", target_length, 1)
    p = spec.params
    frames_td = np.fft.irfft(spec.values, n=p.fft_size, axis=1)[:, : p.frame_length, :]
    n_frames, _, n_ch = frames_td.shape
    hop = p.frame_shift
    k = -(-p.frame_length // hop)

    blocks = np.zeros((n_ch, n_frames, k * hop))
    blocks[:, :, : p.frame_length] = np.moveaxis(frames_td, 2, 0)
    blocks = blocks.reshape(n_ch, n_frames, k, hop)
    q = np.pad(p.analysis_window, (0, k * hop - p.frame_length)).reshape(k, hop)
    # frames are cut into k blocks of one shift, the last one zero-padded;
    # block j of frame t lands on output block t + j, so adding j from last
    # to first sums every output sample over its frames in frame order
    y = np.zeros((n_ch, n_frames + k - 1, hop))
    denom = np.zeros((n_frames + k - 1, hop))
    for j in reversed(range(k)):
        y[:, j : j + n_frames] += blocks[:, :, j]
        denom[j : j + n_frames] += q[j]
    y = y.reshape(n_ch, -1)
    denom = denom.reshape(-1)
    tiny = 1e-12 * max(denom.max(), 1.0)
    y = np.where(denom > tiny, y / np.maximum(denom, tiny), 0.0)

    pad = p.edge_padding
    out = y[:, pad : pad + target_length]
    if out.shape[1] < target_length:
        out = np.pad(out, ((0, 0), (0, target_length - out.shape[1])))
    return WaveformBuffer(samples=out, sample_rate_hz=spec.sample_rate_hz)


_SPEED_RANGE = (0.8, 1.2)
_RESAMPLE_HALF_TAPS = 32  # 64-tap symmetric kernel
_KAISER_BETA = 7.857  # about 80 dB stopband


def _kaiser(u: np.ndarray) -> np.ndarray:
    inside = np.abs(u) <= 1.0
    v = np.where(inside, u, 0.0)
    return np.where(inside, np.i0(_KAISER_BETA * np.sqrt(1.0 - v * v)), 0.0) / np.i0(
        _KAISER_BETA
    )


def speed_perturb(wav: WaveformBuffer, factor: float) -> WaveformBuffer:
    """Change playback speed by resampling, keeping the nominal rate.

    The output has ``round(n / factor)`` samples and a tone at frequency
    ``f0`` moves to ``f0 * factor``. Resampling uses a Kaiser-windowed
    sinc interpolator (64 taps, widened when slowing the sample grid
    down would otherwise alias).

    Parameters
    ----------
    wav : WaveformBuffer
    factor : float
        Speed factor within [0.8, 1.2]; 1.0 returns an identical copy.
    """
    if not (_SPEED_RANGE[0] <= factor <= _SPEED_RANGE[1]):
        raise ParameterError(
            f"speed factor {factor} outside supported range {_SPEED_RANGE}"
        )
    if factor == 1.0:
        return WaveformBuffer(wav.samples.copy(), wav.sample_rate_hz)

    n_in = wav.n_samples
    n_out = int(round(n_in / factor))
    cutoff = min(1.0, 1.0 / factor)
    half_width = _RESAMPLE_HALF_TAPS / cutoff

    centers = np.arange(n_out) * factor
    first = np.ceil(centers - half_width).astype(np.int64)
    n_taps = int(2 * half_width) + 2
    offsets = np.arange(n_taps)
    idx = first[:, None] + offsets[None, :]  # (n_out, taps)
    x_rel = idx - centers[:, None]
    kernel = cutoff * np.sinc(cutoff * x_rel) * _kaiser(x_rel / half_width)

    valid = (idx >= 0) & (idx < n_in)
    idx_safe = np.clip(idx, 0, n_in - 1)
    kernel = np.where(valid, kernel, 0.0)
    out = np.einsum("cok,ok->co", wav.samples[:, idx_safe], kernel)
    return WaveformBuffer(samples=out, sample_rate_hz=wav.sample_rate_hz)
