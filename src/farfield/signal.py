"""Time-frequency analysis, synthesis and resampling primitives.

All downstream processing (dereverberation, source separation,
simulation) works on :class:`ComplexSpectrogram` values produced by
:func:`stft` and goes back to the time domain through :func:`istft`.

Conventions
-----------
* Waveforms are float64 matrices of shape ``(channels, samples)``.
* Spectrograms are complex128 tensors of shape ``(frames, bins, channels)``
  with one-sided spectra (``bins = fft_size // 2 + 1``).
* Analysis reflect-pads ``frame_length - frame_shift`` samples at both
  ends so every original sample sits in the constant-overlap region and
  the round trip is exact; :func:`istft` removes that padding again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError

_WINDOWS = ("hann", "sqrt-hann")
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
        if int(self.sample_rate_hz) <= 0:
            raise ParameterError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
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

    The combination of window and shift must satisfy constant overlap-add
    (checked on the product of analysis and synthesis windows, within
    1e-10 relative deviation), otherwise construction fails.
    """

    frame_length: int = 512
    frame_shift: int = 128
    fft_size: int = 512
    window: str = "hann"

    def __post_init__(self):
        if not (0 < self.frame_shift <= self.frame_length <= self.fft_size):
            raise ParameterError(
                "need 0 < frame_shift <= frame_length <= fft_size, got "
                f"shift={self.frame_shift} length={self.frame_length} fft={self.fft_size}"
            )
        if self.window not in _WINDOWS:
            raise ParameterError(f"window must be one of {_WINDOWS}, got {self.window!r}")
        dev = self._cola_deviation()
        if dev > _COLA_TOL:
            raise ParameterError(
                f"window={self.window!r} with shift={self.frame_shift} does not satisfy "
                f"constant overlap-add (relative deviation {dev:.3e} > {_COLA_TOL})"
            )

    @property
    def analysis_window(self) -> np.ndarray:
        w = _periodic_hann(self.frame_length)
        if self.window == "sqrt-hann":
            return np.sqrt(w)
        return w

    @property
    def synthesis_window(self) -> np.ndarray:
        # Plain hann analysis reconstructs with a rectangular synthesis
        # window; sqrt-hann uses itself on both sides (weighted OLA).
        if self.window == "sqrt-hann":
            return np.sqrt(_periodic_hann(self.frame_length))
        return np.ones(self.frame_length)

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    @property
    def edge_padding(self) -> int:
        return self.frame_length - self.frame_shift

    def _cola_deviation(self) -> float:
        q = self.analysis_window * self.synthesis_window
        sums = np.array(
            [q[r :: self.frame_shift].sum() for r in range(self.frame_shift)]
        )
        mean = sums.mean()
        if mean <= 0:
            return np.inf
        return float((sums.max() - sums.min()) / mean)


@dataclass(frozen=True)
class ComplexSpectrogram:
    """One-sided multichannel STFT with its framing parameters."""

    values: np.ndarray  # (frames, bins, channels) complex128
    params: StftParams
    sample_rate_hz: int
    source_length: int = field(default=0)  # samples before padding, 0 if unknown

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.ndim != 3:
            raise ParameterError(f"values must be (frames, bins, channels), got {arr.shape}")
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


def _reflect_indices(n: int, pad: int) -> np.ndarray:
    """Index map implementing reflect padding for any pad width."""
    idx = np.arange(-pad, n + pad)
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * n - 2
    m = np.mod(idx, period)
    return np.where(m >= n, period - m, m)


def stft(wav: WaveformBuffer, p: StftParams) -> ComplexSpectrogram:
    """Short-time Fourier transform of a multichannel waveform.

    The input is reflect-padded by ``frame_length - frame_shift`` at both
    ends, framed with hop ``frame_shift``, windowed and transformed to
    one-sided spectra. A zero tail completes the final frame.

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
    n = wav.n_samples
    pad = p.edge_padding
    x = wav.samples[:, _reflect_indices(n, pad)]
    n_padded = x.shape[1]

    if n_padded <= p.frame_length:
        n_frames = 1
    else:
        n_frames = int(math.ceil((n_padded - p.frame_length) / p.frame_shift)) + 1
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
        source_length=n,
    )


def istft(spec: ComplexSpectrogram, p: StftParams, target_length: int) -> WaveformBuffer:
    """Overlap-add synthesis, inverse of :func:`stft`.

    DC and Nyquist bins are forced real before Hermitian reconstruction.
    The overlap-add result is divided by the window overlap sum and the
    analysis edge padding is cut off, then the output is truncated or
    zero-padded to ``target_length`` samples.
    """
    if p != spec.params:
        raise ParameterError("params do not match the spectrogram's params")
    if target_length < 0:
        raise ParameterError("target_length must be >= 0")

    vals = np.array(spec.values, dtype=np.complex128)
    vals[:, 0, :] = vals[:, 0, :].real
    if p.fft_size % 2 == 0:
        vals[:, -1, :] = vals[:, -1, :].real

    frames_td = np.fft.irfft(vals, n=p.fft_size, axis=1)[:, : p.frame_length, :]
    n_frames = frames_td.shape[0]
    n_ch = frames_td.shape[2]
    length = (n_frames - 1) * p.frame_shift + p.frame_length

    ws = p.synthesis_window
    q = p.analysis_window * ws
    y = np.zeros((n_ch, length))
    denom = np.zeros(length)
    for t in range(n_frames):
        lo = t * p.frame_shift
        y[:, lo : lo + p.frame_length] += (frames_td[t] * ws[:, None]).T
        denom[lo : lo + p.frame_length] += q
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
