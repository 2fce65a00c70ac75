"""Multichannel dereverberation by weighted prediction error.

Late reverberation in each frequency bin is modeled as a linear
prediction from delayed past STFT frames across all channels. The
predicted tail is subtracted, leaving the direct path and early
reflections. Estimation alternates between a per-bin power estimate
``lambda`` and the prediction filters ``G`` that are optimal for it,
which makes the surrogate objective :func:`wpe_objective` non-increasing
from iteration to iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError, check_finite, check_int
from .linalg import solve_hermitian
from .signal import ComplexSpectrogram

DEFAULT_PSD_FLOOR = 1e-10
_BLOCK_BINS = 8  # frequency bins per WPE block; bounds the working set


@dataclass(frozen=True)
class WpeConfig:
    """Settings for :func:`wpe`.

    Parameters
    ----------
    taps : int
        Prediction filter length K per channel.
    delay : int
        Frames D skipped before the prediction history starts; keeps the
        direct path and early reflections out of the regression.
    iterations : int
        Alternations between power estimation and filter estimation.
    psd_floor : float
        Lower bound epsilon on the per-bin power estimate.
    diagonal_loading : float
        Relative Tikhonov term: delta = diagonal_loading * trace(R) / (C*K)
        is added to the correlation matrix before solving.
    """

    taps: int = 10
    delay: int = 3
    iterations: int = 3
    psd_floor: float = DEFAULT_PSD_FLOOR
    diagonal_loading: float = 1e-6

    def __post_init__(self):
        for name in ("taps", "delay", "iterations"):
            check_int(name, getattr(self, name), 1)
        check_finite("psd_floor", self.psd_floor)
        check_finite("diagonal_loading", self.diagonal_loading)
        if not self.psd_floor > 0:
            raise ParameterError(f"psd_floor must be > 0, got {self.psd_floor}")
        if self.diagonal_loading < 0:
            raise ParameterError(
                f"diagonal_loading must be >= 0, got {self.diagonal_loading}"
            )


def frame_powers(spec: ComplexSpectrogram, floor: float = DEFAULT_PSD_FLOOR) -> np.ndarray:
    """Channel-averaged magnitude-squared per bin, floored at ``floor``.

    Returns
    -------
    ndarray, shape (frames, bins)
    """
    if not floor > 0:
        raise ParameterError(f"floor must be > 0, got {floor}")
    power = np.mean(np.abs(spec.values) ** 2, axis=2)
    return np.maximum(power, floor)


def wpe_objective(
    x: ComplexSpectrogram,
    y: ComplexSpectrogram,
    powers: np.ndarray,
    floor: float = DEFAULT_PSD_FLOOR,
) -> float:
    """Maximum-likelihood surrogate descended by the WPE iteration.

    Computes sum over (t, f) of mean_c |y(t,f,c)|^2 / powers(t,f)
    + log powers(t,f).

    Parameters
    ----------
    x, y : ComplexSpectrogram
        Observation and dereverberated estimate; shapes must match.
    powers : ndarray, shape (frames, bins)
        Per-bin power estimate, every entry >= floor.
    floor : float
        The floor the powers were computed with.
    """
    if x.values.shape != y.values.shape:
        raise ParameterError(
            f"shape mismatch: x {x.values.shape} vs y {y.values.shape}"
        )
    lam = np.asarray(powers, dtype=np.float64)
    if lam.shape != (y.frames, y.bins):
        raise ParameterError(
            f"powers shape {lam.shape} does not match (frames, bins) = "
            f"({y.frames}, {y.bins})"
        )
    if np.any(lam < floor):
        raise ParameterError(f"powers below the floor {floor}")
    mean_mag2 = np.mean(np.abs(y.values) ** 2, axis=2)
    return float(np.sum(mean_mag2 / lam + np.log(lam)))


def _stack_history(x: np.ndarray, taps: int, delay: int) -> np.ndarray:
    """Delayed frame stack per frequency.

    Parameters
    ----------
    x : ndarray, shape (bins, channels, frames)

    Returns
    -------
    ndarray, shape (bins, channels * taps, frames)
        Row block k holds the frames delayed by ``delay + k``; frames
        before the start of the signal are zeros.
    """
    n_bins, n_ch, n_frames = x.shape
    out = np.zeros((n_bins, n_ch * taps, n_frames), dtype=x.dtype)
    for k in range(taps):
        d = delay + k
        if d < n_frames:
            out[:, k * n_ch : (k + 1) * n_ch, d:] = x[:, :, : n_frames - d]
    return out


def _prediction_filters(
    r: np.ndarray, p: np.ndarray, diagonal_loading: float, first_bin: int
) -> np.ndarray:
    """Filters solving the loaded normal equations of one block of bins.

    Bin ``i`` of the block is frequency bin ``first_bin + i``; the index
    names the bin if its solve fails. Silent bins (trace <= 0) have
    nothing to predict and get zero filters.
    """
    ck = r.shape[1]
    trace = np.trace(r, axis1=1, axis2=2).real
    live = np.flatnonzero(trace > 0.0)
    loaded = r[live] + (diagonal_loading * trace[live] / ck)[:, None, None] * np.eye(ck)

    def solve_bin(i, ri, pi):
        try:
            return np.linalg.solve(ri, pi)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"prediction filter solve failed in frequency bin {first_bin + live[i]}"
            ) from exc

    g = np.zeros(p.shape, dtype=np.complex128)
    g[live] = solve_hermitian(loaded, p[live], solve_bin)
    return g


def _wpe_block(x: np.ndarray, cfg: WpeConfig, first_bin: int) -> np.ndarray:
    """All WPE iterations on one block of bins, x of shape (bins, C, T)."""
    history = _stack_history(x, cfg.taps, cfg.delay)  # (B, CK, T)
    history_h = history.conj().transpose(0, 2, 1)  # (B, T, CK)
    x_h = x.conj().transpose(0, 2, 1)  # (B, T, C)
    y = x
    for _ in range(cfg.iterations):
        lam = np.maximum(np.mean(np.abs(y) ** 2, axis=1), cfg.psd_floor)  # (B, T)
        weighted = history * (1.0 / lam)[:, None, :]
        g = _prediction_filters(
            weighted @ history_h, weighted @ x_h, cfg.diagonal_loading, first_bin
        )
        y = x - g.conj().transpose(0, 2, 1) @ history
    return y


def wpe(spec: ComplexSpectrogram, cfg: WpeConfig = WpeConfig()) -> ComplexSpectrogram:
    """Dereverberate a multichannel spectrogram.

    Per frequency bin and iteration: estimate per-bin powers from the
    current output (the observation on the first pass), stack the frames
    delayed by ``delay .. delay + taps - 1`` across channels, form the
    power-weighted correlation matrix and cross-correlation, solve for
    the prediction filters, and subtract the prediction. The output has
    the same shape as the input.

    Bins are independent, so the computation runs on blocks of
    ``_BLOCK_BINS`` bins at a time, which bounds the working set by the
    block instead of by bins x channels x taps x frames. Within a block
    the correlations are batched matrix products and the filters come
    from one batched Hermitian solve (:func:`~farfield.linalg.solve_hermitian`),
    an LU solve that also handles indefinite matrices and gives each bin
    the same filter as solving it alone. Only if a block has an exactly
    singular matrix are its bins solved one by one, to name that bin.

    Raises
    ------
    ParameterError
        Too few frames to estimate filters (needs frames - delay >=
        channels * taps and frames > delay + taps).
    NumericalError
        A correlation matrix was singular despite loading; the message
        names the frequency bin.
    """
    n_frames, n_bins, n_ch = spec.values.shape
    ck = n_ch * cfg.taps
    if n_frames <= cfg.delay + cfg.taps or n_frames - cfg.delay < ck:
        raise ParameterError(
            f"{n_frames} frames are too few for taps={cfg.taps}, delay={cfg.delay}, "
            f"channels={n_ch}"
        )

    x = np.ascontiguousarray(np.transpose(spec.values, (1, 2, 0)))  # (F, C, T)
    y = np.empty_like(x)
    for lo in range(0, n_bins, _BLOCK_BINS):
        y[lo : lo + _BLOCK_BINS] = _wpe_block(x[lo : lo + _BLOCK_BINS], cfg, lo)

    return ComplexSpectrogram(
        values=np.transpose(y, (2, 0, 1)),
        params=spec.params,
        sample_rate_hz=spec.sample_rate_hz,
        source_length=spec.source_length,
    )
