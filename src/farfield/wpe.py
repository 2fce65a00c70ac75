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

from .errors import ParameterError, check_int
from .linalg import map_blocks, solve_hermitian
from .signal import ComplexSpectrogram

DEFAULT_PSD_FLOOR = 1e-10  # lower bound epsilon on the per-bin power estimate
_DIAGONAL_LOADING = 1e-6  # relative Tikhonov term, scaled by trace(R) / (C*K)
# bins x frames of one block (see linalg.map_blocks): WPE holds about 3 * C * K
# complex values per bin-frame, some 15 times the EM's, so its budget is smaller
_BLOCK_BIN_FRAMES = 1024
_MAX_ITERATIONS = 1000  # every iteration solves every bin's filters again


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
        Alternations of power and filter estimation, at most 1000.
    """

    taps: int = 10
    delay: int = 3
    iterations: int = 3

    def __post_init__(self):
        check_int("taps", self.taps, 1)
        check_int("delay", self.delay, 1)
        check_int("iterations", self.iterations, 1, _MAX_ITERATIONS)


def min_frames(cfg: WpeConfig, channels: int) -> int:
    """Fewest frames :func:`wpe` estimates filters from: frames - delay >=
    channels * taps, and frames > delay + taps."""
    return cfg.delay + max(channels * cfg.taps, cfg.taps + 1)


def _powers(values: np.ndarray, channel_axis: int) -> np.ndarray:
    """The WPE power estimate: the mean of |values|^2 over
    ``channel_axis``, floored at ``DEFAULT_PSD_FLOOR``."""
    return np.maximum(np.mean(np.abs(values) ** 2, axis=channel_axis), DEFAULT_PSD_FLOOR)


def wpe_objective(x: ComplexSpectrogram, y: ComplexSpectrogram, powers: np.ndarray) -> float:
    """Maximum-likelihood surrogate descended by the WPE iteration.

    Computes sum over (t, f) of mean_c |y(t,f,c)|^2 / powers(t,f)
    + log powers(t,f).

    Parameters
    ----------
    x, y : ComplexSpectrogram
        Observation and dereverberated estimate; shapes must match.
    powers : ndarray, shape (frames, bins)
        Per-bin power estimate, every entry >= ``DEFAULT_PSD_FLOOR``.
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
    if np.any(lam < DEFAULT_PSD_FLOOR):
        raise ParameterError(f"powers below the floor {DEFAULT_PSD_FLOOR}")
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
        out[:, k * n_ch : (k + 1) * n_ch, d:] = x[:, :, : n_frames - d]
    return out


def _prediction_filters(r: np.ndarray, p: np.ndarray, first_bin: int) -> np.ndarray:
    """Filters solving the loaded normal equations of one block of bins.

    Bin ``i`` of the block is frequency bin ``first_bin + i``. A silent
    bin (all-zero r and p) takes the retry of
    :func:`~farfield.linalg.solve_hermitian` and gets zero filters.
    """
    ck = r.shape[1]
    trace = np.trace(r, axis1=1, axis2=2).real
    loaded = r + (_DIAGONAL_LOADING * trace / ck)[:, None, None] * np.eye(ck)
    return solve_hermitian(loaded, p, first_bin + np.arange(len(r)), "correlation matrix")


def _wpe_block(x: np.ndarray, cfg: WpeConfig, first_bin: int) -> np.ndarray:
    """All WPE iterations on one block of bins, x of shape (bins, C, T)."""
    history = _stack_history(x, cfg.taps, cfg.delay)  # (B, CK, T)
    history_h = history.conj().transpose(0, 2, 1)  # (B, T, CK)
    x_h = x.conj().transpose(0, 2, 1)  # (B, T, C)
    y = x
    for _ in range(cfg.iterations):
        lam = _powers(y, 1)  # (B, T)
        weighted = history * (1.0 / lam)[:, None, :]
        g = _prediction_filters(weighted @ history_h, weighted @ x_h, first_bin)
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

    Bins are independent, so the computation runs on the blocks of bins
    that :func:`~farfield.linalg.map_blocks` plans, each cut from the
    input and written to its bins of the output, so no whole-window copy
    is made. Within a block the correlations are batched matrix products
    and the filters come from one batched Hermitian solve
    (:func:`~farfield.linalg.solve_hermitian`), an LU solve that also
    handles indefinite matrices and gives each bin the same filter as
    solving it alone. A bin whose loaded matrix is still exactly singular
    is loaded once more and retried there.

    Raises
    ------
    ParameterError
        Fewer frames than :func:`min_frames`.
    NumericalError
        A correlation matrix stayed singular after the retry; the message
        names the frequency bin, the lowest if several bins fail.
    """
    n_frames, n_bins, n_ch = spec.values.shape
    if n_frames < min_frames(cfg, n_ch):
        raise ParameterError(
            f"{n_frames} frames are too few for taps={cfg.taps}, delay={cfg.delay}, "
            f"channels={n_ch}"
        )

    out = np.empty_like(spec.values)

    def block(lo, hi):
        x = np.ascontiguousarray(spec.values[:, lo:hi].transpose(1, 2, 0))  # (B, C, T)
        out[:, lo:hi] = _wpe_block(x, cfg, lo).transpose(2, 0, 1)

    map_blocks(block, n_bins, n_frames, _BLOCK_BIN_FRAMES)
    return ComplexSpectrogram(values=out, params=spec.params, sample_rate_hz=spec.sample_rate_hz)
