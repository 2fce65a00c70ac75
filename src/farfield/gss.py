"""Guided source separation and mask-based MVDR beamforming.

A complex angular central Gaussian mixture model (CACGMM) is fit to the
direction statistics z = x / ||x|| of a multichannel spectrogram. The
mixture has one class per speaker plus an always-active noise class;
diarization-derived activity acts as a time-varying prior that pins each
class to its speaker, which resolves the per-frequency permutation
ambiguity without any alignment step. The resulting posterior masks
drive spatial covariance estimates for a Souden-style MVDR beamformer:
each class's covariance from its own mask, its noise covariance from the
sum of the other classes', all built at once per window.

:func:`gss_enhance` plans the context windows first, then chains the
full recipe once per window: cut the window, dereverberate, fit the
mixture, then beamform and synthesize each speaker with a target segment
in the window once, and trim every target from its speaker's signal.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, NumericalError, ParameterError, check_finite, check_int
from .linalg import map_blocks, one_blas_thread, solve_hermitian
from .metrics import DiarizationSet, _covered
from .signal import (
    ComplexSpectrogram,
    StftParams,
    WaveformBuffer,
    check_finite_samples,
    istft,
    stft,
)
from .wpe import WpeConfig, min_frames, wpe

log = logging.getLogger(__name__)

_TRACE_FLOOR = 1e-10
_WEIGHT_CAP = 1e4
# a bin's EM stops once its log-likelihood gain is at most this share of
# its previous value (see _em_block)
_EM_TOLERANCE = 1e-2
_MAX_EM_ITERATIONS = 1000  # the EM trace holds cap x bins floats: 1 MiB on 129 bins
_STFT = StftParams()  # the framing of every gss_enhance analysis
# bins x frames of one EM block (see linalg.map_blocks): 129 bins on a
# 111-frame window, 14 on a 35 s one
_EM_BLOCK_BIN_FRAMES = 65536
# bins x frames of one covariance block (see _class_statistics), whose
# packed statistic holds C * C + 1 reals per bin-frame
_COV_BLOCK_BIN_FRAMES = 8192


@dataclass(frozen=True)
class ActivityPattern:
    """Per-class frame activity: S speaker rows plus a final noise row.

    Parameters
    ----------
    speakers : tuple of str
        Class labels for rows 0..S-1; row S is the noise class.
    active : ndarray of bool, shape (S + 1, frames)
        The noise row must be all true, so every frame has at least one
        active class.
    """

    speakers: tuple
    active: np.ndarray

    def __post_init__(self):
        act = np.asarray(self.active, dtype=bool)
        if act.ndim != 2 or act.shape[0] != len(self.speakers) + 1:
            raise ParameterError(
                f"active must be (speakers + 1) x frames, got {act.shape} for "
                f"{len(self.speakers)} speakers"
            )
        if not act[-1].all():
            raise ParameterError("noise class row must be active at every frame")
        object.__setattr__(self, "speakers", tuple(self.speakers))
        object.__setattr__(self, "active", act)

    @property
    def n_classes(self) -> int:
        return self.active.shape[0]

    @property
    def n_frames(self) -> int:
        return self.active.shape[1]


@dataclass(frozen=True)
class CacgmmState:
    """CACGMM parameters: one Hermitian matrix per (frequency, class).

    ``B`` has shape (bins, classes, channels, channels) with finite
    entries, every matrix trace-normalized to the channel count.
    ``log_likelihood_trace`` holds the average log-likelihood recorded at
    the start of each EM iteration, one entry per iteration up to the
    cap; a bin whose EM stopped early contributes its last value to the
    later entries. It is non-decreasing up to the covariance floor.
    """

    B: np.ndarray
    log_likelihood_trace: tuple = ()

    def __post_init__(self):
        b = np.asarray(self.B, dtype=np.complex128)
        if b.ndim != 4 or b.shape[2] != b.shape[3]:
            raise ParameterError(f"B must be (bins, classes, C, C), got {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ParameterError("B entries must be finite")
        herm = np.max(np.abs(b - np.conj(np.swapaxes(b, 2, 3))))
        scale = max(float(np.max(np.abs(b))), 1.0)
        if herm > 1e-10 * scale:
            raise ParameterError(f"B not Hermitian within tolerance: deviation {herm:.3e}")
        object.__setattr__(self, "B", b)
        object.__setattr__(
            self, "log_likelihood_trace", tuple(float(v) for v in self.log_likelihood_trace)
        )


@dataclass(frozen=True)
class MaskSet:
    """Posterior masks gamma, shape (classes, frames, bins), simplex per bin.

    Entries must be finite and lie in [0, 1].
    """

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.ndim != 3:
            raise ParameterError(f"gamma must be (classes, frames, bins), got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ParameterError("gamma entries must be finite")
        if np.any(g < 0.0) or np.any(g > 1.0 + 1e-12):
            raise ParameterError("gamma entries must lie in [0, 1]")
        if np.max(np.abs(g.sum(axis=0) - 1.0)) > 1e-9:
            raise ParameterError("gamma must sum to 1 over classes at every bin")
        object.__setattr__(self, "gamma", g)

    @property
    def n_classes(self) -> int:
        return self.gamma.shape[0]


@dataclass(frozen=True)
class BeamformerWeights:
    """MVDR solution: one complex weight vector per frequency bin."""

    w: np.ndarray  # (bins, channels)
    reference_channel: int

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.complex128)
        if w.ndim != 2:
            raise ParameterError(f"w must be (bins, channels), got {w.shape}")
        if not np.all(np.isfinite(w.view(np.float64))):
            raise ParameterError("beamformer weights must be finite")
        if not 0 <= self.reference_channel < w.shape[1]:
            raise ParameterError(
                f"reference channel {self.reference_channel} out of range"
            )
        object.__setattr__(self, "w", w)


def _outer_products(re: np.ndarray, im: np.ndarray, rows: np.ndarray) -> None:
    """Write the packed real x x^H of the bins x = re + i im, both (C,
    ...), into ``rows[:C * C]``, each row shaped like ``re[0]``.

    Row c holds |x_c|^2 for every c, then come the real and then the
    imaginary parts of x_c conj(x_d) for c < d (row-major upper triangle).
    """
    c = re.shape[0]
    n_upper = c * (c - 1) // 2
    np.square(re, out=rows[:c])
    rows[:c] += np.square(im)
    p = c
    for i in range(c - 1):  # the pairs (i, j > i), one broadcast each
        real = rows[p : p + c - 1 - i]
        imag = rows[p + n_upper : p + n_upper + c - 1 - i]
        np.multiply(re[i], re[i + 1 :], out=real)
        real += im[i] * im[i + 1 :]
        np.multiply(im[i], re[i + 1 :], out=imag)
        imag -= re[i] * im[i + 1 :]
        p += c - 1 - i


def _directions(values: np.ndarray):
    """Packed real direction statistics of the unit-normalized bins z.

    Returns an (F, T, C * C) array whose rows hold the
    :func:`_outer_products` of z, and the nonzero-norm mask (F, T).
    Zero-norm bins have all-zero rows. The array is a view of an
    (F, C * C, T) buffer, so the E-step product reads it without a copy.
    """
    x = np.transpose(values, (2, 1, 0))  # (C, F, T)
    norm = np.linalg.norm(x, axis=0)
    nonzero = norm > 0.0
    scale = np.where(nonzero, norm, 1.0)
    re = np.ascontiguousarray(x.real)
    im = np.ascontiguousarray(x.imag)
    re /= scale
    im /= scale
    c, n_bins, n_frames = re.shape
    packed = np.empty((n_bins, c * c, n_frames))
    _outer_products(re, im, np.swapaxes(packed, 0, 1))
    return np.swapaxes(packed, 1, 2), nonzero


def _pack(h: np.ndarray) -> np.ndarray:
    """Packed real (..., C * C) rows of Hermitian (..., C, C) matrices: the
    diagonal, then the real and then the imaginary parts of the upper
    triangle, the layout of :func:`_directions`."""
    row, col = np.triu_indices(h.shape[-1], 1)
    upper = h[..., row, col]
    diag = np.diagonal(h, axis1=-2, axis2=-1).real
    return np.concatenate((diag, upper.real, upper.imag), axis=-1)


def _unpack(packed: np.ndarray, c: int) -> np.ndarray:
    """Hermitian (..., C, C) matrices from packed (..., C * C) rows."""
    row, col = np.triu_indices(c, 1)
    upper = packed[..., c : c + row.size] + 1j * packed[..., c + row.size :]
    out = np.zeros(packed.shape[:-1] + (c, c), dtype=np.complex128)
    diag = np.arange(c)
    out[..., diag, diag] = packed[..., :c]
    out[..., row, col] = upper
    out[..., col, row] = upper.conj()
    return out


def _inv_logdet(b: np.ndarray):
    """Inverses and log-determinants of Hermitian positive-definite (F, K, C, C)
    matrices by one Gauss-Jordan pass without pivoting, in place on a copy.

    Elimination on a positive-definite matrix needs no pivoting: every
    pivot is a positive Schur complement. A pivot that is not positive
    and finite names the class whose covariance is not positive definite.
    """
    a = np.array(b, dtype=np.complex128)
    c = a.shape[-1]
    logdet = np.zeros(a.shape[:-2])
    for j in range(c):
        pivot = a[..., j, j].real
        bad = ~((pivot > 0.0) & np.isfinite(pivot))
        if np.any(bad):
            k = int(np.argmax(bad.any(axis=0)))
            raise NumericalError(f"class {k} covariance is not positive definite")
        logdet += np.log(pivot)
        row = a[..., j, :] / pivot[..., None]
        row[..., j] = 1.0 / pivot
        col = a[..., :, j].copy()
        col[..., j] = 0.0
        a[..., :, j] = 0.0
        a -= col[..., :, None] * row[..., None, :]
        a[..., j, :] = row
    return a, logdet


def _e_step(packed: np.ndarray, b: np.ndarray, active: np.ndarray, nonzero: np.ndarray):
    """One E-step: masks (bins, classes, frames) that are exact zeros for
    inactive classes and uniform over the active ones at zero-norm bins,
    their log-normalizer log sum_k 1[active] exp(log density) over (bins,
    frames), and the quadratic forms z^H B^{-1} z (bins, classes, frames).

    With A = B^{-1} Hermitian, z^H A z = sum_c A_cc |z_c|^2 + sum_{c<d}
    2 Re(A_cd) Re(z_c conj(z_d)) + 2 Im(A_cd) Im(z_c conj(z_d)), so the
    quadratic forms of every class are one real product of the packed
    inverses, off-diagonal entries doubled, with the packed statistics of
    :func:`_directions`.
    """
    c = b.shape[-1]
    binv, logdet = _inv_logdet(b)
    coef = _pack(binv)
    coef[:, :, c:] *= 2.0
    quad = coef @ np.swapaxes(packed, 1, 2)  # (F, K, T)
    np.maximum(quad, 1e-30, out=quad)  # exact arithmetic guarantees q >= 1/C
    gamma = np.log(quad)
    gamma *= -c
    gamma -= logdet[:, :, None]
    gamma += np.where(active, 0.0, -np.inf)
    top = np.max(gamma, axis=1)
    gamma -= top[:, None, :]
    np.exp(gamma, out=gamma)
    total = gamma.sum(axis=1)
    gamma /= total[:, None, :]
    # zero-norm bins carry no direction information: uniform over active
    np.copyto(gamma, active / active.sum(axis=0), where=~nonzero[:, None, :])
    return gamma, top + np.log(total), quad


def cacgmm_posteriors(
    spec: ComplexSpectrogram, activity: ActivityPattern, state: CacgmmState
) -> MaskSet:
    """E-step: posterior class masks for every time-frequency bin.

    The unnormalized posterior of class k at bin (t, f) is
    1[active(k, t)] * det(B_{f,k})^{-1} * (z^H B_{f,k}^{-1} z)^{-C} with
    z the unit-normalized observation. Bins with zero norm receive the
    uniform posterior over the classes active at their frame.

    Raises
    ------
    NumericalError
        A covariance in ``state`` is not positive definite; the message
        names its class.
    """
    _check_alignment(spec, activity)
    if state.B.shape[:3] != (spec.bins, activity.n_classes, spec.channels):
        raise ParameterError(
            f"state B shape {state.B.shape} inconsistent with {spec.bins} bins, "
            f"{activity.n_classes} classes and {spec.channels} channels"
        )
    packed, nonzero = _directions(spec.values)
    gamma = _e_step(packed, state.B, activity.active, nonzero)[0]
    return MaskSet(gamma=np.ascontiguousarray(gamma.transpose(1, 2, 0)))


def _check_alignment(spec, activity):
    if activity.n_frames != spec.frames:
        raise ParameterError(
            f"activity covers {activity.n_frames} frames, spectrogram has {spec.frames}"
        )


def _em_block(values, act, iterations, masks):
    """The EM on one block of bins, each bin stopped on its own.

    The block builds its own direction statistics from its (frames,
    bins, channels) slice ``values`` and holds the only reference to
    them, so compacting them to the live bins frees the full-size array.
    Every covariance starts at B = I, where all classes have the same
    density, so the first E-step is closed form: its masks are the
    activity prior, uniform over the classes active at each frame, its
    quadratic forms z^H z are 1 and its log-likelihood is 0. The first
    M-step weighs the statistics by the prior alone.

    After every later E-step a bin's log-likelihood is the sum, over its
    nonzero-norm frames, of the log-normalizer plus the log-prior: its
    log-likelihood ratio against the isotropic model B = I. A bin stops
    once its latest gain is at most ``_EM_TOLERANCE`` times the absolute
    previous value, or at the E-step after ``iterations`` M-steps; the
    first test, against 0, stops only a bin whose first M-step gained
    nothing. A stopped bin keeps its covariances and the masks of that
    E-step, written into its columns of ``masks`` (classes, frames,
    bins). The live bins are compacted only when some bin stops.

    Returns the final covariances, the (iterations, bins)
    log-likelihoods of the first ``iterations`` E-steps, where a bin
    that stopped carries its last value, and the count of nonzero-norm
    time-frequency bins.
    """
    packed, nonzero = _directions(values)
    n_dirs = int(nonzero.sum())
    _, n_bins, n_ch = values.shape
    eps_b = 1e-10 * n_ch
    eye = np.eye(n_ch)
    ever_active = act.any(axis=1)
    # uniform prior over the active classes; zero-norm bins have no
    # direction and no likelihood term
    log_prior = -np.log(act.sum(axis=0).astype(np.float64))
    shape = (n_bins, act.shape[0], n_ch, n_ch)
    b = np.broadcast_to(eye.astype(np.complex128), shape).copy()
    final_b = np.empty_like(b)
    lls = np.zeros((iterations, n_bins))
    prev = np.zeros(n_bins)
    stats = np.swapaxes(packed, 1, 2)  # the contiguous (F, C * C, T) buffer
    live = np.arange(n_bins)
    # the weights of the first M-step, C-ordered like the E-step's (a
    # layout that follows nonzero's strides would change the product's
    # bits with the block size)
    gamma = np.zeros((n_bins,) + act.shape)  # (F, K, T)
    np.copyto(gamma, act / act.sum(axis=0), where=nonzero[:, None, :])
    denom = gamma.sum(axis=2)  # (F, K)
    for it in range(1, iterations + 1):
        numer = _unpack(gamma @ packed, n_ch)
        del gamma  # free it before the E-step allocates its own
        ok = (denom > 0.0) & ever_active
        new = b.copy()
        new[ok] = n_ch * numer[ok] / denom[ok][:, None, None]
        tr = np.trace(new, axis1=2, axis2=3).real
        tr = np.where(tr > 0.0, tr, 1.0)
        new = new * (n_ch / tr)[:, :, None, None] + eps_b * eye
        # never-active classes keep B = I; their masks stay zero
        b = np.where(ever_active[None, :, None, None], new, b)
        gamma, log_norm, quad = _e_step(packed, b, act, nonzero)
        ll = np.sum(np.where(nonzero, log_norm + log_prior, 0.0), axis=1)
        lls[it:, live] = ll
        stop = (ll - prev <= _EM_TOLERANCE * np.abs(prev)) | (it == iterations)
        if np.any(stop):
            masks[:, :, live[stop]] = gamma[stop].transpose(1, 2, 0)
            final_b[live[stop]] = b[stop]
            keep = ~stop
            if not np.any(keep):
                break
            # one array at a time, so each full-size one is freed before
            # the next copy is made
            live, b, ll, nonzero = live[keep], b[keep], ll[keep], nonzero[keep]
            gamma = gamma[keep]
            quad = quad[keep]
            stats = stats[keep]
            packed = np.swapaxes(stats, 1, 2)
        prev = ll
        gamma *= nonzero[:, None, :]  # zero-norm bins carry no statistics
        denom = gamma.sum(axis=2)
        gamma /= quad
        del log_norm, quad
    return final_b, lls, n_dirs


def fit_cacgmm(
    spec: ComplexSpectrogram,
    activity: ActivityPattern,
    iterations: int = 20,
) -> tuple:
    """EM fit of the activity-guided CACGMM.

    Every covariance starts at B = I. All classes then have the same
    density, so the first E-step is closed form and reads no data: the
    masks are the activity prior itself, uniform over the classes active
    at each frame, every quadratic form z^H z is 1 and the
    log-likelihood is 0. The first M-step fits each class from its own
    activity (the activity-based start of guided source separation).
    Each M-step re-estimates B from the posterior-weighted direction
    statistics, trace-normalizes to the channel count, and adds
    1e-10 * C to the diagonal. Classes whose
    activity rows are equal over the whole window get equal masks at
    every E-step, so they stay equal: the activity cannot tell them
    apart, and neither can the fit.

    ``iterations`` is a cap. Each bin stops on its own, once the gain of
    its log-likelihood over the previous E-step is at most 1e-2 of the
    previous value's magnitude, after at least one M-step. A bin's
    log-likelihood is the sum, over its nonzero-norm frames, of the
    log-normalizer and the log-prior: its log-likelihood ratio against
    the isotropic model B = I, near 0 while the classes are not yet
    separated. A stopped bin keeps its covariances and the masks of the
    E-step that stopped it; a bin that never stops runs ``iterations``
    M-steps and a final E-step (Dempster, Laird and Rubin, 1977, for the
    convergence of EM).

    The EM runs in real arithmetic, with every per-class array in one
    (bins, classes, frames) layout. The direction statistics z z^H are
    packed once as C * C real numbers per bin: |z_c|^2, then the real
    and imaginary parts of z_c conj(z_d) for c < d. One E-step, shared
    with :func:`cacgmm_posteriors`, inverts every B and takes its log
    determinant in one Gauss-Jordan pass, and gives the quadratic forms
    z^H B^{-1} z of every class as one real product of the packed
    inverses with the packed statistics, the masks, and their
    log-normalizer, from which the log-likelihood entry is taken. The
    M-step numerators of every class are one real product of the
    weights with the packed statistics, unpacked into Hermitian
    matrices.

    Bins are independent, so the EM runs on the blocks of bins that
    :func:`~farfield.linalg.map_blocks` plans. A block builds its own
    direction statistics, runs until its last bin stops, and writes its
    bins of the (classes, frames, bins) masks. The stop is decided per
    bin, so B, the masks and the trace are the same bits for any block
    size and worker count. Each trace entry is the bins'
    log-likelihoods, summed in bin order, over the count of nonzero-norm
    bins; a sum of non-decreasing sequences is non-decreasing.

    Returns
    -------
    (CacgmmState, MaskSet)
        Final parameters with one average log-likelihood entry per
        iteration up to the cap, and the masks of the E-step at which
        each bin stopped.

    Raises
    ------
    ParameterError
        ``iterations`` is not an integer from 1 to 1000.
    NumericalError
        A covariance is not positive definite; the message names its
        class, from the lowest block of bins where one fails.
    """
    check_int("iterations", iterations, 1, _MAX_EM_ITERATIONS)
    _check_alignment(spec, activity)
    _, n_bins, n_ch = spec.values.shape
    act = activity.active
    n_frames = activity.n_frames
    masks = np.empty((activity.n_classes, n_frames, n_bins))

    def block(lo, hi):
        return _em_block(spec.values[:, lo:hi], act, iterations, masks[:, :, lo:hi])

    results = map_blocks(block, n_bins, n_frames, _EM_BLOCK_BIN_FRAMES)
    b = np.concatenate([r[0] for r in results])
    lls = np.concatenate([r[1] for r in results], axis=1)
    # the density's constant, outside the per-bin sums
    const = math.lgamma(n_ch) - n_ch * np.log(np.pi) - np.log(2.0)
    n_dirs = max(sum(r[2] for r in results), 1)
    trace = lls.sum(axis=1) / n_dirs + const
    return CacgmmState(B=b, log_likelihood_trace=tuple(trace)), MaskSet(gamma=masks)


def _class_statistics(values: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Every class's weighted covariance numerator and weight total.

    ``values`` is a (frames, bins, channels) spectrogram and ``gamma``
    the (classes, frames, bins) weights. Returns (bins, classes, C * C +
    1) rows: the packed sum over frames of gamma_k x x^H, in the layout
    of :func:`_outer_products`, then the sum over frames of gamma_k.

    Bins are independent, so the work runs on the blocks of bins that
    :func:`~farfield.linalg.map_blocks` plans. A block packs the
    unnormalized x x^H of its bins with a final row of ones, and one real
    product of its (bins, classes, frames) weights with that statistic
    gives every class's numerator and total at once. The bits depend on
    neither the block size nor the worker count.
    """
    n_frames, n_bins, n_ch = values.shape
    out = np.empty((n_bins, gamma.shape[0], n_ch * n_ch + 1))

    def block(lo, hi):
        # the interleaved real and imaginary parts, (2 C, B, T) in one copy
        parts = np.ascontiguousarray(values[:, lo:hi].view(np.float64).transpose(2, 1, 0))
        packed = np.empty((hi - lo, n_ch * n_ch + 1, n_frames))
        _outer_products(parts[0::2], parts[1::2], np.swapaxes(packed, 0, 1))
        packed[:, -1] = 1.0
        weights = np.ascontiguousarray(gamma[:, :, lo:hi].transpose(2, 0, 1))  # (B, K, T)
        np.matmul(weights, np.swapaxes(packed, 1, 2), out=out[lo:hi])

    map_blocks(block, n_bins, n_frames, _COV_BLOCK_BIN_FRAMES)
    return out


def _covariance(stats: np.ndarray) -> np.ndarray:
    """(..., C, C) covariances from (..., C * C + 1) rows of
    :func:`_class_statistics`: the numerators over their totals.

    Raises
    ------
    ParameterError
        A weight total is zero in at least one frequency bin.
    """
    if np.any(stats[..., -1] <= 0.0):
        raise ParameterError("weights sum to zero in at least one frequency bin")
    n_ch = math.isqrt(stats.shape[-1] - 1)
    return _unpack(stats[..., :-1] / stats[..., -1:], n_ch)


def _target_and_noise(stats: np.ndarray, k: int) -> tuple:
    """Target and noise covariances of class ``k`` from
    :func:`_class_statistics`.

    The target covariance is the class's numerator over its total; the
    noise covariance is the sum of the other classes' numerators over
    the sum of their totals. Masks sum to 1 over the classes, so that is
    the 1 - gamma_k weighting, but as a sum of positive semidefinite
    terms it cannot cancel into an indefinite matrix where class ``k``
    holds nearly all of a bin. Either weight total being zero in a bin
    is a :class:`ParameterError`.
    """
    pair = np.stack((stats[:, k], np.delete(stats, k, axis=1).sum(axis=1)), axis=1)
    phi = _covariance(pair)
    return phi[:, 0], phi[:, 1]


def spatial_covariance(spec: ComplexSpectrogram, weights: np.ndarray) -> np.ndarray:
    """Mask-weighted spatial covariance matrices, one per frequency.

    Computed by the blocked product of :func:`_class_statistics`, with
    the weights as its one class.

    Parameters
    ----------
    weights : ndarray, shape (frames, bins)
        Nonnegative finite bin weights, typically a posterior mask.

    Returns
    -------
    ndarray, shape (bins, channels, channels)
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (spec.frames, spec.bins):
        raise ParameterError(
            f"weights shape {w.shape} does not match (frames, bins)"
        )
    if not np.all(np.isfinite(w)):
        raise ParameterError("weights must be finite")
    return _covariance(_class_statistics(spec.values, w[None])[:, 0])


def select_reference_channel(phi_ss: np.ndarray, phi_nn: np.ndarray) -> int:
    """Channel with the best aggregate target-to-noise power ratio.

    Scores channel c by sum over f of Phi_ss[f, c, c] / (Phi_nn[f, c, c]
    + 1e-10); ties resolve to the lowest index.
    """
    ss = np.asarray(phi_ss)
    nn = np.asarray(phi_nn)
    if ss.shape != nn.shape or ss.ndim != 3 or ss.shape[1] != ss.shape[2]:
        raise ParameterError(f"covariance stacks must match, got {ss.shape} and {nn.shape}")
    diag_ss = np.einsum("fcc->fc", ss).real
    diag_nn = np.einsum("fcc->fc", nn).real
    scores = np.sum(diag_ss / (diag_nn + _TRACE_FLOOR), axis=0)
    return int(np.argmax(scores))


def mvdr_weights(phi_ss: np.ndarray, phi_nn: np.ndarray) -> BeamformerWeights:
    """Souden MVDR weights from target and noise covariances.

    w_f = (Phi_nn^{-1} Phi_ss u_ref) / max(trace(Phi_nn^{-1} Phi_ss), eps),
    for all bins in one :func:`~farfield.linalg.solve_hermitian`, with the
    reference channel ref chosen by :func:`select_reference_channel`. An
    exactly singular noise covariance is loaded once and retried there.
    Weight vectors longer than 1e4 are rescaled onto that length.
    """
    ss = np.asarray(phi_ss, dtype=np.complex128)
    nn = np.asarray(phi_nn, dtype=np.complex128)
    if ss.shape != nn.shape or ss.ndim != 3:
        raise ParameterError(f"covariance stacks must match, got {ss.shape} and {nn.shape}")
    ref = select_reference_channel(ss, nn)

    numer = solve_hermitian(nn, ss, range(len(nn)), "noise covariance")
    trace = np.maximum(np.trace(numer, axis1=1, axis2=2).real, _TRACE_FLOOR)
    w = numer[:, :, ref] / trace[:, None]

    norms = np.linalg.norm(w, axis=1)
    over = norms > _WEIGHT_CAP
    if np.any(over):
        w[over] *= (_WEIGHT_CAP / norms[over])[:, None]
    return BeamformerWeights(w=w, reference_channel=ref)


def mvdr_beamform(
    spec: ComplexSpectrogram, masks: MaskSet, target_class: int
) -> ComplexSpectrogram:
    """Beamform one class of a masked mixture down to a single channel.

    The target covariance is weighted by the class mask; the noise
    covariance is the sum of the other classes' covariance numerators
    over the sum of their weights, which is the complement 1 - gamma
    (see :func:`_target_and_noise`). Both come from one
    :func:`_class_statistics` product, the one
    :func:`gss_enhance` takes once per window. The Souden MVDR weights of
    :func:`mvdr_weights` are then applied: y(t, f) = w_f^H x(t, f).

    Raises
    ------
    ParameterError
        ``target_class`` is not a class of ``masks``, the masks do not
        match the grid, or the class or its complement has zero weight in
        a frequency bin.
    """
    if masks.gamma.shape[1:] != (spec.frames, spec.bins):
        raise ParameterError("masks do not match the spectrogram grid")
    check_int("target_class", target_class, 0)
    if target_class >= masks.n_classes:
        raise ParameterError(
            f"target_class must be < {masks.n_classes} classes, got {target_class}"
        )
    stats = _class_statistics(spec.values, masks.gamma)
    return _beamform(spec, *_target_and_noise(stats, target_class))


def _beamform(spec: ComplexSpectrogram, phi_ss: np.ndarray, phi_nn: np.ndarray):
    """The single-channel projection y = w^H x by the MVDR weights of
    :func:`mvdr_weights` for these covariances."""
    weights = mvdr_weights(phi_ss, phi_nn)
    y = np.einsum("fc,tfc->tf", np.conj(weights.w), spec.values)
    return replace(spec, values=y[:, :, None])


@dataclass(frozen=True)
class GssConfig:
    """Settings for the end-to-end enhancement recipe of :func:`gss_enhance`.

    ``em_iterations`` (at most 1000) caps the EM iterations of each bin
    of a mixture fit; a bin stops earlier once its log-likelihood has
    converged (see :func:`fit_cacgmm`). The fit starts from the activity,
    so nothing in the recipe is random.
    """

    wpe: WpeConfig | None = WpeConfig()
    em_iterations: int = 20
    context_s: float = 15.0

    def __post_init__(self):
        check_int("em_iterations", self.em_iterations, 1, _MAX_EM_ITERATIONS)
        check_finite("context_s", self.context_s)
        if self.context_s < 0:
            raise ParameterError("context_s must be >= 0")


def eligible_segments(segments: DiarizationSet, n_samples: int, sample_rate_hz: int) -> list:
    """Segments that enhancement will produce output for, in time order.

    Segments extending outside the file raise a data error; segments
    shorter than one analysis frame are dropped with a warning, and of
    the segments of one speaker whose bounds round to the same
    milliseconds only the first in time order is kept, so each output
    name ``<speaker>/<start_ms>-<end_ms>`` has one segment. The returned
    list of distinct (speaker, start_s, end_s) tuples gives the keys, in
    order, of the dict :func:`gss_enhance` returns.
    """
    sessions = {s.session for s in segments.segments}
    if len(sessions) > 1:
        raise ParameterError(f"segments span multiple sessions: {sorted(sessions)}")
    duration = n_samples / sample_rate_hz
    kept = {}  # (speaker, start_ms, end_ms) -> (speaker, start_s, end_s)
    for seg in sorted(segments.segments, key=lambda s: (s.start_s, s.end_s, s.speaker)):
        if seg.start_s < 0 or seg.end_s > duration + 1e-9:
            raise DataError(
                f"segment {seg.speaker} [{seg.start_s}, {seg.end_s}] outside the "
                f"{duration:.3f} s file"
            )
        if (seg.end_s - seg.start_s) * sample_rate_hz < _STFT.frame_length:
            log.warning(
                "skipping segment %s [%.3f, %.3f]: shorter than one frame",
                seg.speaker,
                seg.start_s,
                seg.end_s,
            )
            continue
        key = (seg.speaker, int(round(seg.start_s * 1000)), int(round(seg.end_s * 1000)))
        kept.setdefault(key, (seg.speaker, seg.start_s, seg.end_s))
    return list(kept.values())


def _plan_windows(wav: WaveformBuffer, segments: DiarizationSet, todo: list, cfg: GssConfig):
    """The analysis windows of :func:`gss_enhance`, in first-target order.

    A target's window is its segment plus ``cfg.context_s`` each side,
    clipped to the file; targets whose windows round to the same sample
    bounds share one. Every window is checked against the frames WPE
    needs before any is analysed. Its activity pattern has a row per
    speaker with a segment overlapping the window, in sorted order, and
    marks each frame that overlaps one of that speaker's segments,
    measured from the window's start in seconds: with the frames'
    sample spans sorted, a segment covers the range from the first frame
    ending after its start to the last starting before its end, and
    every speaker's ranges and the all-active noise row are marked at
    once by ``metrics._covered``.

    Returns a list of (lo, hi, activity, targets): the window's sample
    bounds, its :class:`ActivityPattern`, and a dict from each speaker
    with a target in the window to the indices of its targets in
    ``todo``, both in ``todo`` order.
    """
    rate = wav.sample_rate_hz
    need = 0 if cfg.wpe is None else min_frames(cfg.wpe, wav.channels)
    # (lo, hi) -> (window start s, window end s, {speaker: target indices})
    bounds: dict = {}
    for i, (speaker, start_s, end_s) in enumerate(todo):
        win_start = max(0.0, start_s - cfg.context_s)
        win_end = min(wav.n_samples / rate, end_s + cfg.context_s)
        key = (int(round(win_start * rate)), int(round(win_end * rate)))
        frames = _STFT.n_frames(key[1] - key[0])
        if frames < need:  # the window's first target comes first in todo
            raise DataError(
                f"segment {speaker} [{start_s}, {end_s}]: its context window has "
                f"{frames} frames, fewer than the {need} that WPE needs with "
                f"taps={cfg.wpe.taps}, delay={cfg.wpe.delay}, channels={wav.channels}"
            )
        bounds.setdefault(key, (win_start, win_end, {}))[2].setdefault(speaker, []).append(i)

    windows = []
    for (lo, hi), (win_start, win_end, targets) in bounds.items():
        overlapping = [s for s in segments.segments if s.end_s > win_start and s.start_s < win_end]
        speakers = sorted({s.speaker for s in overlapping})
        row = {speaker: k for k, speaker in enumerate(speakers)}
        n_frames = _STFT.n_frames(hi - lo)
        starts = np.arange(n_frames) * _STFT.frame_shift - _STFT.edge_padding
        ends = starts + _STFT.frame_length
        bounds_s = np.array([(s.start_s, s.end_s) for s in overlapping], dtype=np.float64)
        a, b = ((bounds_s.reshape(-1, 2) - win_start) * rate).T
        # frames with ends > a and starts < b; the noise row covers [0, n_frames)
        rows = np.array([row[s.speaker] for s in overlapping] + [len(speakers)], dtype=np.intp)
        first = np.append(np.searchsorted(ends, a, "right"), 0)
        stop = np.append(np.searchsorted(starts, b, "left"), n_frames)
        active = _covered(rows, first, stop, len(speakers) + 1, n_frames)
        windows.append((lo, hi, ActivityPattern(tuple(speakers), active), targets))
    return windows


@one_blas_thread
def gss_enhance(wav: WaveformBuffer, segments: DiarizationSet, cfg: GssConfig) -> dict:
    """Enhance every diarized segment of a session recording.

    Each target segment's context window is the segment plus
    ``cfg.context_s`` each side, clipped to the file. Every window is
    planned, and checked against the frames WPE needs, before any is
    analysed. Targets whose windows have the same sample bounds share one
    analysis: the window is cut, transformed and dereverberated once, the
    activity pattern is built from all segments overlapping it, and one
    guided mixture model is fit, started from the activity (see
    :func:`fit_cacgmm`). Every class's covariance statistics are then
    taken from the masks in one blocked product per window (see
    :func:`mvdr_beamform`). Each speaker with a target in the window is
    beamformed as its own class, its noise covariance the sum of the
    other classes', and synthesized once, and each of its targets is
    trimmed from that signal. Every target gets the same bytes as when
    its window is analysed for it alone.

    Returns
    -------
    dict
        (speaker, start_s, end_s) -> mono WaveformBuffer, one entry per
        distinct segment, keyed and ordered as :func:`eligible_segments`
        returns them.

    Raises
    ------
    DataError
        The recording has fewer than 2 channels (the mixture model
        separates by direction and one channel has none), a NaN or
        infinite sample, named by channel and sample index, a segment
        outside the recording, or a context window with fewer frames than
        WPE needs, named by its first target.
    """
    if wav.channels < 2:
        raise DataError(
            f"guided source separation needs at least 2 channels, got {wav.channels}"
        )
    check_finite_samples(wav.samples, "recording")
    rate = wav.sample_rate_hz
    todo = eligible_segments(segments, wav.n_samples, rate)
    pieces = [None] * len(todo)
    for lo, hi, activity, targets in _plan_windows(wav, segments, todo, cfg):
        spec = stft(WaveformBuffer(wav.samples[:, lo:hi], rate), _STFT)
        if cfg.wpe is not None:
            spec = wpe(spec, cfg.wpe)
        _, masks = fit_cacgmm(spec, activity, cfg.em_iterations)
        stats = _class_statistics(spec.values, masks.gamma)
        for speaker, indices in targets.items():
            covariances = _target_and_noise(stats, activity.speakers.index(speaker))
            enhanced = _beamform(spec, *covariances)
            audio = istft(enhanced, hi - lo).samples
            for i in indices:
                a, b = (int(round(t * rate)) - lo for t in todo[i][1:])
                # a copy, so outputs of one speaker never share memory
                pieces[i] = WaveformBuffer(audio[:, a:b].copy(), rate)
    return dict(zip(todo, pieces))
