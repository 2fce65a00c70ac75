"""Guided source separation and mask-based MVDR beamforming.

A complex angular central Gaussian mixture model (CACGMM) is fit to the
direction statistics z = x / ||x|| of a multichannel spectrogram. The
mixture has one class per speaker plus an always-active noise class;
diarization-derived activity acts as a time-varying prior that pins each
class to its speaker, which resolves the per-frequency permutation
ambiguity without any alignment step. The resulting posterior masks
drive spatial covariance estimates for a Souden-style MVDR beamformer.

:func:`gss_enhance` chains the full recipe once per context window:
cut the window, dereverberate, fit the mixture, then beamform each
target segment in the window as its own class and return the trimmed
time-domain estimates.
"""

from __future__ import annotations

import logging
import math
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DataError, NumericalError, ParameterError, RangeError, check_finite, check_int
)
from .linalg import solve_hermitian
from .metrics import DiarizationSet
from .signal import (
    ComplexSpectrogram,
    StftParams,
    WaveformBuffer,
    check_finite_samples,
    istft,
    stft,
)
from .wpe import WpeConfig, wpe

log = logging.getLogger(__name__)

_TRACE_FLOOR = 1e-10
_INIT_JITTER = 1e-3
_LOADING_STEP = 1e-6


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

    def class_index(self, speaker: str) -> int:
        try:
            return self.speakers.index(speaker)
        except ValueError:
            raise ParameterError(f"unknown speaker {speaker!r}") from None


@dataclass(frozen=True)
class CacgmmState:
    """CACGMM parameters: one Hermitian matrix per (frequency, class).

    ``B`` has shape (bins, classes, channels, channels), every matrix
    trace-normalized to the channel count. ``log_likelihood_trace``
    holds the average log-likelihood recorded at the start of each EM
    iteration; it is non-decreasing up to the covariance floor.
    """

    B: np.ndarray
    log_likelihood_trace: tuple = ()

    def __post_init__(self):
        b = np.asarray(self.B, dtype=np.complex128)
        if b.ndim != 4 or b.shape[2] != b.shape[3]:
            raise ParameterError(f"B must be (bins, classes, C, C), got {b.shape}")
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
    """Posterior masks gamma, shape (classes, frames, bins), simplex per bin."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.ndim != 3:
            raise ParameterError(f"gamma must be (classes, frames, bins), got {g.shape}")
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


def _directions(values: np.ndarray):
    """Outer products z z^H of the unit-normalized bins, (F, T, C * C) with
    entry c * C + d = z_c conj(z_d), and the nonzero-norm mask (F, T)."""
    x = np.transpose(values, (1, 0, 2))  # (F, T, C)
    norm = np.linalg.norm(x, axis=2)
    nonzero = norm > 0.0
    z = np.where(nonzero[:, :, None], x / np.where(nonzero, norm, 1.0)[:, :, None], 0.0)
    outer = z[:, :, :, None] * z[:, :, None, :].conj()
    return outer.reshape(z.shape[0], z.shape[1], -1), nonzero


def _e_step(outer: np.ndarray, b: np.ndarray, active: np.ndarray, nonzero: np.ndarray):
    """One E-step: masks (bins, classes, frames) that are exact zeros for
    inactive classes and uniform over the active ones at zero-norm bins,
    their log-normalizer log sum_k 1[active] exp(log density) over (bins,
    frames), and the quadratic forms z^H B^{-1} z (bins, classes, frames)."""
    n_bins, n_classes, c, _ = b.shape
    sign, logdet = np.linalg.slogdet(b)  # (F, K)
    bad = (sign.real <= 0) | ~np.isfinite(logdet)
    if np.any(bad):
        k = int(np.argmax(bad.any(axis=0)))
        raise NumericalError(f"class {k} covariance is not positive definite")
    binv_conj = np.linalg.inv(b).conj().reshape(n_bins, n_classes, c * c)
    # sum_cd conj(B^-1_cd) z_c conj(z_d) = conj(z^H B^-1 z): same real part
    quad = (binv_conj @ np.swapaxes(outer, 1, 2)).real
    quad = np.maximum(quad, 1e-30)  # exact arithmetic guarantees q >= 1/C
    logits = np.where(active, -logdet[:, :, None] - c * np.log(quad), -np.inf)
    top = np.max(logits, axis=1)
    stable = np.exp(logits - top[:, None, :])
    total = stable.sum(axis=1)
    gamma = stable / total[:, None, :]
    # zero-norm bins carry no direction information: uniform over active
    uniform = active / active.sum(axis=0)
    gamma = np.where(nonzero[:, None, :], gamma, uniform)
    return gamma, top + np.log(total), quad


def cacgmm_posteriors(
    spec: ComplexSpectrogram, activity: ActivityPattern, state: CacgmmState
) -> MaskSet:
    """E-step: posterior class masks for every time-frequency bin.

    The unnormalized posterior of class k at bin (t, f) is
    1[active(k, t)] * det(B_{f,k})^{-1} * (z^H B_{f,k}^{-1} z)^{-C} with
    z the unit-normalized observation. Bins with zero norm receive the
    uniform posterior over the classes active at their frame.
    """
    _check_alignment(spec, activity)
    if state.B.shape[:3] != (spec.bins, activity.n_classes, spec.channels):
        raise ParameterError(
            f"state B shape {state.B.shape} inconsistent with {spec.bins} bins, "
            f"{activity.n_classes} classes and {spec.channels} channels"
        )
    outer, nonzero = _directions(spec.values)
    gamma = _e_step(outer, state.B, activity.active, nonzero)[0]
    return MaskSet(gamma=np.ascontiguousarray(gamma.transpose(1, 2, 0)))


def _check_alignment(spec, activity):
    if activity.n_frames != spec.frames:
        raise ParameterError(
            f"activity covers {activity.n_frames} frames, spectrogram has {spec.frames}"
        )


def fit_cacgmm(
    spec: ComplexSpectrogram,
    activity: ActivityPattern,
    iterations: int = 20,
    seed: int = 0,
) -> tuple:
    """EM fit of the activity-guided CACGMM.

    Covariances start at the identity plus a small seeded Hermitian
    perturbation (scale 1e-3) that breaks the symmetry between classes
    whose activity rows coincide; with exact identity for every class
    the EM would start in a stationary point and never separate them.
    Each M-step re-estimates B from the posterior-weighted direction
    statistics, trace-normalizes to the channel count, and adds
    1e-10 * C to the diagonal.

    Every per-class array is kept in one (bins, classes, frames) layout.
    The direction outer products z z^H are formed once; one E-step, shared
    with :func:`cacgmm_posteriors`, gives the quadratic forms z^H B^{-1} z
    of every class as one batched product with the conjugated inverses,
    the masks, and their log-normalizer, from which the log-likelihood
    entry is taken. The M-step numerators of every class are one batched
    product of the weights with the outer products. The masks of the
    final E-step are rearranged to (classes, frames, bins) once.

    Returns
    -------
    (CacgmmState, MaskSet)
        Final parameters with one average log-likelihood entry per
        iteration, and the masks of a final E-step under them.
    """
    if iterations < 1:
        raise ParameterError(f"iterations must be >= 1, got {iterations}")
    _check_alignment(spec, activity)
    _, n_bins, n_ch = spec.values.shape
    eps_b = 1e-10 * n_ch

    rng = np.random.default_rng(seed)
    shape = (n_bins, activity.n_classes, n_ch, n_ch)
    jitter = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    jitter = jitter @ np.conj(np.swapaxes(jitter, 2, 3))
    jitter *= n_ch / np.trace(jitter, axis1=2, axis2=3).real[:, :, None, None]
    eye = np.eye(n_ch)
    b = (1.0 - _INIT_JITTER) * eye[None, None] + _INIT_JITTER * jitter

    outer, nonzero = _directions(spec.values)
    act = activity.active
    ever_active = act.any(axis=1)
    # uniform prior over the active classes, plus the density's constant;
    # zero-norm bins have no direction and no likelihood term
    log_prior = -np.log(act.sum(axis=0).astype(np.float64))
    const = math.lgamma(n_ch) - n_ch * np.log(np.pi) - np.log(2.0)
    n_dirs = max(int(nonzero.sum()), 1)
    trace = []

    for _ in range(iterations):
        gamma, log_norm, quad = _e_step(outer, b, act, nonzero)
        trace.append(float(np.sum((log_norm + log_prior)[nonzero]) / n_dirs + const))
        weights = gamma * nonzero[:, None, :]  # zero-norm bins carry no statistics
        denom = weights.sum(axis=2)  # (F, K)
        numer = ((weights / quad) @ outer).reshape(b.shape)
        ok = (denom > 0.0) & ever_active
        new = b.copy()
        new[ok] = n_ch * numer[ok] / denom[ok][:, None, None]
        new = 0.5 * (new + np.conj(np.swapaxes(new, 2, 3)))
        tr = np.trace(new, axis1=2, axis2=3).real
        tr = np.where(tr > 0.0, tr, 1.0)
        new = new * (n_ch / tr)[:, :, None, None] + eps_b * eye
        # never-active classes keep their initial covariance; masks stay zero
        b = np.where(ever_active[None, :, None, None], new, b)

    gamma = np.ascontiguousarray(_e_step(outer, b, act, nonzero)[0].transpose(1, 2, 0))
    return CacgmmState(B=b, log_likelihood_trace=tuple(trace)), MaskSet(gamma=gamma)


def spatial_covariance(spec: ComplexSpectrogram, weights: np.ndarray) -> np.ndarray:
    """Mask-weighted spatial covariance matrices, one per frequency.

    Parameters
    ----------
    weights : ndarray, shape (frames, bins)
        Nonnegative bin weights, typically a posterior mask.

    Returns
    -------
    ndarray, shape (bins, channels, channels)
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (spec.frames, spec.bins):
        raise ParameterError(
            f"weights shape {w.shape} does not match (frames, bins)"
        )
    totals = w.sum(axis=0)
    if np.any(totals <= 0.0):
        raise ParameterError("weights sum to zero in at least one frequency bin")
    x = np.transpose(spec.values, (1, 2, 0))  # (F, C, T)
    phi = (x * w.T[:, None, :]) @ x.conj().transpose(0, 2, 1)
    return phi / totals[:, None, None]


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


def _loaded_solve(f: int, nn_f: np.ndarray, ss_f: np.ndarray) -> np.ndarray:
    """Per-bin MVDR solve; a singular noise covariance is loaded and retried."""
    try:
        return np.linalg.solve(nn_f, ss_f)
    except np.linalg.LinAlgError:
        n_ch = nn_f.shape[0]
        load = max(_LOADING_STEP * nn_f.trace().real / n_ch, _TRACE_FLOOR)
        try:
            return np.linalg.solve(nn_f + load * np.eye(n_ch), ss_f)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"noise covariance singular in frequency bin {f}") from exc


def mvdr_weights(
    phi_ss: np.ndarray,
    phi_nn: np.ndarray,
    reference_channel: int | None = None,
    weight_cap: float = 1e4,
) -> BeamformerWeights:
    """Souden MVDR weights from target and noise covariances.

    w_f = (Phi_nn^{-1} Phi_ss u_ref) / max(trace(Phi_nn^{-1} Phi_ss), eps),
    for all bins in one batched Hermitian solve. If a noise covariance is
    exactly singular, the bins are solved one by one instead, and a
    singular one is diagonally loaded once and retried; if it stays
    singular a numerical error names the bin. Weight vectors longer than
    ``weight_cap`` are rescaled onto the cap.
    """
    ss = np.asarray(phi_ss, dtype=np.complex128)
    nn = np.asarray(phi_nn, dtype=np.complex128)
    if ss.shape != nn.shape or ss.ndim != 3:
        raise ParameterError(f"covariance stacks must match, got {ss.shape} and {nn.shape}")
    n_ch = ss.shape[1]
    if reference_channel is None:
        reference_channel = select_reference_channel(ss, nn)
    if not 0 <= reference_channel < n_ch:
        raise ParameterError(f"reference channel {reference_channel} out of range")

    numer = solve_hermitian(nn, ss, _loaded_solve)
    trace = np.maximum(np.trace(numer, axis1=1, axis2=2).real, _TRACE_FLOOR)
    w = numer[:, :, reference_channel] / trace[:, None]

    norms = np.linalg.norm(w, axis=1)
    over = norms > weight_cap
    if np.any(over):
        w[over] *= (weight_cap / norms[over])[:, None]
    return BeamformerWeights(w=w, reference_channel=int(reference_channel))


def mvdr_beamform(
    spec: ComplexSpectrogram,
    masks: MaskSet,
    target_class: int,
    reference_channel: int | None = None,
    weight_cap: float = 1e4,
) -> ComplexSpectrogram:
    """Beamform one class of a masked mixture down to a single channel.

    Target and noise covariances are estimated from the class mask and
    its complement (the other classes pooled), then the Souden MVDR
    weights are applied: y(t, f) = w_f^H x(t, f).
    """
    if masks.gamma.shape[1:] != (spec.frames, spec.bins):
        raise ParameterError("masks do not match the spectrogram grid")
    if not 0 <= target_class < masks.n_classes:
        raise ParameterError(f"target class {target_class} out of range")
    gamma = masks.gamma[target_class]
    phi_ss = spatial_covariance(spec, gamma)
    phi_nn = spatial_covariance(spec, 1.0 - gamma)
    weights = mvdr_weights(phi_ss, phi_nn, reference_channel, weight_cap)
    y = np.einsum("fc,tfc->tf", np.conj(weights.w), spec.values)
    return replace(spec, values=y[:, :, None])


@dataclass(frozen=True)
class GssConfig:
    """Settings for the end-to-end enhancement recipe of :func:`gss_enhance`."""

    stft: StftParams = StftParams()
    wpe: WpeConfig | None = WpeConfig()
    em_iterations: int = 20
    context_s: float = 15.0
    masking_postfilter: bool = False
    mask_floor: float = 0.1
    weight_cap: float = 1e4
    seed: int = 0

    def __post_init__(self):
        check_int("em_iterations", self.em_iterations, 1)
        check_int("seed", self.seed)
        if not isinstance(self.masking_postfilter, bool):
            raise ParameterError(
                f"masking_postfilter must be a bool, got {self.masking_postfilter!r}"
            )
        for name in ("context_s", "mask_floor", "weight_cap"):
            check_finite(name, getattr(self, name))
        if self.context_s < 0:
            raise ParameterError("context_s must be >= 0")
        if not 0.0 <= self.mask_floor <= 1.0:
            raise ParameterError("mask_floor must lie in [0, 1]")
        if not self.weight_cap > 0:
            raise ParameterError(f"weight_cap must be > 0, got {self.weight_cap}")


def segment_seed(base_seed: int, speaker: str, start_ms: int, end_ms: int) -> int:
    """Stable per-segment seed, independent of processing order.

    :func:`gss_enhance` seeds the mixture fit of a context window with the
    seed of the window's first target segment.
    """
    tag = f"{speaker}|{start_ms}|{end_ms}".encode()
    return (base_seed * 1000003 + zlib.crc32(tag)) % (2**63)


def eligible_segments(
    segments: DiarizationSet, stft_params: StftParams, n_samples: int, sample_rate_hz: int
) -> list:
    """Segments that enhancement will produce output for, in time order.

    Segments extending outside the file raise a range error; segments
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
            raise RangeError(
                f"segment {seg.speaker} [{seg.start_s}, {seg.end_s}] outside the "
                f"{duration:.3f} s file"
            )
        if (seg.end_s - seg.start_s) * sample_rate_hz < stft_params.frame_length:
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


def _window_activity(
    window_segments, speakers, win_start_s, n_frames, p: StftParams, rate: int
) -> ActivityPattern:
    """Frame activity of each speaker inside an analysis window."""
    active = np.zeros((len(speakers) + 1, n_frames), dtype=bool)
    active[-1] = True
    starts = np.arange(n_frames) * p.frame_shift - p.edge_padding
    ends = starts + p.frame_length
    for seg in window_segments:
        k = speakers.index(seg.speaker)
        a = (seg.start_s - win_start_s) * rate
        b = (seg.end_s - win_start_s) * rate
        active[k] |= (ends > a) & (starts < b)
    return ActivityPattern(speakers=tuple(speakers), active=active)


def gss_enhance(wav: WaveformBuffer, segments: DiarizationSet, cfg: GssConfig) -> dict:
    """Enhance every diarized segment of a session recording.

    Each target segment's context window is the segment plus
    ``cfg.context_s`` each side, clipped to the file. Targets whose
    windows have the same sample bounds share one analysis: the window is
    cut, transformed and dereverberated once, the activity pattern is
    built from all segments overlapping it, and one guided mixture model
    is fit, seeded by :func:`segment_seed` of the window's first target
    in :func:`eligible_segments` order. Every target of the window is
    then beamformed from that fit as its own class, optionally
    mask-postfiltered, synthesized, and trimmed to its segment. A window
    holding a single target gives the same output as enhancing that
    segment alone.

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
        separates by direction and one channel has none), or a NaN or
        infinite sample, named by channel and sample index.
    """
    if wav.channels < 2:
        raise DataError(
            f"guided source separation needs at least 2 channels, got {wav.channels}"
        )
    check_finite_samples(wav.samples, "recording")
    rate = wav.sample_rate_hz
    todo = eligible_segments(segments, cfg.stft, wav.n_samples, rate)
    # (lo, hi) sample bounds -> (window start s, window end s, target indices);
    # the activity pattern depends only on the window, so the bounds are the key
    windows: dict = {}
    for i, (_, start_s, end_s) in enumerate(todo):
        win_start = max(0.0, start_s - cfg.context_s)
        win_end = min(wav.n_samples / rate, end_s + cfg.context_s)
        key = (int(round(win_start * rate)), int(round(win_end * rate)))
        windows.setdefault(key, (win_start, win_end, []))[2].append(i)

    pieces = [None] * len(todo)
    for (lo, hi), (win_start, win_end, targets) in windows.items():
        spec = stft(WaveformBuffer(wav.samples[:, lo:hi], rate), cfg.stft)
        if cfg.wpe is not None:
            spec = wpe(spec, cfg.wpe)

        overlapping = [
            s
            for s in segments.segments
            if s.end_s > win_start and s.start_s < win_end
        ]
        speakers = sorted({s.speaker for s in overlapping})
        activity = _window_activity(
            overlapping, speakers, win_start, spec.frames, cfg.stft, rate
        )
        speaker, start_s, end_s = todo[targets[0]]
        seed = segment_seed(
            cfg.seed, speaker, int(round(start_s * 1000)), int(round(end_s * 1000))
        )
        _, masks = fit_cacgmm(spec, activity, cfg.em_iterations, seed)
        for i in targets:
            speaker, start_s, end_s = todo[i]
            target = speakers.index(speaker)
            enhanced = mvdr_beamform(spec, masks, target, weight_cap=cfg.weight_cap)
            if cfg.masking_postfilter:
                post = np.maximum(masks.gamma[target], cfg.mask_floor)
                enhanced = replace(enhanced, values=enhanced.values * post[:, :, None])
            audio = istft(enhanced, cfg.stft, hi - lo)
            a = int(round(start_s * rate)) - lo
            b = int(round(end_s * rate)) - lo
            pieces[i] = WaveformBuffer(audio.samples[:, a:b], rate)
    return dict(zip(todo, pieces))
