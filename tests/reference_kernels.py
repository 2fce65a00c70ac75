"""Reference implementations of the WPE, CACGMM and MVDR kernels and of
the GSS recipe.

The kernels are the straightforward per-bin and per-class loop-and-einsum
formulations the batched kernels in ``farfield.wpe`` and ``farfield.gss``
replace. They share no code with the package, so the equivalence tests
compare two independent computations of the same quantities.

:func:`enhance_per_segment` is the recipe ``farfield.gss_enhance``
replaces: it runs the package's STFT, WPE, mixture fit and beamformer
once for every target segment, even when several targets share a
context window.
"""

import numpy as np
import scipy.linalg as sla
from scipy.special import gammaln, logsumexp

from farfield import (
    ActivityPattern,
    ComplexSpectrogram,
    WaveformBuffer,
    eligible_segments,
    istft,
    mvdr_beamform,
    segment_seed,
    stft,
)
from farfield import fit_cacgmm as package_fit_cacgmm
from farfield import wpe as package_wpe


# ------------------------------------------------------------------ WPE


def stack_history(x, taps, delay):
    """(F, C, T) -> (F, C * taps, T), row block k delayed by delay + k."""
    n_bins, n_ch, n_frames = x.shape
    out = np.zeros((n_bins, n_ch * taps, n_frames), dtype=x.dtype)
    for k in range(taps):
        d = delay + k
        if d < n_frames:
            out[:, k * n_ch : (k + 1) * n_ch, d:] = x[:, :, : n_frames - d]
    return out


def solve_hermitian_bin(r, p):
    """Cholesky first, pivoted LDL when r is not positive definite."""
    try:
        return sla.cho_solve(sla.cho_factor(r, lower=True), p)
    except np.linalg.LinAlgError:
        pass
    lu, d, perm = sla.ldl(r, lower=True)
    tri = lu[perm]
    w = sla.solve_triangular(tri, p[perm], lower=True, unit_diagonal=True)
    v = np.linalg.solve(d, w)
    h = sla.solve_triangular(tri, v, lower=True, unit_diagonal=True, trans="C")
    g = np.empty_like(h)
    g[perm] = h
    return g


def wpe_filters(r, p, diagonal_loading):
    """Per-bin loaded solve; silent bins (trace <= 0) get zero filters."""
    n_bins, ck, n_ch = p.shape
    g = np.empty((n_bins, ck, n_ch), dtype=np.complex128)
    for f in range(n_bins):
        trace = r[f].trace().real
        if trace <= 0.0:
            g[f] = 0.0
            continue
        rf = r[f] + (diagonal_loading * trace / ck) * np.eye(ck)
        g[f] = solve_hermitian_bin(rf, p[f])
    return g


def wpe(values, cfg):
    """Dereverberated (frames, bins, channels) spectrogram values."""
    x = np.ascontiguousarray(np.transpose(values, (1, 2, 0)))  # (F, C, T)
    history = stack_history(x, cfg.taps, cfg.delay)
    y = x
    for _ in range(cfg.iterations):
        lam = np.maximum(np.mean(np.abs(y) ** 2, axis=1), cfg.psd_floor)
        weighted = history / lam[:, None, :]
        r = np.einsum("fit,fjt->fij", weighted, history.conj())
        p = np.einsum("fit,fjt->fij", weighted, x.conj())
        g = wpe_filters(r, p, cfg.diagonal_loading)
        y = x - np.einsum("fic,fit->fct", g.conj(), history)
    return np.transpose(y, (2, 0, 1))


# --------------------------------------------------------------- CACGMM


def unit_directions(values):
    norm = np.linalg.norm(values, axis=2)
    nonzero = norm > 0.0
    z = np.where(nonzero[:, :, None], values / np.where(nonzero, norm, 1.0)[:, :, None], 0.0)
    return z, nonzero


def log_densities(z, b):
    """Class loop: (classes, frames, bins) log densities and quadratic forms."""
    n_classes, c = b.shape[1], b.shape[2]
    log_dens = np.empty((n_classes, z.shape[0], z.shape[1]))
    quad = np.empty_like(log_dens)
    for k in range(n_classes):
        _, logdet = np.linalg.slogdet(b[:, k])
        binv = np.linalg.inv(b[:, k])
        q = np.maximum(np.einsum("tfc,fcd,tfd->tf", z.conj(), binv, z).real, 1e-30)
        quad[k] = q
        log_dens[k] = -logdet[None, :] - c * np.log(q)
    return log_dens, quad


def posteriors(log_dens, activity, nonzero):
    logits = np.where(activity[:, :, None], log_dens, -np.inf)
    top = np.max(logits, axis=0)
    stable = np.exp(logits - top[None])
    gamma = stable / stable.sum(axis=0)[None]
    n_active = activity.sum(axis=0).astype(np.float64)
    uniform = activity[:, :, None].astype(np.float64) / n_active[None, :, None]
    return np.where(nonzero[None], gamma, uniform)


def average_log_likelihood(log_dens, activity, nonzero, n_ch):
    """Separate logsumexp pass over the prior-weighted class densities."""
    n_active = activity.sum(axis=0).astype(np.float64)
    logits = np.where(
        activity[:, :, None], log_dens - np.log(n_active)[None, :, None], -np.inf
    )
    ll = logsumexp(logits, axis=0)
    const = gammaln(n_ch) - n_ch * np.log(np.pi) - np.log(2.0)
    if not np.any(nonzero):
        return float(const)
    return float(np.mean(ll[nonzero]) + const)


def m_step(b, z, gamma, quad, nonzero, ever_active):
    """Class loop: posterior-weighted covariances, trace-normalized."""
    n_ch = z.shape[2]
    eye = np.eye(n_ch)
    b = b.copy()
    weights = gamma * nonzero[None]
    for k in range(b.shape[1]):
        if not ever_active[k]:
            continue
        wk = weights[k] / quad[k]
        denom = weights[k].sum(axis=0)
        numer = np.einsum("tf,tfc,tfd->fcd", wk, z, z.conj())
        ok = denom > 0.0
        bk = b[:, k].copy()
        bk[ok] = n_ch * numer[ok] / denom[ok, None, None]
        bk = 0.5 * (bk + np.conj(np.swapaxes(bk, 1, 2)))
        tr = np.trace(bk, axis1=1, axis2=2).real
        tr = np.where(tr > 0.0, tr, 1.0)
        b[:, k] = bk * (n_ch / tr)[:, None, None] + 1e-10 * n_ch * eye[None]
    return b


def initial_covariances(n_bins, n_classes, n_ch, seed):
    """Identity plus the seeded Hermitian jitter (scale 1e-3) EM starts from."""
    rng = np.random.default_rng(seed)
    shape = (n_bins, n_classes, n_ch, n_ch)
    jitter = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    jitter = jitter @ np.conj(np.swapaxes(jitter, 2, 3))
    jitter *= n_ch / np.trace(jitter, axis1=2, axis2=3).real[:, :, None, None]
    return (1.0 - 1e-3) * np.eye(n_ch)[None, None] + 1e-3 * jitter


def fit_cacgmm(values, active, b0, iterations):
    """EM from the initial covariances b0: (B, log-likelihood trace, masks)."""
    z, nonzero = unit_directions(values)
    ever_active = active.any(axis=1)
    b = b0
    trace = []
    for _ in range(iterations):
        log_dens, quad = log_densities(z, b)
        trace.append(average_log_likelihood(log_dens, active, nonzero, z.shape[2]))
        gamma = posteriors(log_dens, active, nonzero)
        b = m_step(b, z, gamma, quad, nonzero, ever_active)
    gamma = posteriors(log_densities(z, b)[0], active, nonzero)
    return b, trace, gamma


# ----------------------------------------------------------------- MVDR


def mvdr_weights(phi_ss, phi_nn, reference_channel):
    """Per-bin Souden MVDR with one loading retry; no weight cap."""
    n_bins, n_ch, _ = phi_ss.shape
    w = np.empty((n_bins, n_ch), dtype=np.complex128)
    for f in range(n_bins):
        try:
            numer = np.linalg.solve(phi_nn[f], phi_ss[f])
        except np.linalg.LinAlgError:
            load = max(1e-6 * phi_nn[f].trace().real / n_ch, 1e-10)
            numer = np.linalg.solve(phi_nn[f] + load * np.eye(n_ch), phi_ss[f])
        w[f] = numer[:, reference_channel] / max(numer.trace().real, 1e-10)
    return w



# ----------------------------------------------------------------- GSS


def enhance_per_segment(wav, segments, cfg, seed_for=None):
    """One STFT, WPE and mixture fit per target segment.

    ``seed_for(speaker, start_ms, end_ms)`` gives the fit's seed; the
    default is the segment's own ``segment_seed``. Returns speaker ->
    list of mono buffers in ``eligible_segments`` order.
    """
    if seed_for is None:
        def seed_for(speaker, start_ms, end_ms):
            return segment_seed(cfg.seed, speaker, start_ms, end_ms)

    out = {}
    rate = wav.sample_rate_hz
    p = cfg.stft
    for speaker, start_s, end_s in eligible_segments(
        segments, p, wav.n_samples, rate
    ):
        win_start = max(0.0, start_s - cfg.context_s)
        win_end = min(wav.n_samples / rate, end_s + cfg.context_s)
        lo = int(round(win_start * rate))
        hi = int(round(win_end * rate))
        spec = stft(WaveformBuffer(wav.samples[:, lo:hi], rate), p)
        if cfg.wpe is not None:
            spec = package_wpe(spec, cfg.wpe)

        overlapping = [
            s for s in segments.segments if s.end_s > win_start and s.start_s < win_end
        ]
        speakers = sorted({s.speaker for s in overlapping})
        active = np.zeros((len(speakers) + 1, spec.frames), dtype=bool)
        active[-1] = True
        starts = np.arange(spec.frames) * p.frame_shift - p.edge_padding
        ends = starts + p.frame_length
        for seg in overlapping:
            a = (seg.start_s - win_start) * rate
            b = (seg.end_s - win_start) * rate
            active[speakers.index(seg.speaker)] |= (ends > a) & (starts < b)
        activity = ActivityPattern(tuple(speakers), active)

        seed = seed_for(speaker, int(round(start_s * 1000)), int(round(end_s * 1000)))
        _, masks = package_fit_cacgmm(spec, activity, cfg.em_iterations, seed)
        target = speakers.index(speaker)
        enhanced = mvdr_beamform(spec, masks, target, weight_cap=cfg.weight_cap)
        if cfg.masking_postfilter:
            post = np.maximum(masks.gamma[target], cfg.mask_floor)
            enhanced = ComplexSpectrogram(
                enhanced.values * post[:, :, None],
                enhanced.params,
                enhanced.sample_rate_hz,
                enhanced.source_length,
            )
        audio = istft(enhanced, p, hi - lo)
        a = int(round(start_s * rate)) - lo
        b = int(round(end_s * rate)) - lo
        out.setdefault(speaker, []).append(WaveformBuffer(audio.samples[:, a:b], rate))
    return out
