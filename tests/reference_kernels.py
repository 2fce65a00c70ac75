"""Reference implementations of the iSTFT overlap-add, of the WPE, CACGMM
and MVDR kernels, of the GSS recipe, of ROVER alignment, of the
image-source expansion and room impulse response, of the energy-gated
segments of a dry source, of the edit distance, of interval coverage on
a grid, and of DER.

The kernels are the straightforward per-bin and per-class loop-and-einsum
formulations the batched kernels in ``farfield.wpe`` and ``farfield.gss``
replace; :func:`class_covariances` weighs each class's noise covariance
by 1 - gamma_k, where the package sums the other classes. They share no
code with the package, so the equivalence tests compare two independent
computations of the same quantities.

:func:`enhance_per_segment` is the recipe ``farfield.gss_enhance``
replaces: it runs the package's STFT, WPE, mixture fit and beamformer
once for every target segment, even when several targets share a
context window. Its activity pattern comes from :func:`frame_activity`,
which ORs one full-length frame row per segment.

:func:`istft` overlap-adds one frame at a time, :func:`align_into_wtn`
fills the ROVER alignment table as a list of lists, one cell at a time,
:func:`image_sources` visits every mirror combination in a Python loop
with one ``np.linalg.norm`` each, :func:`image_source_rir` adds one
image's windowed sinc at a time, :func:`der` excises one collar at a
time and counts overlaps with an int64 ``einsum``, :func:`covered`
marks one interval of a grid row at a time, and :func:`dry_segments`
gates a dry source frame by frame and joins its runs one at a time: the
per-element formulations the array code in ``farfield.signal``,
``farfield.rover``, ``farfield.simulate``, ``farfield.metrics`` and
``farfield.gss`` replaces. Their outputs must be equal, not close.
:func:`edit_distance` fills the full Levenshtein table cell by cell,
the oracle of the package's ``edit_distance`` and of the cpCER
stream-pair costs.

:func:`meeting_images` renders every (source, mic) image by its own
direct ``np.convolve``, the sums ``farfield.make_meeting`` now takes by
FFT; those agree to rounding.
"""

import math
from itertools import product

import numpy as np
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment
from scipy.special import gammaln, logsumexp

from farfield import (
    NULL_TOKEN,
    ActivityPattern,
    ArcTally,
    DiarSegment,
    StftParams,
    WaveformBuffer,
    WordTransitionNetwork,
    eligible_segments,
    istft,
    mvdr_beamform,
    stft,
)
from farfield import fit_cacgmm as package_fit_cacgmm
from farfield import wpe as package_wpe

WPE_PSD_FLOOR = 1e-10  # the floor on the WPE power estimate
WPE_LOADING = 1e-6  # the relative diagonal loading of the WPE solve
EM_TOLERANCE = 1e-2  # the relative log-likelihood gain at which a bin's EM stops


# ---------------------------------------------------------------- iSTFT


def istft(spec, target_length):
    """Overlap-add synthesis one frame at a time, in frame order."""
    p = spec.params
    vals = np.array(spec.values, dtype=np.complex128)
    vals[:, 0, :] = vals[:, 0, :].real
    if p.fft_size % 2 == 0:
        vals[:, -1, :] = vals[:, -1, :].real
    frames_td = np.fft.irfft(vals, n=p.fft_size, axis=1)[:, : p.frame_length, :]
    n_frames, _, n_ch = frames_td.shape
    length = (n_frames - 1) * p.frame_shift + p.frame_length
    q = p.analysis_window
    y = np.zeros((n_ch, length))
    denom = np.zeros(length)
    for t in range(n_frames):
        lo = t * p.frame_shift
        y[:, lo : lo + p.frame_length] += frames_td[t].T
        denom[lo : lo + p.frame_length] += q
    tiny = 1e-12 * max(denom.max(), 1.0)
    y = np.where(denom > tiny, y / np.maximum(denom, tiny), 0.0)
    out = y[:, p.edge_padding : p.edge_padding + target_length]
    if out.shape[1] < target_length:
        out = np.pad(out, ((0, 0), (0, target_length - out.shape[1])))
    return WaveformBuffer(samples=out, sample_rate_hz=spec.sample_rate_hz)


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
        lam = np.maximum(np.mean(np.abs(y) ** 2, axis=1), WPE_PSD_FLOOR)
        weighted = history / lam[:, None, :]
        r = np.einsum("fit,fjt->fij", weighted, history.conj())
        p = np.einsum("fit,fjt->fij", weighted, x.conj())
        g = wpe_filters(r, p, WPE_LOADING)
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


def bin_log_likelihoods(log_dens, activity, nonzero):
    """Separate logsumexp pass over the prior-weighted class densities,
    summed per bin over its nonzero-norm frames: (bins,) log-likelihood
    ratios against the isotropic model."""
    n_active = activity.sum(axis=0).astype(np.float64)
    logits = np.where(
        activity[:, :, None], log_dens - np.log(n_active)[None, :, None], -np.inf
    )
    ll = logsumexp(logits, axis=0)
    return np.where(nonzero, ll, 0.0).sum(axis=0)


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


def random_hermitian_covariances(n_bins, n_classes, n_ch, seed):
    """Seeded random Hermitian positive-semidefinite matrices A A^H with
    trace C, one per (bin, class)."""
    rng = np.random.default_rng(seed)
    shape = (n_bins, n_classes, n_ch, n_ch)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b = a @ np.conj(np.swapaxes(a, 2, 3))
    b = (b + np.conj(np.swapaxes(b, 2, 3))) / 2
    return b * (n_ch / np.trace(b, axis1=2, axis2=3).real[:, :, None, None])


def fit_cacgmm(values, active, b0, iterations):
    """EM from the initial covariances b0, one bin at a time, each bin
    stopped on its own: (B, log-likelihood trace, masks, M-steps per bin).

    A bin stops at the first E-step after at least one M-step whose
    log-likelihood gain is at most EM_TOLERANCE times the absolute
    previous value, or after ``iterations`` M-steps; it keeps that
    E-step's masks. Trace entry i averages, over the nonzero-norm bins,
    the bins' log-likelihoods at E-step i, a stopped bin's last one
    after it stopped."""
    n_frames, n_bins, n_ch = values.shape
    z, nonzero = unit_directions(values)
    ever_active = active.any(axis=1)
    b = np.empty_like(b0)
    gamma = np.empty((active.shape[0], n_frames, n_bins))
    lls = np.empty((iterations, n_bins))
    steps = []
    for f in range(n_bins):
        zf, nzf, bf = z[:, f : f + 1], nonzero[:, f : f + 1], b0[f : f + 1]
        history = []
        while True:
            log_dens, quad = log_densities(zf, bf)
            history.append(bin_log_likelihoods(log_dens, active, nzf)[0])
            gf = posteriors(log_dens, active, nzf)
            if len(history) > iterations:
                break
            if len(history) > 1 and history[-1] - history[-2] <= EM_TOLERANCE * abs(history[-2]):
                break
            bf = m_step(bf, zf, gf, quad, nzf, ever_active)
        b[f], gamma[:, :, f] = bf[0], gf[:, :, 0]
        steps.append(len(history) - 1)
        history += [history[-1]] * iterations
        lls[:, f] = history[:iterations]
    const = gammaln(n_ch) - n_ch * np.log(np.pi) - np.log(2.0)
    trace = lls.sum(axis=1) / max(int(nonzero.sum()), 1) + const
    return b, list(trace), gamma, steps


# ----------------------------------------------------------------- MVDR


def class_covariances(values, gamma):
    """Per-bin, per-class loop: the (classes, bins, C, C) covariances
    weighted by each class mask gamma_k and by its complement 1 - gamma_k."""
    n_classes = gamma.shape[0]
    _, n_bins, n_ch = values.shape
    target = np.empty((n_classes, n_bins, n_ch, n_ch), dtype=np.complex128)
    noise = np.empty_like(target)
    for f in range(n_bins):
        x = values[:, f]  # (T, C)
        for k in range(n_classes):
            for out, w in ((target, gamma[k, :, f]), (noise, 1.0 - gamma[k, :, f])):
                out[k, f] = np.einsum("t,tc,td->cd", w, x, x.conj()) / w.sum()
    return target, noise


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


def frame_activity(segments, win_start, win_end, n_frames, rate):
    """The activity pattern of the window ``[win_start, win_end]`` s.

    A row per speaker with a segment overlapping the window, in sorted
    order, ORs one full-length row per segment: frame i, spanning
    samples ``[i * shift - padding, i * shift - padding + length)`` of
    the window, is active when it overlaps the segment's samples
    ``((start_s - win_start) * rate, (end_s - win_start) * rate)``. The
    noise row is all true.
    """
    p = StftParams()
    overlapping = [s for s in segments.segments if s.end_s > win_start and s.start_s < win_end]
    speakers = sorted({s.speaker for s in overlapping})
    active = np.zeros((len(speakers) + 1, n_frames), dtype=bool)
    active[-1] = True
    starts = np.arange(n_frames) * p.frame_shift - p.edge_padding
    ends = starts + p.frame_length
    for seg in overlapping:
        a = (seg.start_s - win_start) * rate
        b = (seg.end_s - win_start) * rate
        active[speakers.index(seg.speaker)] |= (ends > a) & (starts < b)
    return ActivityPattern(tuple(speakers), active)


def enhance_per_segment(wav, segments, cfg):
    """One STFT, WPE and mixture fit per target segment.

    Returns (speaker, start_s, end_s) -> mono buffer in
    ``eligible_segments`` order.
    """
    out = {}
    rate = wav.sample_rate_hz
    p = StftParams()
    for speaker, start_s, end_s in eligible_segments(segments, wav.n_samples, rate):
        win_start = max(0.0, start_s - cfg.context_s)
        win_end = min(wav.n_samples / rate, end_s + cfg.context_s)
        lo = int(round(win_start * rate))
        hi = int(round(win_end * rate))
        spec = stft(WaveformBuffer(wav.samples[:, lo:hi], rate), p)
        if cfg.wpe is not None:
            spec = package_wpe(spec, cfg.wpe)

        activity = frame_activity(segments, win_start, win_end, spec.frames, rate)

        _, masks = package_fit_cacgmm(spec, activity, cfg.em_iterations)
        enhanced = mvdr_beamform(spec, masks, activity.speakers.index(speaker))
        audio = istft(enhanced, hi - lo)
        a = int(round(start_s * rate)) - lo
        b = int(round(end_s * rate)) - lo
        out[speaker, start_s, end_s] = WaveformBuffer(audio.samples[:, a:b], rate)
    return out


# ---------------------------------------------------------------- ROVER


def align_into_wtn(wtn, hyp):
    """Fold one hypothesis into the network through a cell-by-cell table."""
    tokens, confs = [], []
    for item in hyp:
        tok, conf = (item, 1.0) if isinstance(item, str) else (item[0], float(item[1]))
        tokens.append(tok)
        confs.append(conf)
    slots = wtn.slots
    ns, nh = len(slots), len(tokens)
    system = wtn.n_systems

    cost = [[0] * (nh + 1) for _ in range(ns + 1)]
    for i in range(1, ns + 1):
        cost[i][0] = i
    for j in range(1, nh + 1):
        cost[0][j] = j
    for i in range(1, ns + 1):
        here = slots[i - 1]
        for j in range(1, nh + 1):
            diag = cost[i - 1][j - 1] + (0 if tokens[j - 1] in here else 1)
            cost[i][j] = min(diag, cost[i - 1][j] + 1, cost[i][j - 1] + 1)

    ops = []
    i, j = ns, nh
    while i > 0 or j > 0:
        if i > 0 and j > 0 and tokens[j - 1] in slots[i - 1] and cost[i][j] == cost[i - 1][j - 1]:
            ops.append(("use", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and cost[i][j] == cost[i - 1][j - 1] + 1:
            ops.append(("use", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and cost[i][j] == cost[i - 1][j] + 1:
            ops.append(("skip", i - 1))
            i -= 1
        else:
            ops.append(("new", j - 1))
            j -= 1
    ops.reverse()

    def updated(slot, tok, conf):
        new = dict(slot)
        new[tok] = new.get(tok, ArcTally(0, 0.0, system)).add(conf, system)
        return new

    new_slots = []
    for op in ops:
        if op[0] == "use":
            _, si, tj = op
            new_slots.append(updated(slots[si], tokens[tj], confs[tj]))
        elif op[0] == "skip":
            new_slots.append(updated(slots[op[1]], NULL_TOKEN, 0.0))
        else:
            tj = op[1]
            new_slots.append(
                {
                    tokens[tj]: ArcTally(1, confs[tj], system),
                    NULL_TOKEN: ArcTally(system, 0.0, 0),
                }
            )
    return WordTransitionNetwork(slots=tuple(new_slots), n_systems=system + 1)


# -------------------------------------------------------- image sources


def image_sources(room, src, mic):
    """(delays, amplitudes, orders) of every image, one mirror at a time."""
    s = np.asarray(room.source_positions[src])
    m = np.asarray(room.mic_positions[mic])
    dims = np.asarray(room.dimensions)
    n = room.max_order
    reflect = 1.0 - room.absorption

    delays, amps, orders = [], [], []
    span = range(-n, n + 2)
    for p in product((0, 1), repeat=3):
        for r in product(span, repeat=3):
            order = sum(abs(r[d] - p[d]) + abs(r[d]) for d in range(3))
            if order > n:
                continue
            pos = (1.0 - 2.0 * np.asarray(p)) * s + 2.0 * np.asarray(r) * dims
            dist = float(np.linalg.norm(pos - m))
            delays.append(dist / room.speed_of_sound * room.sample_rate_hz)
            amps.append(reflect**order / (4.0 * math.pi * dist))
            orders.append(order)
    idx = np.argsort(delays, kind="stable")
    return (
        np.asarray(delays)[idx],
        np.asarray(amps)[idx],
        np.asarray(orders, dtype=np.int64)[idx],
    )


def image_source_rir(room, src, mic):
    """RIR built one image at a time: each adds its 81-tap windowed sinc."""
    half = 40
    delays, amps, _ = image_sources(room, src, mic)
    length = int(math.ceil(delays.max())) + half + 2
    h = np.zeros(length)
    for t, a in zip(delays, amps):
        lo = max(0, int(math.ceil(t)) - half)
        hi = min(length, int(math.floor(t)) + half + 1)
        n = np.arange(lo, hi)
        x = n - t
        window = 0.5 + 0.5 * np.cos(np.pi * x / (half + 1))
        h[lo:hi] += a * np.sinc(x) * window
    return h


def meeting_images(plan, room):
    """speaker -> (mics, samples) reverberant image, one direct
    ``np.convolve`` per (source, mic) pair of the per-image RIRs, each
    placed at its source's onset in a mixture-length buffer."""
    rate = room.sample_rate_hz
    n_mics = len(room.mic_positions)
    rirs = [
        [image_source_rir(room, si, mi) for mi in range(n_mics)]
        for si in range(len(plan.sources))
    ]
    onsets = [int(round(s.onset_s * rate)) for s in plan.sources]
    length = max(
        onset + s.audio.n_samples + max(h.size for h in hs) - 1
        for onset, s, hs in zip(onsets, plan.sources, rirs)
    )
    images = {}
    for onset, s, hs in zip(onsets, plan.sources, rirs):
        img = np.zeros((n_mics, length))
        for mi, h in enumerate(hs):
            y = np.convolve(s.audio.samples[0], h)
            img[mi, onset : onset + y.size] = y
        images[s.speaker] = img
    return images


# ------------------------------------------------------- dry segments


DRY_WIN_S = 0.025  # the energy gate's frame length
DRY_HOP_S = 0.010  # and shift
DRY_THRESHOLD = 10.0 ** (-40.0 / 20.0)  # -40 dBFS frame RMS
DRY_MERGE_GAP_S = 0.3  # runs closer than this are joined


def dry_segments(source, session, rate):
    """Energy-gated segments of a dry source: one pass over the frames
    collects the runs of active frames, a second joins each run to the
    one before when the gap between them is below ``DRY_MERGE_GAP_S``."""
    win = int(round(DRY_WIN_S * rate))
    hop = int(round(DRY_HOP_S * rate))
    x = source.audio.samples[0]
    if x.size < win:
        return []
    n_frames = 1 + (x.size - win) // hop
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    rms = np.sqrt(np.mean(np.square(x[idx]), axis=1))
    active = rms > DRY_THRESHOLD
    runs = []
    start = None
    for i, flag in enumerate(active):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, n_frames - 1))
    merged = []
    for a, b in runs:
        if merged and a * hop - (merged[-1][1] * hop + win) < DRY_MERGE_GAP_S * rate:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    out = []
    for a, b in merged:
        t0 = source.onset_s + a * hop / rate
        t1 = source.onset_s + min(b * hop + win, x.size) / rate
        out.append(DiarSegment(session, source.speaker, t0, t1))
    return out


# -------------------------------------------------------- edit distance


def edit_distance(ref, hyp):
    """Full-table Levenshtein DP over (cost, substitutions, insertions).

    Tuples add componentwise and compare lexicographically, so the
    minimum picks the cheapest alignment, then the one with fewer
    substitutions, then fewer insertions. Returns (substitutions,
    insertions, deletions).
    """
    n, m = len(ref), len(hyp)
    table = [[(j, 0, j) for j in range(m + 1)]]
    for i in range(1, n + 1):
        row = [(i, 0, 0)]
        for j in range(1, m + 1):
            c, s, a = table[i - 1][j - 1]
            diag = (c, s, a) if ref[i - 1] == hyp[j - 1] else (c + 1, s + 1, a)
            c, s, a = table[i - 1][j]
            dele = (c + 1, s, a)
            c, s, a = row[j - 1]
            ins = (c + 1, s, a + 1)
            row.append(min(diag, dele, ins))
        table.append(row)
    cost, subs, ins = table[n][m]
    return subs, ins, cost - subs - ins


# ----------------------------------------------------- interval coverage


def covered(rows, lo, hi, n_rows, n):
    """Boolean (n_rows, n) grid, one slice assignment per interval: cells
    ``[lo[k], hi[k])`` of row ``rows[k]``, none when ``lo[k] >= hi[k]``."""
    grid = np.zeros((n_rows, n), dtype=bool)
    for r, a, b in zip(rows, lo, hi):
        grid[r, a:b] = True
    return grid


# ------------------------------------------------------------------ DER

DER_FRAME_S = 0.01


def _segment_frames(segments, n_frames):
    speakers = sorted({s.speaker for s in segments})
    act = np.zeros((len(speakers), n_frames), dtype=bool)
    for s in segments:
        a = int(round(s.start_s / DER_FRAME_S))
        b = int(round(s.end_s / DER_FRAME_S))
        act[speakers.index(s.speaker), a:b] = True
    return act


def der(ref, hyp, collar_s=0.25, score_overlap=True):
    """(rate, miss, false_alarm, confusion): one collar slice per boundary,
    overlaps from an int64 ``einsum``, a per-frame matched count."""
    sessions = sorted(set(ref.sessions()) | set(hyp.sessions()))
    miss = fa = conf = denom = 0
    for sess in sessions:
        rsegs = ref.for_session(sess).segments
        hsegs = hyp.for_session(sess).segments
        horizon = max([s.end_s for s in rsegs] + [s.end_s for s in hsegs] + [0.0])
        n = int(round(horizon / DER_FRAME_S)) + 1
        ract = _segment_frames(rsegs, n)
        hact = _segment_frames(hsegs, n)

        scored = np.ones(n, dtype=bool)
        for s in rsegs:
            for edge in (s.start_s, s.end_s):
                a = max(0, int(round((edge - collar_s) / DER_FRAME_S)))
                b = int(round((edge + collar_s) / DER_FRAME_S))
                scored[a:b] = False
        nr = ract.sum(axis=0)
        if not score_overlap:
            scored &= nr <= 1
        nh = hact.sum(axis=0)

        overlap = np.einsum(
            "rn,hn->rh", (ract & scored).astype(np.int64), hact.astype(np.int64)
        )
        matched = np.zeros(n, dtype=np.int64)
        if overlap.size:
            rows, cols = linear_sum_assignment(-overlap)
            for i, j in zip(rows, cols):
                matched += ract[i] & hact[j]

        nr_s = nr[scored]
        nh_s = nh[scored]
        miss += int(np.maximum(nr_s - nh_s, 0).sum())
        fa += int(np.maximum(nh_s - nr_s, 0).sum())
        conf += int((np.minimum(nr_s, nh_s) - matched[scored]).sum())
        denom += int(nr_s.sum())
    return (miss + fa + conf) / denom, miss / denom, fa / denom, conf / denom
