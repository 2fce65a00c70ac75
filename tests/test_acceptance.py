"""Top-level acceptance suite: one test per shipped guarantee.

Each test checks a user-visible property of the package end to end, at
the tolerances stated in the README: reconstruction accuracy, agreement
with independent oracles, monotone optimization objectives, separation
gain on simulated meetings, and bit-exact seeded determinism.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import reference_kernels as ref_kernels

from farfield import (
    ActivityPattern,
    AttentionParams,
    BlockParams,
    ComplexSpectrogram,
    CrossFusionParams,
    DiarizationSet,
    FeatureSequence,
    GssConfig,
    InfeasibleLabelError,
    MixturePlan,
    ParamSeed,
    PlannedSource,
    RoomSpec,
    StftParams,
    TranscriptSet,
    WaveformBuffer,
    WpeConfig,
    XorShift64Star,
    branchformer_block,
    cacgmm_posteriors,
    cgmlp,
    cpcer,
    ctc_loss,
    der,
    fit_cacgmm,
    gss_enhance,
    image_source_rir,
    istft,
    make_meeting,
    multi_head_attention,
    rover,
    sha256_bytes,
    sha256_file,
    si_sdr,
    stft,
    wpe,
    wpe_objective,
)
import farfield
from farfield.cli import main
from farfield.wpe import _powers

FS = 16000
SMALL = StftParams(frame_length=8, frame_shift=2, fft_size=8)


def _speechy(rng, n, f_env):
    t = np.arange(n) / FS
    env = 0.55 + 0.45 * np.sin(2 * np.pi * f_env * t + rng.uniform(0, 2 * np.pi))
    return WaveformBuffer(0.1 * env * rng.normal(size=n), FS)


def _reverb_utterance(seed, snr_db=25.0):
    rng = np.random.default_rng(seed)
    room = RoomSpec(
        dimensions=(7.0, 5.5, 3.2),
        absorption=0.25,
        max_order=2,
        sample_rate_hz=FS,
        source_positions=((1.5 + rng.uniform(0, 2), 1.5 + rng.uniform(0, 2), 1.6),),
        mic_positions=((5.2, 3.8, 1.4), (5.3, 3.9, 1.4)),
    )
    dry = _speechy(rng, int(1.5 * FS), 2.7)
    plan = MixturePlan(
        sources=(PlannedSource("s", dry, 0.0),), snr_db=snr_db, seed=seed, session="u"
    )
    return make_meeting(plan, room)


# --------------------------------------------------------------------- 1


def test_c01_stft_roundtrip_on_random_cola_configs():
    rng = np.random.default_rng(101)
    for trial in range(50):
        length = int(rng.choice([64, 128, 256, 320, 512]))
        shift = length // int(rng.choice([2, 4, 8]))
        fft_size = length if rng.random() < 0.7 else 2 * length
        p = StftParams(length, shift, fft_size)
        n = int(rng.integers(length + 1, 2 * FS))
        wav = WaveformBuffer(rng.normal(size=(int(rng.integers(1, 4)), n)), FS)
        back = istft(stft(wav, p), n)
        rel = np.linalg.norm(back.samples - wav.samples) / np.linalg.norm(wav.samples)
        assert rel <= 1e-6, (trial, length, shift, fft_size)


# --------------------------------------------------------------------- 2


def test_c02_wpe_single_iteration_solves_the_normal_equations():
    # power-weighted normal equations, lambda = max(channel-mean |x|^2, 1e-10),
    # loaded by 1e-6 * trace(R) / CK
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        channels = int(rng.integers(1, 4))
        taps = int(rng.integers(1, 7))
        delay = int(rng.integers(1, 4))
        frames = 200
        values = 0.05 * (
            rng.normal(size=(frames, 5, channels))
            + 1j * rng.normal(size=(frames, 5, channels))
        )
        spec = ComplexSpectrogram(values, SMALL, FS)
        out = wpe(spec, WpeConfig(taps=taps, delay=delay, iterations=1))
        x = values.transpose(1, 2, 0)
        for f in range(5):
            ck = channels * taps
            hist = np.zeros((ck, frames), dtype=complex)
            for k in range(taps):
                shift = delay + k
                hist[k * channels : (k + 1) * channels, shift:] = x[f, :, : frames - shift]
            lam = np.maximum(np.mean(np.abs(x[f]) ** 2, axis=0), 1e-10)
            r = (hist / lam) @ hist.conj().T
            r = r + 1e-6 * np.trace(r).real / ck * np.eye(ck)
            g = np.linalg.solve(r, (hist / lam) @ x[f].conj().T)
            resid = x[f] - g.conj().T @ hist
            np.testing.assert_allclose(
                out.values[:, f, :].T, resid, rtol=0, atol=1e-5,
                err_msg=f"seed {seed} bin {f}",
            )


# --------------------------------------------------------------------- 3


def test_c03_wpe_objective_non_increasing_on_simulated_reverb():
    for seed in range(5):
        spec = stft(_reverb_utterance(seed).mixture, StftParams())
        previous = None
        scores = []
        for iterations in range(1, 6):
            cfg = WpeConfig(taps=8, delay=2, iterations=iterations)
            dereverbed = wpe(spec, cfg)
            lam = _powers((spec if previous is None else previous).values, 2)
            scores.append(wpe_objective(spec, dereverbed, lam))
            previous = dereverbed
        assert np.all(np.diff(scores) <= 1e-6), (seed, scores)


# --------------------------------------------------------------------- 4


def _cacgmm_instance(seed, frames=40, bins=5, channels=2):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(frames, bins, channels)) + 1j * rng.normal(
        size=(frames, bins, channels)
    )
    active = rng.random((3, frames)) < 0.6
    active[-1] = True
    return (
        ComplexSpectrogram(values, SMALL, FS),
        ActivityPattern(("a", "b"), active),
    )


def test_c04_cacgmm_simplex_likelihood_and_scale_invariance():
    for seed in range(20):
        spec, activity = _cacgmm_instance(seed)
        state, masks = fit_cacgmm(spec, activity, iterations=10)
        total = masks.gamma.sum(axis=0)
        assert np.max(np.abs(total - 1.0)) <= 1e-9
        trace = np.asarray(state.log_likelihood_trace)
        assert np.all(np.diff(trace) >= -1e-6), (seed, trace)
    spec, activity = _cacgmm_instance(99)
    state, _ = fit_cacgmm(spec, activity, iterations=5)
    rng = np.random.default_rng(100)
    scale = rng.uniform(0.1, 10.0, size=spec.values.shape[:2]) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, size=spec.values.shape[:2])
    )
    scaled = ComplexSpectrogram(spec.values * scale[:, :, None], SMALL, FS)
    base = cacgmm_posteriors(spec, activity, state).gamma
    moved = cacgmm_posteriors(scaled, activity, state).gamma
    assert np.max(np.abs(base - moved)) <= 1e-9


# --------------------------------------------------------------------- 5


def test_c05_gss_gains_five_db_over_best_input_channel():
    room = RoomSpec(
        dimensions=(6.0, 5.0, 3.0),
        absorption=0.5,
        max_order=1,
        sample_rate_hz=FS,
        source_positions=((1.8, 3.6, 1.6), (4.3, 1.4, 1.5)),
        mic_positions=((2.95, 2.45, 1.4), (3.05, 2.55, 1.4)),
    )
    windows = (("spk1", (0.0, 2.4)), ("spk2", (0.8, 3.2)))
    cfg = GssConfig(
        wpe=WpeConfig(taps=5, delay=2, iterations=2), em_iterations=20, context_s=15.0
    )
    gains = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        plan = MixturePlan(
            sources=(
                PlannedSource("spk1", _speechy(rng, int(2.4 * FS), 2.3), 0.0),
                PlannedSource("spk2", _speechy(rng, int(2.4 * FS), 3.1), 0.8),
            ),
            snr_db=20.0,
            seed=seed,
            session="mix",
        )
        res = make_meeting(plan, room)
        segs = DiarizationSet.from_rows(
            [("mix", spk, a, b) for spk, (a, b) in windows]
        )
        out = gss_enhance(res.mixture, segs, cfg)
        for spk, (a, b) in windows:
            lo, hi = int(a * FS), int(b * FS)
            img = res.images[spk].samples[:, lo:hi]
            est = out[spk, a, b].samples[0]
            mix = res.mixture.samples[:, lo:hi]
            base = max(si_sdr(mix[c], img[c]) for c in range(2))
            enh = max(si_sdr(est, img[c]) for c in range(2))
            gains.append(enh - base)
    assert np.mean(gains) >= 5.0, gains


# --------------------------------------------------------------------- 6


def _assignment_oracle(refs, hyps):
    n = max(len(refs), len(hyps))
    r = list(refs) + [""] * (n - len(refs))
    h = list(hyps) + [""] * (n - len(hyps))
    cost = [[sum(ref_kernels.edit_distance(a, b)) for b in h] for a in r]
    return min(
        sum(cost[i][perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


def test_c06_cpcer_equals_exhaustive_assignment_oracle():
    refs = TranscriptSet.from_rows(
        [("s1", "A", 0.0, 1.0, "abcd"), ("s1", "B", 1.0, 2.0, "wxyz")]
    )
    hyps = TranscriptSet.from_rows(
        [("s1", "h1", 0.0, 1.0, "wxyz"), ("s1", "h2", 1.0, 2.0, "abcx")]
    )
    rate, _, _ = cpcer(refs, hyps)
    assert rate == 0.125

    letters = np.array(list("abc"))
    rng = np.random.default_rng(106)
    for trial in range(1000):
        n_ref = int(rng.integers(1, 6))
        n_hyp = int(rng.integers(1, 6))
        ref_texts = [
            "".join(rng.choice(letters, size=int(rng.integers(0, 13))))
            for _ in range(n_ref)
        ]
        if not any(ref_texts):
            ref_texts[0] = "a"
        hyp_texts = [
            "".join(rng.choice(letters, size=int(rng.integers(0, 13))))
            for _ in range(n_hyp)
        ]
        refs = TranscriptSet.from_rows(
            [("s", f"r{i}", float(i), i + 1.0, t) for i, t in enumerate(ref_texts)]
        )
        hyps = TranscriptSet.from_rows(
            [("s", f"h{i}", float(i), i + 1.0, t) for i, t in enumerate(hyp_texts)]
        )
        rate, breakdown, _ = cpcer(refs, hyps)
        best = _assignment_oracle(ref_texts, hyp_texts)
        chars = sum(len(t) for t in ref_texts)
        assert breakdown["s"].errors == best, trial
        assert rate == best / chars, trial


# --------------------------------------------------------------------- 7


def test_c07_der_toy_value_and_relabeling_invariance():
    ref = DiarizationSet.from_rows([("m", "A", 0.0, 8.0)])
    hyp = DiarizationSet.from_rows([("m", "X", 0.0, 6.0), ("m", "Y", 6.0, 8.0)])
    rate, miss, fa, conf = der(ref, hyp, collar_s=0.0)
    assert (rate, miss, fa, conf) == (0.25, 0.0, 0.0, 0.25)
    assert f"{100 * rate:.2f}%" == "25.00%"

    speakers = ("A", "B", "C", "D")
    for seed in range(100):
        rng = np.random.default_rng(700 + seed)

        def rows(n):
            out = []
            for _ in range(n):
                start = round(float(rng.uniform(0, 8)), 2)
                out.append(
                    ("m", str(rng.choice(speakers)), start,
                     start + round(float(rng.uniform(0.2, 2.0)), 2))
                )
            return out

        ref = DiarizationSet.from_rows(rows(int(rng.integers(1, 6))))
        hyp_rows = rows(int(rng.integers(1, 6)))
        hyp = DiarizationSet.from_rows(hyp_rows)
        mapping = dict(zip(speakers, rng.permutation(speakers)))
        relabeled = DiarizationSet.from_rows(
            [(s, mapping[spk], a, b) for s, spk, a, b in hyp_rows]
        )
        assert der(ref, hyp, collar_s=0.1) == der(ref, relabeled, collar_s=0.1), seed


# --------------------------------------------------------------------- 8


def test_c08_rover_unanimity_plurality_and_worked_case():
    assert rover([["a", "b"], ["a", "c"], ["a", "c"]]) == ("a", "c")

    rng = np.random.default_rng(108)
    vocab = [f"t{k}" for k in range(6)]
    for trial in range(100):
        words = [str(rng.choice(vocab)) for _ in range(int(rng.integers(1, 9)))]
        for order in itertools.permutations([list(words)] * 3):
            assert rover(list(order)) == tuple(words), trial

    # equal-length inputs with per-position vocabularies align one to one,
    # so the fused output must match a per-position plurality vote with
    # ties broken by the earliest proposing system
    for trial in range(200):
        n_sys = int(rng.integers(2, 6))
        n_pos = int(rng.integers(1, 7))
        hyps = [
            [f"w{i}_{int(rng.integers(0, 3))}" for i in range(n_pos)]
            for _ in range(n_sys)
        ]
        want = []
        for i in range(n_pos):
            counts = Counter(h[i] for h in hyps)
            top = max(counts.values())
            for h in hyps:
                if counts[h[i]] == top:
                    want.append(h[i])
                    break
        assert rover(hyps) == tuple(want), trial


# --------------------------------------------------------------------- 9


def _collapse(path):
    out = []
    prev = None
    for s in path:
        if s != prev and s != 0:
            out.append(s)
        prev = s
    return tuple(out)


def _ctc_oracle(log_probs, labels):
    t_len, vocab = log_probs.shape
    total = 0.0
    for path in itertools.product(range(vocab), repeat=t_len):
        if _collapse(path) == tuple(labels):
            total += math.exp(sum(log_probs[t, s] for t, s in enumerate(path)))
    return -math.log(total)


def _log_softmax(rng, t, v):
    raw = rng.normal(size=(t, v))
    return raw - np.log(np.exp(raw).sum(axis=1, keepdims=True))


def test_c09_ctc_matches_exhaustive_path_enumeration():
    rng = np.random.default_rng(109)
    lp1 = _log_softmax(rng, 1, 4)
    assert ctc_loss(lp1, (2,)) == -lp1[0, 2]
    lp2 = _log_softmax(rng, 2, 3)
    p = np.exp(lp2)
    want = p[0, 1] * p[1, 1] + p[0, 1] * p[1, 0] + p[0, 0] * p[1, 1]
    assert ctc_loss(lp2, (1,)) == pytest.approx(-np.log(want), abs=1e-12)

    for trial in range(200):
        t_len = int(rng.integers(1, 7))
        vocab = int(rng.integers(2, 5))
        lp = _log_softmax(rng, t_len, vocab)
        labels = rng.integers(1, vocab, size=int(rng.integers(1, t_len + 1))).tolist()
        repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
        if len(labels) + repeats > t_len:
            with pytest.raises(InfeasibleLabelError):
                ctc_loss(lp, labels)
            continue
        assert ctc_loss(lp, labels) == pytest.approx(
            _ctc_oracle(lp, labels), abs=1e-6
        ), trial


# -------------------------------------------------------------------- 10


def _block_oracle(x, p):
    """Loop-based straight-line reimplementation of the two-branch block."""

    def ln(v, gamma, beta):
        out = np.empty_like(v)
        for t in range(v.shape[0]):
            m = v[t].mean()
            s = math.sqrt(v[t].var() + 1e-5)
            out[t] = (v[t] - m) / s * gamma + beta
        return out

    def conv(v, kernel, bias):
        t_len, ch = v.shape
        width = kernel.shape[1]
        half = (width - 1) // 2
        out = np.zeros_like(v)
        for t in range(t_len):
            for k in range(width):
                src = t + k - half
                if 0 <= src < t_len:
                    out[t] += v[src] * kernel[:, k]
            out[t] += bias
        return out

    a = p.attention
    d_h = a.dim // a.heads
    normed = ln(x, p.ln_gamma, p.ln_beta)
    qh = (normed @ a.w_q + a.b_q).reshape(-1, a.heads, d_h)
    kh = (normed @ a.w_k + a.b_k).reshape(-1, a.heads, d_h)
    vh = (normed @ a.w_v + a.b_v).reshape(-1, a.heads, d_h)
    ctx = np.zeros_like(qh)
    for h in range(a.heads):
        scores = qh[:, h] @ kh[:, h].T / math.sqrt(d_h)
        for t in range(scores.shape[0]):
            w = np.exp(scores[t] - scores[t].max())
            w /= w.sum()
            ctx[t, h] = w @ vh[:, h]
    branch_attn = ctx.reshape(x.shape[0], a.dim) @ a.w_o + a.b_o

    c = p.cgmlp
    up = normed @ c.w_up + c.b_up
    e = c.hidden
    gated = up[:, :e] * conv(
        ln(up[:, e:], c.ln_gamma, c.ln_beta), c.conv_kernel, c.conv_bias
    )
    branch_conv = gated @ c.w_down + c.b_down

    cat = np.concatenate([branch_attn, branch_conv], axis=1)
    return x + cat @ p.w_merge + p.b_merge


def test_c10_forward_pass_properties_and_seeded_determinism():
    rng = np.random.default_rng(110)

    # attention weights form a simplex over key positions
    p = AttentionParams.seeded(ParamSeed(1).generator(), dim=6, heads=3)
    q = FeatureSequence(rng.normal(size=(4, 6)), "audio")
    kv = FeatureSequence(rng.normal(size=(7, 6)), "video")
    _, attn = multi_head_attention(q, kv, p, return_weights=True)
    assert np.all(attn >= 0)
    assert attn.sum(axis=-1) == pytest.approx(np.ones((3, 4)), abs=1e-12)

    # permuting key/value frames leaves the output unchanged
    base = multi_head_attention(q, kv, p).frames
    for _ in range(5):
        perm = rng.permutation(7)
        shuffled = FeatureSequence(kv.frames[perm], "video")
        assert multi_head_attention(q, shuffled, p).frames == pytest.approx(
            base, abs=1e-9
        )

    # the convolutional branch reaches exactly (width - 1) // 2 frames out
    from farfield import CgmlpParams

    for width in (1, 3, 7):
        cp = CgmlpParams.seeded(ParamSeed(6).generator(), dim=3, hidden=4, width=width)
        x = rng.normal(size=(20, 3))
        bumped = x.copy()
        bumped[10] += 1.0
        a = cgmlp(FeatureSequence(x), cp).frames
        b = cgmlp(FeatureSequence(bumped), cp).frames
        half = (width - 1) // 2
        changed = np.any(a != b, axis=1)
        assert np.all(changed[10 - half : 10 + half + 1])
        assert not np.any(np.r_[changed[: 10 - half], changed[10 + half + 1 :]])

    # zeroed merge projection reduces the block to its residual input
    bp = BlockParams.seeded(ParamSeed(8).generator(), dim=4, heads=2, width=3)
    zeroed = BlockParams(
        ln_gamma=bp.ln_gamma, ln_beta=bp.ln_beta, attention=bp.attention,
        cgmlp=bp.cgmlp, w_merge=np.zeros_like(bp.w_merge),
        b_merge=np.zeros_like(bp.b_merge),
    )
    x = rng.normal(size=(5, 4))
    assert np.array_equal(branchformer_block(FeatureSequence(x), zeroed).frames, x)

    # the extended variant with zeroed extras degenerates to the plain one
    extended = BlockParams(
        ln_gamma=bp.ln_gamma, ln_beta=bp.ln_beta, attention=bp.attention,
        cgmlp=bp.cgmlp, w_merge=bp.w_merge, b_merge=bp.b_merge,
        variant="e-branchformer",
        merge_conv_kernel=np.zeros((8, 3)), merge_conv_bias=np.zeros(8),
        ffn_ln_gamma=np.ones(4), ffn_ln_beta=np.zeros(4),
        w_ffn1=ParamSeed(10).generator().draw(4, 16), b_ffn1=np.zeros(16),
        w_ffn2=np.zeros((16, 4)), b_ffn2=np.zeros(4),
    )
    plain = branchformer_block(FeatureSequence(x), bp).frames
    assert np.array_equal(
        branchformer_block(FeatureSequence(x), extended).frames, plain
    )

    # straight-line oracle agreement
    for seed in (1, 2, 3):
        p_blk = BlockParams.seeded(ParamSeed(seed).generator(), dim=4, heads=2, width=3)
        xb = rng.normal(size=(6, 4))
        got = branchformer_block(FeatureSequence(xb), p_blk).frames
        assert got == pytest.approx(_block_oracle(xb, p_blk), abs=1e-7)

    # seeded draws and the full fusion path are bit-exact across re-runs
    assert np.array_equal(XorShift64Star(13).draw(4, 4), XorShift64Star(13).draw(4, 4))
    audio = FeatureSequence(rng.normal(size=(9, 4)), "audio")
    video = FeatureSequence(rng.normal(size=(4, 4)), "video")
    fp1 = CrossFusionParams.seeded(ParamSeed(15).generator(), dim=4, heads=2)
    fp2 = CrossFusionParams.seeded(ParamSeed(15).generator(), dim=4, heads=2)
    from farfield import cross_modal_fuse

    assert np.array_equal(
        cross_modal_fuse(audio, video, fp1).frames,
        cross_modal_fuse(audio, video, fp2).frames,
    )


# -------------------------------------------------------------------- 11


def test_c11_simulation_geometry_snr_and_seeded_reruns():
    # a source exactly 100 sample-periods away peaks at tap 100
    d = 100 * 343.0 / FS
    direct = RoomSpec(
        dimensions=(6.0, 5.0, 3.0), absorption=0.5, max_order=0, sample_rate_hz=FS,
        source_positions=((1.0, 2.5, 1.5),), mic_positions=((1.0 + d, 2.5, 1.5),),
    )
    h = image_source_rir(direct, 0, 0)
    assert int(np.argmax(np.abs(h))) == 100

    # first-order reflections arrive within one sample of mirror geometry
    dims = np.array([4.0, 5.0, 6.0])
    src = np.array([1.4, 2.19, 0.64])
    mic = np.array([0.87, 3.18, 3.74])
    room = RoomSpec(
        dimensions=tuple(dims), absorption=0.36, max_order=1, sample_rate_hz=FS,
        source_positions=(tuple(src),), mic_positions=(tuple(mic),),
    )
    h = image_source_rir(room, 0, 0)
    mirrors = [src.copy()]
    for axis in range(3):
        low = src.copy()
        low[axis] = -src[axis]
        high = src.copy()
        high[axis] = 2 * dims[axis] - src[axis]
        mirrors += [low, high]
    for tau in (np.linalg.norm(m - mic) / 343.0 * FS for m in mirrors):
        k = int(round(tau))
        idx = k - 4 + int(np.argmax(np.abs(h[k - 4 : k + 5])))
        assert abs(idx - tau) <= 1.0, tau

    # the noise floor lands within 0.05 dB of the requested SNR
    small = RoomSpec(
        dimensions=(6.0, 5.0, 3.0), absorption=0.5, max_order=0, sample_rate_hz=FS,
        source_positions=((1.8, 3.6, 1.6),),
        mic_positions=((2.95, 2.45, 1.4), (3.05, 2.55, 1.4)),
    )
    for seed in range(20):
        rng = np.random.default_rng(seed)
        snr = float(rng.uniform(0.0, 30.0))
        plan = MixturePlan(
            sources=(PlannedSource("s", _speechy(rng, int(0.4 * FS), 2.0), 0.0),),
            snr_db=snr, seed=seed, session="x",
        )
        res = make_meeting(plan, small)
        clean = res.mixture.samples - res.noise.samples
        got = 10 * np.log10(
            (clean**2).sum() / (res.noise.samples**2).sum()
        )
        assert abs(got - snr) <= 0.05, seed

    # identical plans hash to identical mixtures
    rng = np.random.default_rng(4)
    plan = MixturePlan(
        sources=(PlannedSource("s", _speechy(rng, int(0.4 * FS), 2.0), 0.0),),
        snr_db=15.0, seed=4, session="x",
    )
    a = make_meeting(plan, small)
    b = make_meeting(plan, small)
    assert sha256_bytes(a.mixture.samples.tobytes()) == sha256_bytes(
        b.mixture.samples.tobytes()
    )

    # images taken by FFT equal the direct sums within 1e-12 of their peak,
    # and the mixture is their sum plus the noise, bit for bit
    reverberant = RoomSpec(
        dimensions=(6.0, 5.0, 3.0), absorption=0.4, max_order=3, sample_rate_hz=FS,
        source_positions=((1.8, 3.6, 1.6), (4.3, 1.4, 1.5)),
        mic_positions=((2.95, 2.45, 1.4), (3.05, 2.55, 1.4)),
    )
    dry = [_speechy(rng, int(0.5 * FS), 2.0), _speechy(rng, int(0.3 * FS), 3.0)]
    plan = MixturePlan(
        sources=(PlannedSource("a", dry[0], 0.0), PlannedSource("b", dry[1], 0.35)),
        snr_db=15.0, seed=5, session="x",
    )
    res = make_meeting(plan, reverberant)
    for si, source in enumerate(plan.sources):
        onset = int(round(source.onset_s * FS))
        for mi, got in enumerate(res.images[source.speaker].samples):
            want = np.convolve(dry[si].samples[0], image_source_rir(reverberant, si, mi))
            assert np.max(np.abs(got[onset : onset + want.size] - want)) <= 1e-12 * np.max(
                np.abs(want)
            )
            assert not np.any(got[onset + want.size :]) and not np.any(got[:onset])
    total = res.images["a"].samples + res.images["b"].samples + res.noise.samples
    assert np.array_equal(res.mixture.samples, total)


# -------------------------------------------------------------------- 12


def test_c12_cli_reruns_produce_identical_output_hashes(tmp_path):
    rng = np.random.default_rng(12)
    from farfield import write_wav

    write_wav(tmp_path / "ann.wav", _speechy(rng, int(1.2 * FS), 2.3))
    write_wav(tmp_path / "bob.wav", _speechy(rng, int(1.2 * FS), 3.1))
    (tmp_path / "plan.json").write_text(json.dumps({
        "session": "mtg", "seed": 3, "snr_db": 20.0,
        "sources": [
            {"speaker": "ann", "wav": "ann.wav", "onset_s": 0.0},
            {"speaker": "bob", "wav": "bob.wav", "onset_s": 0.5},
        ],
    }))
    (tmp_path / "room.json").write_text(json.dumps({
        "dimensions": [6.0, 5.0, 3.0], "absorption": 0.5, "max_order": 1,
        "sample_rate_hz": FS,
        "source_positions": [[1.8, 3.6, 1.6], [4.3, 1.4, 1.5]],
        "mic_positions": [[2.95, 2.45, 1.4], [3.05, 2.55, 1.4]],
    }))
    (tmp_path / "cfg.json").write_text(json.dumps({
        "wpe": {"taps": 4, "delay": 2, "iterations": 1},
        "gss": {"em_iterations": 5},
    }))

    def tree_hashes(root):
        return {
            p.relative_to(root).as_posix(): sha256_file(p)
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    for run in ("a", "b"):
        rc = main(["simulate", str(tmp_path / "plan.json"), str(tmp_path / "room.json"),
                   "--out", str(tmp_path / f"sim_{run}")])
        assert rc == 0
    assert tree_hashes(tmp_path / "sim_a") == tree_hashes(tmp_path / "sim_b")

    (tmp_path / "manifest.json").write_text(json.dumps({
        "session": "mtg",
        "wavs": ["sim_a/mixture.wav"],
        "rttm": "sim_a/reference.rttm",
    }))
    for run in ("a", "b"):
        rc = main(["enhance", str(tmp_path / "manifest.json"),
                   "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / f"enh_{run}")])
        assert rc == 0
    hashes = tree_hashes(tmp_path / "enh_a")
    assert hashes == tree_hashes(tmp_path / "enh_b")
    assert any(name.endswith(".wav") for name in hashes)


def test_c12_enhance_hashes_do_not_depend_on_blas_threads(tmp_path):
    # a 2 s, 4-mic, 3-speaker session whose output moved with the BLAS
    # thread count while WPE ran with multithreaded zgemm
    rng = np.random.default_rng(12)
    from farfield import write_wav

    sources = []
    for i, name in enumerate(("ann", "bob", "cat")):
        write_wav(tmp_path / f"{name}.wav", _speechy(rng, FS, 2.3 + i))
        sources.append({"speaker": name, "wav": f"{name}.wav", "onset_s": 0.5 * i})
    (tmp_path / "plan.json").write_text(json.dumps({
        "session": "mtg", "seed": 3, "snr_db": 20.0, "sources": sources,
    }))
    (tmp_path / "room.json").write_text(json.dumps({
        "dimensions": [6.0, 5.0, 3.0], "absorption": 0.5, "max_order": 2,
        "sample_rate_hz": FS,
        "source_positions": [[1.8, 3.6, 1.6], [4.3, 1.4, 1.5], [1.5, 1.2, 1.5]],
        "mic_positions": [[2.9, 2.4, 1.4], [3.0, 2.4, 1.4], [2.9, 2.5, 1.4], [3.0, 2.5, 1.4]],
    }))
    assert main(["simulate", str(tmp_path / "plan.json"), str(tmp_path / "room.json"),
                 "--out", str(tmp_path / "sim")]) == 0
    (tmp_path / "manifest.json").write_text(json.dumps({
        "session": "mtg", "wavs": ["sim/mixture.wav"], "rttm": "sim/reference.rttm",
    }))
    package_root = str(Path(farfield.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    index = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "farfield.cli", "enhance", "manifest.json",
             "--out", f"enh{threads}"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        index[threads] = json.loads((tmp_path / f"enh{threads}/mtg/index.json").read_text())
    assert index["1"] == index["2"]
    assert len(index["1"]["outputs"]) == 3
