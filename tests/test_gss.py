import importlib
import logging

import numpy as np
import pytest

import reference_kernels as ref
from farfield import (
    ActivityPattern,
    CacgmmState,
    ComplexSpectrogram,
    DataError,
    DiarizationSet,
    GssConfig,
    MaskSet,
    ParameterError,
    RangeError,
    StftParams,
    WaveformBuffer,
    WpeConfig,
    cacgmm_posteriors,
    eligible_segments,
    fit_cacgmm,
    gss_enhance,
    mvdr_beamform,
    mvdr_weights,
    segment_seed,
    select_reference_channel,
    spatial_covariance,
)

gss_module = importlib.import_module("farfield.gss")

FS = 16000
SMALL = StftParams(frame_length=8, frame_shift=2, fft_size=8)


def _spec(values):
    return ComplexSpectrogram(np.asarray(values, dtype=np.complex128), SMALL, FS)


def _random_instance(seed, frames=40, bins=5, channels=2, speakers=("a", "b")):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(frames, bins, channels)) + 1j * rng.normal(
        size=(frames, bins, channels)
    )
    active = rng.random((len(speakers) + 1, frames)) < 0.6
    active[-1] = True
    return _spec(values), ActivityPattern(speakers, active)


def _spatial_mixture(seed, frames=120, bins=5, channels=3):
    # two point sources with fixed random steering vectors, alternating
    # solo regions and an overlapped middle, plus a weak diffuse floor
    rng = np.random.default_rng(seed)
    d1 = rng.normal(size=(bins, channels)) + 1j * rng.normal(size=(bins, channels))
    d2 = rng.normal(size=(bins, channels)) + 1j * rng.normal(size=(bins, channels))
    s1 = rng.normal(size=(frames, bins)) + 1j * rng.normal(size=(frames, bins))
    s2 = rng.normal(size=(frames, bins)) + 1j * rng.normal(size=(frames, bins))
    act1 = np.zeros(frames, dtype=bool)
    act2 = np.zeros(frames, dtype=bool)
    act1[: 2 * frames // 3] = True
    act2[frames // 3 :] = True
    x = (
        act1[:, None, None] * s1[:, :, None] * d1[None, :, :]
        + act2[:, None, None] * s2[:, :, None] * d2[None, :, :]
    )
    x += 0.01 * (
        rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape)
    )
    activity = ActivityPattern(
        ("one", "two"), np.stack([act1, act2, np.ones(frames, dtype=bool)])
    )
    return _spec(x), activity, act1, act2


# ---------------------------------------------------------- containers


def test_activity_pattern_requires_noise_row():
    with pytest.raises(ParameterError):
        ActivityPattern(("a",), np.array([[True, True], [True, False]]))
    pattern = ActivityPattern(("a",), np.ones((2, 4), dtype=bool))
    assert pattern.n_classes == 2
    assert pattern.class_index("a") == 0
    with pytest.raises(ParameterError):
        pattern.class_index("zz")


def test_mask_set_validates_simplex():
    good = np.full((2, 3, 4), 0.5)
    MaskSet(good)
    with pytest.raises(ParameterError):
        MaskSet(np.full((2, 3, 4), 0.4))
    with pytest.raises(ParameterError):
        MaskSet(-good)


def test_cacgmm_state_requires_hermitian():
    b = np.zeros((2, 2, 2, 2), dtype=complex)
    b[..., 0, 1] = 1j  # not Hermitian
    with pytest.raises(ParameterError):
        CacgmmState(b)


# --------------------------------------------------------------- em


def test_fit_masks_lie_on_simplex():
    for seed in range(6):
        spec, activity = _random_instance(seed)
        _, masks = fit_cacgmm(spec, activity, iterations=8, seed=seed)
        total = masks.gamma.sum(axis=0)
        assert np.max(np.abs(total - 1.0)) <= 1e-9


def test_fit_log_likelihood_non_decreasing():
    for seed in range(6):
        spec, activity = _random_instance(seed + 50)
        state, _ = fit_cacgmm(spec, activity, iterations=10, seed=seed)
        trace = np.asarray(state.log_likelihood_trace)
        assert trace.size == 10
        assert np.all(np.diff(trace) >= -1e-6), trace


def test_posteriors_scale_invariant():
    spec, activity = _random_instance(7)
    state, _ = fit_cacgmm(spec, activity, iterations=5, seed=7)
    rng = np.random.default_rng(8)
    scale = (
        rng.uniform(0.1, 10.0, size=spec.values.shape[:2])
        * np.exp(1j * rng.uniform(0, 2 * np.pi, size=spec.values.shape[:2]))
    )
    scaled = ComplexSpectrogram(spec.values * scale[:, :, None], SMALL, FS)
    base = cacgmm_posteriors(spec, activity, state).gamma
    moved = cacgmm_posteriors(scaled, activity, state).gamma
    assert np.max(np.abs(base - moved)) <= 1e-9


def test_inactive_class_has_exact_zero_posterior():
    spec, _ = _random_instance(9)
    active = np.ones((3, spec.frames), dtype=bool)
    active[0, :10] = False
    activity = ActivityPattern(("a", "b"), active)
    _, masks = fit_cacgmm(spec, activity, iterations=5, seed=9)
    assert np.all(masks.gamma[0, :10, :] == 0.0)


def test_zero_bins_get_uniform_posterior_over_active():
    spec, _ = _random_instance(10)
    values = spec.values.copy()
    values[3, 2, :] = 0.0
    spec = _spec(values)
    active = np.ones((3, spec.frames), dtype=bool)
    active[0, 3] = False  # two active classes remain at frame 3
    activity = ActivityPattern(("a", "b"), active)
    _, masks = fit_cacgmm(spec, activity, iterations=4, seed=10)
    np.testing.assert_allclose(masks.gamma[:, 3, 2], [0.0, 0.5, 0.5], atol=1e-12)


def test_fit_is_deterministic_per_seed():
    spec, activity = _random_instance(11)
    state1, masks1 = fit_cacgmm(spec, activity, iterations=6, seed=123)
    state2, masks2 = fit_cacgmm(spec, activity, iterations=6, seed=123)
    np.testing.assert_array_equal(masks1.gamma, masks2.gamma)
    np.testing.assert_array_equal(state1.B, state2.B)
    _, masks3 = fit_cacgmm(spec, activity, iterations=6, seed=124)
    assert np.any(masks3.gamma != masks1.gamma)


def test_fit_separates_spatially_distinct_sources():
    spec, activity, act1, act2 = _spatial_mixture(12)
    _, masks = fit_cacgmm(spec, activity, iterations=15, seed=12)
    solo1 = act1 & ~act2
    solo2 = act2 & ~act1
    # activity guidance pins class identity on solo regions
    assert masks.gamma[0, solo1, :].mean() > 0.7
    assert masks.gamma[1, solo2, :].mean() > 0.7


# -------------------------------------------------------- beamforming


def test_spatial_covariance_matches_hand_sum():
    spec, _ = _random_instance(13, frames=9, channels=3)
    rng = np.random.default_rng(13)
    weights = rng.random((9, 5))
    phi = spatial_covariance(spec, weights)
    assert phi.shape == (5, 3, 3)
    f = 2
    oracle = np.zeros((3, 3), dtype=complex)
    for t in range(9):
        v = spec.values[t, f]
        oracle += weights[t, f] * np.outer(v, v.conj())
    oracle /= weights[:, f].sum()
    np.testing.assert_allclose(phi[f], oracle, atol=1e-12)


def test_spatial_covariance_rejects_zero_weight_bin():
    spec, _ = _random_instance(14, frames=5)
    weights = np.ones((5, 5))
    weights[:, 1] = 0.0
    with pytest.raises(ParameterError):
        spatial_covariance(spec, weights)


def test_reference_channel_picks_best_ratio():
    bins, channels = 4, 3
    phi_ss = np.zeros((bins, channels, channels), dtype=complex)
    phi_nn = np.zeros_like(phi_ss)
    for f in range(bins):
        phi_ss[f] = np.diag([1.0, 5.0, 2.0])
        phi_nn[f] = np.diag([1.0, 1.0, 4.0])
    assert select_reference_channel(phi_ss, phi_nn) == 1


def test_mvdr_matches_rank_one_closed_form():
    rng = np.random.default_rng(15)
    bins, channels = 6, 3
    phi_ss = np.zeros((bins, channels, channels), dtype=complex)
    phi_nn = np.zeros_like(phi_ss)
    steering = rng.normal(size=(bins, channels)) + 1j * rng.normal(size=(bins, channels))
    for f in range(bins):
        a = rng.normal(size=(channels, channels)) + 1j * rng.normal(
            size=(channels, channels)
        )
        phi_nn[f] = a @ a.conj().T + np.eye(channels)
        phi_ss[f] = np.outer(steering[f], steering[f].conj())
    ref = 1
    weights = mvdr_weights(phi_ss, phi_nn, reference_channel=ref)
    assert weights.reference_channel == ref
    u = np.zeros(channels)
    u[ref] = 1.0
    for f in range(bins):
        num = np.linalg.solve(phi_nn[f], phi_ss[f])
        closed = (num @ u) / np.trace(num)
        np.testing.assert_allclose(weights.w[f], closed, atol=1e-10)
        # distortionless: response to the steering vector is its ref entry
        response = weights.w[f].conj() @ steering[f]
        assert response == pytest.approx(steering[f][ref], abs=1e-8)


def test_mvdr_loads_singular_noise_covariance():
    bins, channels = 2, 2
    d = np.array([1.0 + 0j, -1.0 + 0j])
    phi_ss = np.stack([np.outer(d, d.conj())] * bins)
    # rank-one noise covariance: singular but fixable by loading
    n = np.array([1.0 + 0j, 0.5 + 0j])
    phi_nn = np.stack([np.outer(n, n.conj())] * bins)
    weights = mvdr_weights(phi_ss, phi_nn, reference_channel=0)
    assert np.all(np.isfinite(weights.w.view(np.float64)))


def test_mvdr_weight_cap_rescales():
    bins, channels = 1, 2
    phi_ss = np.array([[[1.0 + 0j, 0.0], [0.0, 0.0]]]) * 1e-12
    phi_nn = np.array([np.eye(2, dtype=complex) * 1e-12])
    capped = mvdr_weights(phi_ss, phi_nn, reference_channel=0, weight_cap=0.1)
    assert np.max(np.abs(capped.w)) <= 0.1 + 1e-12


def test_mvdr_beamform_applies_weights():
    spec, activity = _random_instance(16, frames=30, bins=5, channels=2)
    _, masks = fit_cacgmm(spec, activity, iterations=4, seed=16)
    mono = mvdr_beamform(spec, masks, target_class=0)
    assert mono.values.shape == (30, 5, 1)
    # oracle: same covariances -> same weights -> same projection
    gamma = masks.gamma[0]
    phi_ss = spatial_covariance(spec, gamma)
    phi_nn = spatial_covariance(spec, 1.0 - gamma)
    ref = select_reference_channel(phi_ss, phi_nn)
    weights = mvdr_weights(phi_ss, phi_nn, reference_channel=ref)
    oracle = np.einsum("fc,tfc->tf", weights.w.conj(), spec.values)
    np.testing.assert_allclose(mono.values[:, :, 0], oracle, atol=1e-12)


# ------------------------------------------------------------ recipe


def test_segment_seed_is_stable_and_distinct():
    a = segment_seed(7, "spk1", 100, 900)
    assert a == segment_seed(7, "spk1", 100, 900)
    assert a != segment_seed(7, "spk1", 100, 901)
    assert a != segment_seed(7, "spk2", 100, 900)
    assert a != segment_seed(8, "spk1", 100, 900)
    assert 0 <= a < 2**63


def test_eligible_segments_orders_and_validates():
    p = StftParams()
    segs = DiarizationSet.from_rows(
        [
            ("s", "b", 1.0, 2.0),
            ("s", "a", 0.5, 1.5),
            ("s", "a", 0.0, 0.4),
        ]
    )
    ordered = eligible_segments(segs, p, 3 * FS, FS)
    assert [(spk, start) for spk, start, _ in ordered] == [
        ("a", 0.0),
        ("a", 0.5),
        ("b", 1.0),
    ]
    outside = DiarizationSet.from_rows([("s", "a", 2.0, 4.0)])
    with pytest.raises(RangeError):
        eligible_segments(outside, p, 3 * FS, FS)


def test_eligible_segments_skips_sub_frame_with_warning(caplog):
    p = StftParams()
    segs = DiarizationSet.from_rows(
        [("s", "a", 0.0, 0.01), ("s", "a", 1.0, 2.0)]  # 160 samples < 512
    )
    with caplog.at_level(logging.WARNING, logger="farfield.gss"):
        ordered = eligible_segments(segs, p, 3 * FS, FS)
    assert len(ordered) == 1
    assert ordered[0][1] == 1.0
    assert any("short" in rec.message.lower() for rec in caplog.records)


def test_eligible_segments_rejects_multiple_sessions():
    segs = DiarizationSet.from_rows([("s1", "a", 0.0, 1.0), ("s2", "a", 0.0, 1.0)])
    with pytest.raises(ParameterError):
        eligible_segments(segs, StftParams(), 3 * FS, FS)


def _toy_meeting(seed):
    from farfield import MixturePlan, PlannedSource, RoomSpec, make_meeting

    rng = np.random.default_rng(seed)
    room = RoomSpec(
        dimensions=(6.0, 5.0, 3.0),
        absorption=0.5,
        max_order=1,
        sample_rate_hz=FS,
        source_positions=((1.8, 3.6, 1.6), (4.3, 1.4, 1.5)),
        mic_positions=((2.95, 2.45, 1.4), (3.05, 2.55, 1.4)),
    )
    t = np.arange(int(1.6 * FS)) / FS

    def src(f_env):
        env = 0.55 + 0.45 * np.sin(2 * np.pi * f_env * t + rng.uniform(0, 6))
        return WaveformBuffer(0.1 * env * rng.normal(size=t.size), FS)

    plan = MixturePlan(
        sources=(
            PlannedSource("p", src(2.3), 0.0),
            PlannedSource("q", src(3.1), 0.6),
        ),
        snr_db=20.0,
        seed=seed,
        session="m",
    )
    return make_meeting(plan, room)


def _toy_segments():
    return DiarizationSet.from_rows([("m", "p", 0.0, 1.6), ("m", "q", 0.6, 2.2)])


def test_gss_enhance_structure_and_lengths():
    meeting = _toy_meeting(0)
    cfg = GssConfig(stft=StftParams(), wpe=None, em_iterations=10, seed=0)
    out = gss_enhance(meeting.mixture, _toy_segments(), cfg)
    assert sorted(out) == ["p", "q"]
    assert len(out["p"]) == 1 and len(out["q"]) == 1
    assert out["p"][0].channels == 1
    assert out["p"][0].n_samples == int(1.6 * FS)
    assert out["q"][0].n_samples == int(2.2 * FS) - int(0.6 * FS)


def test_gss_enhance_rejects_mono_input():
    meeting = _toy_meeting(0)
    mono = WaveformBuffer(meeting.mixture.samples[:1], FS)
    cfg = GssConfig(stft=StftParams(), wpe=None, em_iterations=2, seed=0)
    with pytest.raises(DataError, match="at least 2 channels, got 1"):
        gss_enhance(mono, _toy_segments(), cfg)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_gss_enhance_rejects_non_finite_input(value):
    meeting = _toy_meeting(0)
    samples = meeting.mixture.samples.copy()
    samples[1, 4321] = value
    cfg = GssConfig(stft=StftParams(), wpe=None, em_iterations=2, seed=0)
    with pytest.raises(
        DataError, match=r"non-finite sample .* in channel 1 at sample index 4321$"
    ):
        gss_enhance(WaveformBuffer(samples, FS), _toy_segments(), cfg)


def test_gss_enhance_is_deterministic():
    meeting = _toy_meeting(1)
    cfg = GssConfig(stft=StftParams(), wpe=None, em_iterations=8, seed=42)
    a = gss_enhance(meeting.mixture, _toy_segments(), cfg)
    b = gss_enhance(meeting.mixture, _toy_segments(), cfg)
    for spk in a:
        np.testing.assert_array_equal(a[spk][0].samples, b[spk][0].samples)


def test_gss_enhance_postfilter_changes_output():
    meeting = _toy_meeting(2)
    base = GssConfig(stft=StftParams(), wpe=None, em_iterations=8, seed=0)
    filtered = GssConfig(
        stft=StftParams(), wpe=None, em_iterations=8, seed=0, masking_postfilter=True
    )
    a = gss_enhance(meeting.mixture, _toy_segments(), base)
    b = gss_enhance(meeting.mixture, _toy_segments(), filtered)
    assert np.any(a["p"][0].samples != b["p"][0].samples)


def test_gss_single_speaker_clean_anechoic_passthrough():
    # one speaker, no interference, anechoic room: output ~ input segment
    from farfield import MixturePlan, PlannedSource, RoomSpec, make_meeting

    rng = np.random.default_rng(3)
    room = RoomSpec(
        dimensions=(6.0, 5.0, 3.0),
        absorption=0.5,
        max_order=0,
        sample_rate_hz=FS,
        source_positions=((1.8, 3.6, 1.6),),
        mic_positions=((2.95, 2.45, 1.4), (3.05, 2.55, 1.4)),
    )
    t = np.arange(int(1.2 * FS)) / FS
    env = 0.6 + 0.4 * np.sin(2 * np.pi * 2.0 * t)
    dry = WaveformBuffer(0.1 * env * rng.normal(size=t.size), FS)
    plan = MixturePlan(
        sources=(PlannedSource("solo", dry, 0.0),), snr_db=40.0, seed=3, session="m"
    )
    meeting = make_meeting(plan, room)
    segs = DiarizationSet.from_rows([("m", "solo", 0.05, 1.15)])
    cfg = GssConfig(stft=StftParams(), wpe=None, em_iterations=10, seed=3)
    out = gss_enhance(meeting.mixture, segs, cfg)
    est = out["solo"][0].samples[0]
    lo, hi = int(0.05 * FS), int(1.15 * FS)
    rho = max(
        abs(np.corrcoef(est, meeting.mixture.samples[c, lo:hi])[0, 1]) for c in range(2)
    )
    assert rho >= 0.99


# ------------------------------------------------- one fit per window

_SMALL_WPE = WpeConfig(taps=4, delay=2, iterations=2)


def _assert_same_outputs(actual, expected):
    assert list(actual) == list(expected)
    for spk in expected:
        assert len(actual[spk]) == len(expected[spk])
        for a, b in zip(actual[spk], expected[spk]):
            assert a.samples.tobytes() == b.samples.tobytes()


def _first_target_seed(cfg, segments, n_samples):
    speaker, start_s, end_s = eligible_segments(segments, cfg.stft, n_samples, FS)[0]
    seed = segment_seed(cfg.seed, speaker, round(start_s * 1000), round(end_s * 1000))
    return lambda *_: seed


def test_single_target_windows_match_the_per_segment_recipe():
    meeting = _toy_meeting(3)
    # 0.1 s of context keeps the two windows apart
    cfg = GssConfig(wpe=_SMALL_WPE, em_iterations=6, context_s=0.1, seed=5)
    segments = _toy_segments()
    out = gss_enhance(meeting.mixture, segments, cfg)
    _assert_same_outputs(out, ref.enhance_per_segment(meeting.mixture, segments, cfg))


@pytest.mark.parametrize("postfilter", [False, True])
def test_targets_sharing_a_window_use_one_fit_seeded_by_the_first(postfilter):
    meeting = _toy_meeting(4)
    # both windows clip to the whole file
    cfg = GssConfig(
        wpe=_SMALL_WPE, em_iterations=6, seed=9, masking_postfilter=postfilter
    )
    segments = _toy_segments()
    out = gss_enhance(meeting.mixture, segments, cfg)
    seed_for = _first_target_seed(cfg, segments, meeting.mixture.n_samples)
    _assert_same_outputs(
        out, ref.enhance_per_segment(meeting.mixture, segments, cfg, seed_for)
    )
    # the second target's own seed would give a different fit
    per_segment = ref.enhance_per_segment(meeting.mixture, segments, cfg)
    assert per_segment["p"][0].samples.tobytes() == out["p"][0].samples.tobytes()
    assert per_segment["q"][0].samples.tobytes() != out["q"][0].samples.tobytes()


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(gss_module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gss_module, name, spy)
    return calls


def test_each_distinct_window_is_analysed_once(monkeypatch):
    meeting = _toy_meeting(5)
    segments = DiarizationSet.from_rows(
        [
            ("m", "p", 0.0, 0.5),  # window [0, 0.8]
            ("m", "p", 0.6, 1.6),  # window [0.3, 1.9], shared ...
            ("m", "q", 0.6, 1.6),  # ... with this target
            ("m", "q", 1.7, 2.2),  # window [1.4, 2.2]
        ]
    )
    cfg = GssConfig(wpe=_SMALL_WPE, em_iterations=3, context_s=0.3, seed=1)
    counts = {
        name: _count_calls(monkeypatch, name)
        for name in ("stft", "wpe", "fit_cacgmm", "mvdr_beamform", "istft")
    }
    out = gss_enhance(meeting.mixture, segments, cfg)
    assert {name: len(c) for name, c in counts.items()} == {
        "stft": 3,
        "wpe": 3,
        "fit_cacgmm": 3,
        "mvdr_beamform": 4,
        "istft": 4,
    }
    assert [w.n_samples for w in out["p"]] == [8000, 16000]
    assert [w.n_samples for w in out["q"]] == [16000, 8000]


def test_dropped_sub_frame_segment_keeps_order_lengths_and_seed():
    meeting = _toy_meeting(6)
    # the sub-frame segment sorts first but is dropped: the window's fit
    # takes its seed from the first target that remains
    segments = DiarizationSet.from_rows(
        [
            ("m", "p", 1.2, 2.0),
            ("m", "q", 0.0, 0.01),
            ("m", "q", 0.6, 2.2),
            ("m", "p", 0.0, 1.6),
        ]
    )
    cfg = GssConfig(wpe=None, em_iterations=6, seed=2)
    out = gss_enhance(meeting.mixture, segments, cfg)
    assert [w.n_samples for w in out["p"]] == [int(1.6 * FS), int(0.8 * FS)]
    assert [w.n_samples for w in out["q"]] == [int(2.2 * FS) - int(0.6 * FS)]
    seed_for = _first_target_seed(cfg, segments, meeting.mixture.n_samples)
    _assert_same_outputs(
        out, ref.enhance_per_segment(meeting.mixture, segments, cfg, seed_for)
    )
