import importlib
import logging
import threading

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
    StftParams,
    WaveformBuffer,
    WpeConfig,
    cacgmm_posteriors,
    eligible_segments,
    fit_cacgmm,
    gss_enhance,
    mvdr_beamform,
    mvdr_weights,
    select_reference_channel,
    spatial_covariance,
)

gss_module = importlib.import_module("farfield.gss")
linalg_module = importlib.import_module("farfield.linalg")

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mask_set_rejects_non_finite_entries(bad):
    gamma = np.full((2, 3, 4), 0.5)
    gamma[1, 2, 3] = bad
    with pytest.raises(ParameterError, match="finite"):
        MaskSet(gamma)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_cacgmm_state_rejects_non_finite_entries(bad):
    b = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2, 2)).copy()
    b[1, 0, 1, 1] = bad
    with pytest.raises(ParameterError, match="finite"):
        CacgmmState(b)


@pytest.mark.parametrize(
    "name, value",
    [
        ("iterations", 2.5),
        ("iterations", True),
        ("iterations", 0),
        ("iterations", 1001),
        ("iterations", 999999999999),
    ],
)
def test_fit_cacgmm_rejects_bad_iterations(name, value):
    spec, activity = _random_instance(0, frames=10)
    with pytest.raises(ParameterError, match=f"^{name} must be"):
        fit_cacgmm(spec, activity, **{name: value})


# --------------------------------------------------------------- em


def test_fit_masks_lie_on_simplex():
    for seed in range(6):
        spec, activity = _random_instance(seed)
        _, masks = fit_cacgmm(spec, activity, iterations=8)
        total = masks.gamma.sum(axis=0)
        assert np.max(np.abs(total - 1.0)) <= 1e-9


def test_fit_log_likelihood_non_decreasing():
    for seed in range(6):
        spec, activity = _random_instance(seed + 50)
        state, _ = fit_cacgmm(spec, activity, iterations=10)
        trace = np.asarray(state.log_likelihood_trace)
        assert trace.size == 10
        assert np.all(np.diff(trace) >= -1e-6), trace


def test_posteriors_scale_invariant():
    spec, activity = _random_instance(7)
    state, _ = fit_cacgmm(spec, activity, iterations=5)
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
    _, masks = fit_cacgmm(spec, activity, iterations=5)
    assert np.all(masks.gamma[0, :10, :] == 0.0)


def test_zero_bins_get_uniform_posterior_over_active():
    spec, _ = _random_instance(10)
    values = spec.values.copy()
    values[3, 2, :] = 0.0
    spec = _spec(values)
    active = np.ones((3, spec.frames), dtype=bool)
    active[0, 3] = False  # two active classes remain at frame 3
    activity = ActivityPattern(("a", "b"), active)
    _, masks = fit_cacgmm(spec, activity, iterations=4)
    np.testing.assert_allclose(masks.gamma[:, 3, 2], [0.0, 0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("channels", [2, 3, 5, 6])
def test_fit_covariances_are_exactly_hermitian(channels):
    # class 0 never talks, so it keeps B = I; the E-step packs only the
    # upper triangle of B^-1, so every B must be exactly Hermitian
    spec, _ = _random_instance(12, channels=channels)
    active = np.ones((3, spec.frames), dtype=bool)
    active[0] = False
    state, _ = fit_cacgmm(spec, ActivityPattern(("a", "b"), active), iterations=3)
    b = state.B
    np.testing.assert_array_equal(b, np.conj(np.swapaxes(b, 2, 3)))


def test_fit_is_deterministic():
    spec, activity = _random_instance(11)
    state1, masks1 = fit_cacgmm(spec, activity, iterations=6)
    state2, masks2 = fit_cacgmm(spec, activity, iterations=6)
    np.testing.assert_array_equal(masks1.gamma, masks2.gamma)
    np.testing.assert_array_equal(state1.B, state2.B)


@pytest.mark.parametrize("tied", [(0, 1), (1, 2)], ids=["two_speakers", "speaker_and_noise"])
def test_classes_with_equal_activity_rows_stay_equal(tied):
    # from B = I, classes with equal activity rows get equal masks at
    # every E-step and equal covariances at every M-step: the same bits
    spec, _ = _random_instance(17, channels=3)
    active = np.ones((3, spec.frames), dtype=bool)
    active[0] = np.random.default_rng(17).random(spec.frames) < 0.6
    active[1] = active[0] if tied == (0, 1) else True  # else b talks throughout
    state, masks = fit_cacgmm(spec, ActivityPattern(("a", "b"), active), iterations=6)
    i, j = tied
    np.testing.assert_array_equal(state.B[:, i], state.B[:, j])
    np.testing.assert_array_equal(masks.gamma[i], masks.gamma[j])


def test_fit_separates_spatially_distinct_sources():
    spec, activity, act1, act2 = _spatial_mixture(12)
    _, masks = fit_cacgmm(spec, activity, iterations=15)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spatial_covariance_rejects_non_finite_weight(bad):
    spec, _ = _random_instance(14, frames=5)
    weights = np.ones((5, 5))
    weights[2, 3] = bad
    with pytest.raises(ParameterError, match="finite"):
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
    weights = mvdr_weights(phi_ss, phi_nn)
    ref = weights.reference_channel
    assert ref == select_reference_channel(phi_ss, phi_nn)
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
    weights = mvdr_weights(phi_ss, phi_nn)
    assert np.all(np.isfinite(weights.w.view(np.float64)))


def test_mvdr_weight_cap_rescales():
    # a zero-trace target covariance: the 1e-10 trace floor divides the
    # reference column (0, 1) up to length 1e10, which is rescaled onto 1e4
    phi_ss = np.array([[[0.0, 1.0], [1.0, 0.0]]], dtype=complex)
    phi_nn = np.array([np.eye(2, dtype=complex)])
    capped = mvdr_weights(phi_ss, phi_nn)
    assert capped.reference_channel == 0
    np.testing.assert_allclose(capped.w, [[0.0, 1e4]], rtol=1e-12)


def test_mvdr_beamform_applies_weights():
    spec, activity = _random_instance(16, frames=30, bins=5, channels=2)
    _, masks = fit_cacgmm(spec, activity, iterations=4)
    mono = mvdr_beamform(spec, masks, target_class=0)
    assert mono.values.shape == (30, 5, 1)
    # oracle: same covariances -> same weights -> same projection
    gamma = masks.gamma[0]
    phi_ss = spatial_covariance(spec, gamma)
    phi_nn = spatial_covariance(spec, 1.0 - gamma)
    weights = mvdr_weights(phi_ss, phi_nn)
    oracle = np.einsum("fc,tfc->tf", weights.w.conj(), spec.values)
    np.testing.assert_allclose(mono.values[:, :, 0], oracle, atol=1e-12)


@pytest.mark.parametrize("target_class", [1.5, True, "0", -1, 3])
def test_mvdr_beamform_rejects_a_bad_target_class(target_class):
    spec, _ = _random_instance(16, frames=30, bins=5, channels=2)
    masks = MaskSet(np.full((3, 30, 5), 1.0 / 3.0))
    with pytest.raises(ParameterError, match="^target_class "):
        mvdr_beamform(spec, masks, target_class)


# ------------------------------------------------------------ recipe


def test_eligible_segments_orders_and_validates():
    segs = DiarizationSet.from_rows(
        [
            ("s", "b", 1.0, 2.0),
            ("s", "a", 0.5, 1.5),
            ("s", "a", 0.0, 0.4),
        ]
    )
    ordered = eligible_segments(segs, 3 * FS, FS)
    assert [(spk, start) for spk, start, _ in ordered] == [
        ("a", 0.0),
        ("a", 0.5),
        ("b", 1.0),
    ]
    outside = DiarizationSet.from_rows([("s", "a", 2.0, 4.0)])
    with pytest.raises(DataError, match="outside"):
        eligible_segments(outside, 3 * FS, FS)


def test_eligible_segments_skips_sub_frame_with_warning(caplog):
    segs = DiarizationSet.from_rows(
        [("s", "a", 0.0, 0.01), ("s", "a", 1.0, 2.0)]  # 160 samples < 512
    )
    with caplog.at_level(logging.WARNING, logger="farfield.gss"):
        ordered = eligible_segments(segs, 3 * FS, FS)
    assert len(ordered) == 1
    assert ordered[0][1] == 1.0
    assert any("short" in rec.message.lower() for rec in caplog.records)


def test_eligible_segments_rejects_multiple_sessions():
    segs = DiarizationSet.from_rows([("s1", "a", 0.0, 1.0), ("s2", "a", 0.0, 1.0)])
    with pytest.raises(ParameterError):
        eligible_segments(segs, 3 * FS, FS)


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


P_SEGMENT = ("p", 0.0, 1.6)
Q_SEGMENT = ("q", 0.6, 2.2)


def _toy_segments():
    return DiarizationSet.from_rows([("m", *P_SEGMENT), ("m", *Q_SEGMENT)])


def test_gss_enhance_structure_and_lengths():
    meeting = _toy_meeting(0)
    cfg = GssConfig(wpe=None, em_iterations=10)
    out = gss_enhance(meeting.mixture, _toy_segments(), cfg)
    assert list(out) == [P_SEGMENT, Q_SEGMENT]
    assert out[P_SEGMENT].channels == 1
    assert out[P_SEGMENT].n_samples == int(1.6 * FS)
    assert out[Q_SEGMENT].n_samples == int(2.2 * FS) - int(0.6 * FS)


def test_gss_enhance_keys_are_the_eligible_segments_in_order():
    meeting = _toy_meeting(0)
    # unsorted, with a repeated line and a sub-frame segment
    segments = DiarizationSet.from_rows(
        [
            ("m", *Q_SEGMENT),
            ("m", "p", 1.2, 2.0),
            ("m", *P_SEGMENT),
            ("m", "q", 0.0, 0.01),
            ("m", *Q_SEGMENT),
        ]
    )
    cfg = GssConfig(wpe=None, em_iterations=2)
    out = gss_enhance(meeting.mixture, segments, cfg)
    expected = [P_SEGMENT, Q_SEGMENT, ("p", 1.2, 2.0)]
    assert eligible_segments(segments, meeting.mixture.n_samples, FS) == expected
    assert list(out) == expected


def test_gss_enhance_without_segments_returns_an_empty_dict():
    meeting = _toy_meeting(0)
    cfg = GssConfig(wpe=None, em_iterations=2)
    assert gss_enhance(meeting.mixture, DiarizationSet(()), cfg) == {}


def test_gss_enhance_rejects_mono_input():
    meeting = _toy_meeting(0)
    mono = WaveformBuffer(meeting.mixture.samples[:1], FS)
    cfg = GssConfig(wpe=None, em_iterations=2)
    with pytest.raises(DataError, match="at least 2 channels, got 1"):
        gss_enhance(mono, _toy_segments(), cfg)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_gss_enhance_rejects_non_finite_input(value):
    meeting = _toy_meeting(0)
    samples = meeting.mixture.samples.copy()
    samples[1, 4321] = value
    cfg = GssConfig(wpe=None, em_iterations=2)
    with pytest.raises(
        DataError, match=r"non-finite sample .* in channel 1 at sample index 4321$"
    ):
        gss_enhance(WaveformBuffer(samples, FS), _toy_segments(), cfg)


@pytest.mark.parametrize(
    "rows, named",
    [
        ([("s", "a", 0.1, 0.3), ("s", "b", 0.5, 0.9)], r"segment a \[0\.1, 0\.3\]"),
        ([("s", "a", 0.1, 0.5), ("s", "b", 0.7, 0.9)], r"segment b \[0\.7, 0\.9\]"),
    ],
    ids=["first-window", "later-window"],
)
def test_gss_enhance_rejects_a_context_window_too_short_for_wpe(monkeypatch, rows, named):
    # 0.2 s is 28 frames; WPE with taps 10, delay 3 on 4 mics needs 43
    wav = WaveformBuffer(np.random.default_rng(0).normal(size=(4, FS)), FS)
    calls = _count_calls(monkeypatch, "stft")
    with pytest.raises(DataError, match=named + ": .* 28 frames, fewer than the 43 "):
        gss_enhance(wav, DiarizationSet.from_rows(rows), GssConfig(context_s=0.0))
    assert calls == []  # rejected before any window is analysed


def test_gss_enhance_is_deterministic():
    meeting = _toy_meeting(1)
    cfg = GssConfig(wpe=None, em_iterations=8)
    a = gss_enhance(meeting.mixture, _toy_segments(), cfg)
    b = gss_enhance(meeting.mixture, _toy_segments(), cfg)
    for key in a:
        np.testing.assert_array_equal(a[key].samples, b[key].samples)


def test_gss_enhance_leaves_no_threads_and_restores_the_blas_thread_count(monkeypatch):
    # two workers even on one core, so both the WPE and the EM blocks use the pool
    monkeypatch.setattr(linalg_module, "worker_count", lambda: 2)
    blas = linalg_module._openblas_threads()
    saved = blas[0]() if blas else None
    if blas:
        blas[1](2)
    try:
        threads = threading.active_count()
        cfg = GssConfig(wpe=WpeConfig(taps=2, delay=1, iterations=1), em_iterations=2)
        assert gss_enhance(_toy_meeting(0).mixture, _toy_segments(), cfg)
        assert threading.active_count() == threads
        if blas:
            assert blas[0]() == 2
    finally:
        if blas:
            blas[1](saved)


def test_gss_enhance_identical_channels_take_the_loading_retry(monkeypatch):
    # one wav listed twice: every noise covariance is exactly singular
    meeting = _toy_meeting(2)
    twice = WaveformBuffer(np.repeat(meeting.mixture.samples[:1], 2, axis=0), FS)
    failures = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            failures.append(np.shape(a))
            raise

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    cfg = GssConfig(wpe=WpeConfig(taps=2, delay=1, iterations=1), em_iterations=2)
    a = gss_enhance(twice, _toy_segments(), cfg)
    assert (2, 2) in failures  # a single bin failed alone and was loaded
    assert all(np.all(np.isfinite(out.samples)) for out in a.values())
    b = gss_enhance(twice, _toy_segments(), cfg)
    for key in a:
        assert a[key].samples.tobytes() == b[key].samples.tobytes()


def test_gss_enhance_keeps_its_gain_on_a_session_of_overlapping_windows():
    # 5 turns of 3 speakers, 1.6 s every 1.2 s, on 4 mics; a 1 s context
    # gives each turn its own 3.6 s window, overlapping its neighbours'.
    # Mean and worst-segment SI-SDR gains over the best raw channel on
    # seeds 1-3: 5.047 / 2.989, 4.635 / 2.126 and 4.749 / 1.655 dB
    from farfield import MixturePlan, PlannedSource, RoomSpec, make_meeting, si_sdr

    rng = np.random.default_rng(1)
    turns = [("abc"[i % 3], round(0.3 + 1.2 * i, 3), round(1.9 + 1.2 * i, 3)) for i in range(5)]
    tracks = {s: np.zeros(int(7.0 * FS)) for s in "abc"}
    for speaker, a, b in turns:
        lo, hi = int(round(a * FS)), int(round(b * FS))
        t = np.arange(hi - lo) / FS
        env = 0.55 + 0.45 * np.sin(2 * np.pi * rng.uniform(2, 4) * t + rng.uniform(0, 2 * np.pi))
        tracks[speaker][lo:hi] = 0.1 * env * rng.standard_normal(hi - lo)
    room = RoomSpec(
        dimensions=(6.0, 5.0, 3.0),
        absorption=0.5,
        max_order=3,
        sample_rate_hz=FS,
        source_positions=((1.8, 3.6, 1.6), (4.3, 1.4, 1.5), (4.1, 3.9, 1.7)),
        mic_positions=((2.95, 2.45, 1.4), (3.05, 2.55, 1.4), (2.95, 2.55, 1.4), (3.05, 2.45, 1.4)),
    )
    plan = MixturePlan(
        sources=tuple(PlannedSource(s, WaveformBuffer(tracks[s], FS)) for s in "abc"),
        snr_db=20.0,
        seed=1,
        session="mtg",
    )
    sim = make_meeting(plan, room)
    segments = DiarizationSet.from_rows([("mtg", *turn) for turn in turns])
    out = gss_enhance(sim.mixture, segments, GssConfig(context_s=1.0))
    gains = []
    for speaker, a, b in turns:
        lo, hi = int(round(a * FS)), int(round(b * FS))
        image = sim.images[speaker].samples[:, lo:hi]
        mix = sim.mixture.samples[:, lo:hi]
        est = out[speaker, a, b].samples[0]
        raw = max(si_sdr(mix[c], image[c]) for c in range(4))
        gains.append(max(si_sdr(est, image[c]) for c in range(4)) - raw)
    assert np.mean(gains) >= 4.0, gains
    assert min(gains) >= 1.0, gains


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
    cfg = GssConfig(wpe=None, em_iterations=10)
    out = gss_enhance(meeting.mixture, segs, cfg)
    est = out["solo", 0.05, 1.15].samples[0]
    lo, hi = int(0.05 * FS), int(1.15 * FS)
    rho = max(
        abs(np.corrcoef(est, meeting.mixture.samples[c, lo:hi])[0, 1]) for c in range(2)
    )
    assert rho >= 0.99


@pytest.mark.parametrize("snr_db", [20.0, 5.0])
def test_gss_enhance_loses_nothing_when_a_speaker_spans_the_whole_file(snr_db):
    # one speaker's segment covers the whole file, so its activity row equals
    # the noise row and the two classes cannot be told apart: the masks split
    # evenly and the MVDR passes the reference channel through, scaled
    from farfield import MixturePlan, PlannedSource, RoomSpec, make_meeting, si_sdr

    rng = np.random.default_rng(0)
    n = int(1.2 * FS)
    t = np.arange(n) / FS
    env = 0.55 + 0.45 * np.sin(2 * np.pi * rng.uniform(2, 4) * t + rng.uniform(0, 2 * np.pi))
    dry = WaveformBuffer(0.1 * env * rng.standard_normal(n), FS)
    room = RoomSpec(
        dimensions=(6.0, 5.0, 3.0),
        absorption=0.5,
        max_order=3,
        sample_rate_hz=FS,
        source_positions=((1.8, 3.6, 1.6),),
        mic_positions=((2.95, 2.45, 1.4), (3.05, 2.55, 1.4), (2.95, 2.55, 1.4), (3.05, 2.45, 1.4)),
    )
    plan = MixturePlan(
        sources=(PlannedSource("solo", dry, 0.0),), snr_db=snr_db, seed=0, session="m"
    )
    sim = make_meeting(plan, room)
    end_s = sim.mixture.n_samples / FS
    segments = DiarizationSet.from_rows([("m", "solo", 0.0, end_s)])
    est = gss_enhance(sim.mixture, segments, GssConfig(wpe=None))["solo", 0.0, end_s]
    image, mix = sim.images["solo"].samples, sim.mixture.samples
    raw = max(si_sdr(mix[c], image[c]) for c in range(4))
    gain = max(si_sdr(est.samples[0], image[c]) for c in range(4)) - raw
    assert gain >= -1e-6, gain


# ------------------------------------------------- one fit per window

_SMALL_WPE = WpeConfig(taps=4, delay=2, iterations=2)


def _assert_same_outputs(actual, expected):
    assert list(actual) == list(expected)
    for key in expected:
        assert actual[key].samples.tobytes() == expected[key].samples.tobytes()


def test_single_target_windows_match_the_per_segment_recipe():
    meeting = _toy_meeting(3)
    # 0.1 s of context keeps the two windows apart
    cfg = GssConfig(wpe=_SMALL_WPE, em_iterations=6, context_s=0.1)
    segments = _toy_segments()
    out = gss_enhance(meeting.mixture, segments, cfg)
    _assert_same_outputs(out, ref.enhance_per_segment(meeting.mixture, segments, cfg))


def test_targets_sharing_a_window_use_one_fit():
    meeting = _toy_meeting(4)
    # both windows clip to the whole file: one fit serves both targets and
    # equals the fit each target gets alone
    cfg = GssConfig(wpe=_SMALL_WPE, em_iterations=6)
    segments = _toy_segments()
    out = gss_enhance(meeting.mixture, segments, cfg)
    _assert_same_outputs(out, ref.enhance_per_segment(meeting.mixture, segments, cfg))


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
    cfg = GssConfig(wpe=_SMALL_WPE, em_iterations=3, context_s=0.3)
    counts = {
        name: _count_calls(monkeypatch, name)
        for name in ("stft", "wpe", "fit_cacgmm", "mvdr_weights", "istft")
    }
    out = gss_enhance(meeting.mixture, segments, cfg)
    assert {name: len(c) for name, c in counts.items()} == {
        "stft": 3,
        "wpe": 3,
        "fit_cacgmm": 3,
        "mvdr_weights": 4,
        "istft": 4,
    }
    assert [(key, w.n_samples) for key, w in out.items()] == [
        (("p", 0.0, 0.5), 8000),
        (("p", 0.6, 1.6), 16000),
        (("q", 0.6, 1.6), 16000),
        (("q", 1.7, 2.2), 8000),
    ]


def test_targets_of_one_speaker_in_a_window_share_one_beamformer(monkeypatch):
    meeting = _toy_meeting(7)
    # with the default 15 s of context every window clips to the whole
    # file: one analysis, then one beamformer and one synthesis per speaker
    segments = DiarizationSet.from_rows(
        [("m", *P_SEGMENT), ("m", *Q_SEGMENT), ("m", "p", 1.2, 2.0)]
    )
    cfg = GssConfig(wpe=_SMALL_WPE, em_iterations=3)
    counts = {
        name: _count_calls(monkeypatch, name)
        for name in ("stft", "wpe", "fit_cacgmm", "mvdr_weights", "istft")
    }
    out = gss_enhance(meeting.mixture, segments, cfg)
    assert {name: len(c) for name, c in counts.items()} == {
        "stft": 1,
        "wpe": 1,
        "fit_cacgmm": 1,
        "mvdr_weights": 2,
        "istft": 2,
    }
    # p, then q: each beamformer gets its own class's target covariance
    spec, activity, iterations = counts["fit_cacgmm"][0]
    assert activity.speakers == ("p", "q")
    _, masks = fit_cacgmm(spec, activity, iterations)
    for k, (phi_ss, _) in enumerate(counts["mvdr_weights"]):
        expected = spatial_covariance(spec, masks.gamma[k])
        atol = 1e-12 * np.abs(expected).max()
        np.testing.assert_allclose(phi_ss, expected, rtol=1e-10, atol=atol)
    # trimmed from one signal, yet owning their samples
    assert not np.shares_memory(out[P_SEGMENT].samples, out["p", 1.2, 2.0].samples)
    _assert_same_outputs(out, ref.enhance_per_segment(meeting.mixture, segments, cfg))


def test_dropped_sub_frame_segment_keeps_order_and_lengths():
    meeting = _toy_meeting(6)
    # the sub-frame segment sorts first but is dropped: it gets no output,
    # and the targets that remain match the per-segment recipe
    segments = DiarizationSet.from_rows(
        [
            ("m", "p", 1.2, 2.0),
            ("m", "q", 0.0, 0.01),
            ("m", "q", 0.6, 2.2),
            ("m", "p", 0.0, 1.6),
        ]
    )
    cfg = GssConfig(wpe=None, em_iterations=6)
    out = gss_enhance(meeting.mixture, segments, cfg)
    assert [(key, w.n_samples) for key, w in out.items()] == [
        (("p", 0.0, 1.6), int(1.6 * FS)),
        (("q", 0.6, 2.2), int(2.2 * FS) - int(0.6 * FS)),
        (("p", 1.2, 2.0), int(0.8 * FS)),
    ]
    _assert_same_outputs(out, ref.enhance_per_segment(meeting.mixture, segments, cfg))


# with 16384 Hz the 128-sample frame shift is 1/128 s, so times that are
# multiples of 1/16384 s reach the planner as exact sample counts
EXACT_FS = 16384


def _planned_vs_frame_rule(segments, n_samples, context_s):
    wav = WaveformBuffer(np.zeros((2, n_samples)), EXACT_FS)
    todo = eligible_segments(segments, n_samples, EXACT_FS)
    cfg = GssConfig(wpe=None, context_s=context_s)
    windows = gss_module._plan_windows(wav, segments, todo, cfg)
    assert windows
    for lo, hi, activity, targets in windows:
        # the window's bounds in seconds come from its first target
        _, start_s, end_s = todo[min(min(ix) for ix in targets.values())]
        win_start = max(0.0, start_s - context_s)
        win_end = min(n_samples / EXACT_FS, end_s + context_s)
        want = ref.frame_activity(segments, win_start, win_end, activity.active.shape[1], EXACT_FS)
        assert activity.speakers == want.speakers
        np.testing.assert_array_equal(activity.active, want.active)


@pytest.mark.parametrize("context_s", [0.0, 0.1, 0.25, 15.0])
def test_planned_activity_equals_the_frame_rule(context_s):
    # frame i spans samples [128 i - 384, 128 i + 128) of its window
    s = 1 / EXACT_FS
    segments = DiarizationSet.from_rows(
        [
            ("m", "p", 384 * s, 1280 * s),  # bounds on a frame's end and on a frame's start
            ("m", "q", 0.25, 0.25 + 64 * s),  # shorter than one frame shift
            ("m", "q", 0.5, 0.5 + s),  # one sample
            ("m", "r", 0.0, 2.0),  # past both edges of every shorter window
            ("m", "q", 0.75 - s, 0.75 + 128 * s),  # one sample before a frame edge
            ("m", "p", 1.0 + 5 * s, 1.75 + 3 * s),
            ("m", "r", 1.5 - 383 * s, 1.5 + 129 * s),
        ]
    )
    _planned_vs_frame_rule(segments, 2 * EXACT_FS, context_s)


@pytest.mark.parametrize("seed", range(6))
def test_planned_activity_equals_the_frame_rule_on_random_sessions(seed):
    # segment bounds at frame edges, one sample either side, or anywhere
    rng = np.random.default_rng(seed)
    n_samples = 3 * EXACT_FS
    rows = []
    for _ in range(12):
        a, b = np.sort(rng.integers(0, n_samples // 128 + 1, 2)) * 128
        a, b = a + rng.choice([-1, 0, 1, 0, rng.integers(128)]), b + rng.choice([-1, 0, 1, 64])
        a, b = max(int(a), 0), min(int(b), n_samples)
        if a < b:
            rows.append(("m", str(rng.choice(["p", "q", "r"])), a / EXACT_FS, b / EXACT_FS))
    context_s = float(rng.choice([0.0, 0.3, 1.0]))
    _planned_vs_frame_rule(DiarizationSet.from_rows(rows), n_samples, context_s)
