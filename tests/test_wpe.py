import numpy as np
import pytest

from farfield import (
    ComplexSpectrogram,
    MixturePlan,
    ParameterError,
    PlannedSource,
    RoomSpec,
    StftParams,
    WaveformBuffer,
    WpeConfig,
    image_source_rir,
    make_meeting,
    si_sdr,
    stft,
    wpe,
    wpe_objective,
)
from farfield.wpe import _powers, min_frames

FS = 16000


def _random_spec(seed, frames=60, bins=5, channels=2):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(frames, bins, channels)) + 1j * rng.normal(
        size=(frames, bins, channels)
    )
    p = StftParams(frame_length=8, frame_shift=2, fft_size=8)
    return ComplexSpectrogram(values.astype(np.complex128), p, FS)


def _reverb_room(rng):
    return RoomSpec(
        dimensions=(7.0, 5.5, 3.2),
        absorption=0.25,
        max_order=2,
        sample_rate_hz=FS,
        source_positions=((1.5 + rng.uniform(0, 2), 1.5 + rng.uniform(0, 2), 1.6),),
        mic_positions=((5.2, 3.8, 1.4), (5.3, 3.9, 1.4)),
    )


def _reverb_utterance(seed, snr_db=25.0):
    # reverberant two-channel recording with a noise floor
    rng = np.random.default_rng(seed)
    room = _reverb_room(rng)
    t = np.arange(int(1.5 * FS)) / FS
    env = 0.5 + 0.5 * np.sin(2 * np.pi * 2.7 * t + rng.uniform(0, 6))
    dry = WaveformBuffer(0.1 * env * rng.normal(size=t.size), FS)
    plan = MixturePlan(
        sources=(PlannedSource("s", dry, 0.0),), snr_db=snr_db, seed=seed, session="u"
    )
    return make_meeting(plan, room)


# ------------------------------------------------------------- config


def test_config_defaults():
    cfg = WpeConfig()
    assert (cfg.taps, cfg.delay, cfg.iterations) == (10, 3, 3)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(taps=0),
        dict(delay=-1),
        dict(iterations=0),
        dict(taps=2.5),
        dict(iterations=True),
        dict(iterations=1001),
    ],
)
def test_config_rejects_invalid(kwargs):
    with pytest.raises(ParameterError):
        WpeConfig(**kwargs)


# ------------------------------------------------------ frame powers


def test_frame_powers_is_floored_channel_mean():
    spec = _random_spec(0)
    powers = _powers(spec.values, 2)
    oracle = np.maximum(np.mean(np.abs(spec.values) ** 2, axis=2), 1e-10)
    np.testing.assert_allclose(powers, oracle, rtol=1e-12)
    silent = ComplexSpectrogram(
        np.zeros_like(spec.values), spec.params, spec.sample_rate_hz
    )
    assert np.all(_powers(silent.values, 2) == 1e-10)


def test_objective_validates_inputs():
    spec = _random_spec(1)
    powers = _powers(spec.values, 2)
    other = _random_spec(2, frames=10)
    with pytest.raises(ParameterError):
        wpe_objective(spec, other, powers)
    with pytest.raises(ParameterError):
        wpe_objective(spec, spec, powers[:-1])
    with pytest.raises(ParameterError):
        wpe_objective(spec, spec, np.zeros_like(powers))


def test_objective_zero_output_closed_form():
    spec = _random_spec(3, frames=12)
    eps = 1e-10
    zero = ComplexSpectrogram(np.zeros_like(spec.values), spec.params, FS)
    value = wpe_objective(spec, zero, np.full((12, 5), eps))
    assert value == pytest.approx(12 * 5 * np.log(eps))


def test_objective_lambda_doubling_identity():
    # at |y|^2-mean = lam, doubling lam moves 1 + log lam to 0.5 + log 2lam
    values = np.zeros((1, 5, 1), dtype=complex)
    values[0, 0, 0] = 2.0  # mean power 4 in bin 0
    p = StftParams(frame_length=8, frame_shift=2, fft_size=8)
    spec = ComplexSpectrogram(values, p, FS)
    lam = np.full((1, 5), 4.0)
    base = wpe_objective(spec, spec, lam)
    doubled = wpe_objective(spec, spec, 2 * lam)
    assert base == pytest.approx(1 + np.log(4.0) + 4 * np.log(4.0))
    assert doubled == pytest.approx(0.5 + np.log(8.0) + 4 * np.log(8.0))


def test_objective_hand_value():
    # one frame, five bins, two channels; only bin 0 is nonzero, lambda = 2
    values = np.zeros((1, 5, 2), dtype=complex)
    values[0, 0] = (3.0, 4.0)
    p = StftParams(frame_length=8, frame_shift=2, fft_size=8)
    spec = ComplexSpectrogram(values, p, FS)
    powers = np.full((1, 5), 2.0)
    # bin 0: mean(9, 16)/2 + log 2; four silent bins: log 2 each
    assert wpe_objective(spec, spec, powers) == pytest.approx(6.25 + 5 * np.log(2.0))


# ------------------------------------------------------------ filter


def test_single_iteration_matches_normal_equations():
    # power-weighted normal equations, lambda = max(channel-mean |x|^2, 1e-10),
    # loaded by 1e-6 * trace(R) / CK
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        channels = int(rng.integers(1, 4))
        taps = int(rng.integers(1, 7))
        delay = int(rng.integers(1, 4))
        frames = 200
        values = 0.05 * (
            rng.normal(size=(frames, 5, channels))
            + 1j * rng.normal(size=(frames, 5, channels))
        )
        p = StftParams(frame_length=8, frame_shift=2, fft_size=8)
        spec = ComplexSpectrogram(values, p, FS)
        out = wpe(spec, WpeConfig(taps=taps, delay=delay, iterations=1))
        x = values.transpose(1, 2, 0)  # (F, C, T)
        for f in range(5):
            # oracle: stack delayed frames by hand and solve the weighted equations
            ck = channels * taps
            hist = np.zeros((ck, frames), dtype=complex)
            for k in range(taps):
                shift = delay + k
                hist[k * channels : (k + 1) * channels, shift:] = x[f, :, : frames - shift]
            lam = np.maximum(np.mean(np.abs(x[f]) ** 2, axis=0), 1e-10)  # (T,)
            r = (hist / lam) @ hist.conj().T
            pmat = (hist / lam) @ x[f].conj().T  # (CK, C)
            r = r + 1e-6 * np.trace(r).real / ck * np.eye(ck)
            g = np.linalg.solve(r, pmat)
            resid = x[f] - g.conj().T @ hist
            np.testing.assert_allclose(
                out.values[:, f, :].T, resid, atol=1e-5, err_msg=f"seed {seed} bin {f}"
            )


def test_white_noise_filters_stay_small():
    # i.i.d. input is unpredictable from its past: G ~ 0, output ~ input
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        frames, channels, taps = 400, 2, 4
        values = rng.normal(size=(frames, 5, channels)) + 1j * rng.normal(
            size=(frames, 5, channels)
        )
        p = StftParams(frame_length=8, frame_shift=2, fft_size=8)
        spec = ComplexSpectrogram(values, p, FS)
        out = wpe(spec, WpeConfig(taps=taps, delay=3, iterations=1))
        in_energy = np.sum(np.abs(spec.values) ** 2)
        out_energy = np.sum(np.abs(out.values) ** 2)
        assert abs(out_energy - in_energy) <= 0.1 * in_energy


def test_objective_non_increasing_on_reverberant_utterances():
    for seed in range(2):
        spec = stft(_reverb_utterance(seed).mixture, StftParams())
        previous = None
        scores = []
        for iterations in range(1, 6):
            cfg = WpeConfig(taps=8, delay=2, iterations=iterations)
            dereverbed = wpe(spec, cfg)
            lam = _powers((spec if previous is None else previous).values, 2)
            scores.append(wpe_objective(spec, dereverbed, lam))
            previous = dereverbed
        assert np.all(np.diff(scores) <= 1e-6), scores


def test_improves_ratio_to_direct_path():
    # against the known direct path from the simulator, wpe must not
    # fall below the raw reverberant channel
    meeting = _reverb_utterance(7)
    rng = np.random.default_rng(7)
    room = _reverb_room(rng)
    direct_room = RoomSpec(
        dimensions=room.dimensions,
        absorption=room.absorption,
        max_order=0,
        sample_rate_hz=FS,
        source_positions=room.source_positions,
        mic_positions=room.mic_positions,
    )
    rir = image_source_rir(direct_room, 0, 0)
    t = np.arange(int(1.5 * FS)) / FS
    env = 0.5 + 0.5 * np.sin(2 * np.pi * 2.7 * t + rng.uniform(0, 6))
    dry = 0.1 * env * rng.normal(size=t.size)
    direct = np.convolve(dry, rir)
    p = StftParams()
    spec = stft(meeting.mixture, p)
    out = wpe(spec, WpeConfig(taps=10, delay=2, iterations=3))
    from farfield import istft

    y = istft(out, meeting.mixture.n_samples).samples[0]
    n = min(direct.size, y.size)
    before = si_sdr(meeting.mixture.samples[0, :n], direct[:n])
    after = si_sdr(y[:n], direct[:n])
    assert after > before


def test_scale_equivariance():
    spec = _random_spec(8, frames=80)
    a = 0.7 - 1.9j
    scaled = ComplexSpectrogram(a * spec.values, spec.params, FS)
    cfg = WpeConfig(taps=4, delay=2, iterations=2)
    out = wpe(spec, cfg)
    out_scaled = wpe(scaled, cfg)
    np.testing.assert_allclose(out_scaled.values, a * out.values, atol=1e-10)


def test_per_frequency_independence():
    spec = _random_spec(9, frames=80)
    perm = np.array([3, 1, 4, 0, 2])
    permuted = ComplexSpectrogram(spec.values[:, perm, :], spec.params, FS)
    cfg = WpeConfig(taps=4, delay=2, iterations=2)
    np.testing.assert_array_equal(
        wpe(permuted, cfg).values, wpe(spec, cfg).values[:, perm, :]
    )


def test_early_frames_pass_through():
    spec = _random_spec(3, frames=50)
    cfg = WpeConfig(taps=5, delay=3, iterations=2)
    out = wpe(spec, cfg)
    # frames with no usable history are pure pass-through
    np.testing.assert_array_equal(out.values[: cfg.delay], spec.values[: cfg.delay])


def test_silent_input_stays_silent_and_finite():
    p = StftParams(frame_length=8, frame_shift=2, fft_size=8)
    spec = ComplexSpectrogram(np.zeros((40, 5, 2), dtype=complex), p, FS)
    out = wpe(spec, WpeConfig(taps=3, delay=1, iterations=2))
    assert np.all(out.values == 0)


def test_rejects_too_short_input():
    spec = _random_spec(4, frames=12, channels=3)
    with pytest.raises(ParameterError):
        wpe(spec, WpeConfig(taps=10, delay=3))


@pytest.mark.parametrize(
    "taps, delay, channels, expected",
    [(10, 3, 3, 33), (3, 2, 1, 6), (1, 1, 1, 3), (2, 4, 4, 12)],
)
def test_min_frames_is_the_shortest_input_wpe_takes(taps, delay, channels, expected):
    cfg = WpeConfig(taps=taps, delay=delay, iterations=1)
    assert min_frames(cfg, channels) == expected
    wpe(_random_spec(4, frames=expected, channels=channels), cfg)
    with pytest.raises(ParameterError, match=f"{expected - 1} frames are too few"):
        wpe(_random_spec(4, frames=expected - 1, channels=channels), cfg)


def test_preserves_shape_and_metadata():
    spec = _random_spec(5)
    out = wpe(spec, WpeConfig(taps=4, delay=2, iterations=2))
    assert out.values.shape == spec.values.shape
    assert out.params == spec.params
    assert out.sample_rate_hz == spec.sample_rate_hz