import numpy as np
import pytest
import reference_kernels as ref

from farfield import (
    ComplexSpectrogram,
    ParameterError,
    StftParams,
    WaveformBuffer,
    istft,
    speed_perturb,
    stft,
)

FS = 16000


def _noise(seed, channels=2, n=FS, fs=FS):
    rng = np.random.default_rng(seed)
    return WaveformBuffer(rng.normal(size=(channels, n)), fs)


# ------------------------------------------------------------ buffers


def test_waveform_buffer_promotes_mono():
    wav = WaveformBuffer(np.zeros(100), FS)
    assert wav.samples.shape == (1, 100)
    assert wav.channels == 1
    assert wav.n_samples == 100
    assert wav.duration_s == pytest.approx(100 / FS)


def test_waveform_buffer_rejects_bad_rate():
    with pytest.raises(ParameterError):
        WaveformBuffer(np.zeros(10), 0)
    with pytest.raises(ParameterError):
        WaveformBuffer(np.zeros(10), -16000)


@pytest.mark.parametrize("rate", [16000.7, "16000", True])
def test_waveform_buffer_rejects_a_rate_that_is_not_an_integer(rate):
    with pytest.raises(ParameterError, match="sample_rate_hz must be an integer"):
        WaveformBuffer(np.zeros(10), rate)


def test_waveform_buffer_rejects_bad_shape():
    with pytest.raises(ParameterError):
        WaveformBuffer(np.zeros((2, 3, 4)), FS)


@pytest.mark.parametrize("shape", [(0, 257, 4), (50, 257, 0)], ids=["frames", "channels"])
def test_complex_spectrogram_rejects_an_empty_axis(shape):
    # downstream, fit_cacgmm would divide by the frame count and
    # cacgmm_posteriors and mvdr_beamform reduce over empty arrays
    with pytest.raises(ParameterError, match=r"^empty spectrogram of shape"):
        ComplexSpectrogram(np.zeros(shape, dtype=complex), StftParams(), FS)


# ------------------------------------------------------------- params


def test_stft_params_defaults_are_cola():
    p = StftParams()
    assert p.frame_length == 512
    assert p.frame_shift == 128
    assert p.fft_size == 512
    assert p.n_bins == 257
    assert p.edge_padding == 384


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(frame_shift=0),
        dict(frame_shift=600),  # shift > length
        dict(frame_length=600),  # length > fft
    ],
)
def test_stft_params_rejects_invalid(kwargs):
    with pytest.raises(ParameterError):
        StftParams(**kwargs)


def test_stft_params_rejects_non_cola_shift():
    # hann with a shift that does not tile the window is not COLA
    with pytest.raises(ParameterError):
        StftParams(frame_length=512, frame_shift=100)


# --------------------------------------------------------------- stft


def test_stft_zero_input_gives_zero_spectrogram():
    p = StftParams()
    wav = WaveformBuffer(np.zeros((1, FS)), FS)
    spec = stft(wav, p)
    n_padded = FS + 2 * p.edge_padding
    frames = int(np.ceil((n_padded - p.frame_length) / p.frame_shift)) + 1
    assert spec.values.shape == (frames, p.n_bins, 1)
    assert np.all(spec.values == 0)


def test_stft_frames_match_direct_dft_of_windowed_frames():
    # oracle: window the padded signal by hand and take the DFT directly
    p = StftParams()
    wav = _noise(0, channels=1, n=4000)
    spec = stft(wav, p)
    pad = p.edge_padding
    padded = np.concatenate(
        [wav.samples[0, 1 : pad + 1][::-1], wav.samples[0], wav.samples[0, -pad - 1 : -1][::-1]]
    )
    for t in (0, 5, spec.frames - 1):
        start = t * p.frame_shift
        frame = np.zeros(p.frame_length)
        chunk = padded[start : start + p.frame_length]
        frame[: chunk.size] = chunk
        oracle = np.fft.rfft(frame * p.analysis_window, n=p.fft_size)
        np.testing.assert_allclose(spec.values[t, :, 0], oracle, atol=1e-10)


def test_stft_sinusoid_concentrates_at_its_bin():
    # bin-center sinusoid against the direct DFT oracle of one frame
    p = StftParams()
    k = 32  # exact bin center: frequency k*fs/fft_size
    t = np.arange(FS) / FS
    x = np.cos(2 * np.pi * (k * FS / p.fft_size) * t)
    spec = stft(WaveformBuffer(x, FS), p)
    interior = spec.values[20:-20, :, 0]
    energy = np.abs(interior) ** 2
    # hann leaks into adjacent bins; >= 99% of energy sits within +-1 bin
    neighborhood = energy[:, k - 1 : k + 2].sum()
    assert neighborhood / energy.sum() >= 0.99
    assert np.all(np.argmax(energy, axis=1) == k)
    # one interior frame must equal its direct windowed DFT exactly
    frame_idx = 25
    start = frame_idx * p.frame_shift - p.edge_padding
    frame = x[start : start + p.frame_length] * p.analysis_window
    np.testing.assert_allclose(
        spec.values[frame_idx, :, 0], np.fft.rfft(frame, p.fft_size), atol=1e-9
    )


def test_stft_impulse_frame_is_flat_up_to_window_scaling():
    p = StftParams()
    n = 4 * p.frame_length
    # place the impulse exactly at the center of an interior frame
    frame_idx = 8
    center = frame_idx * p.frame_shift - p.edge_padding + p.frame_length // 2
    x = np.zeros(n)
    x[center] = 1.0
    spec = stft(WaveformBuffer(x, FS), p)
    mags = np.abs(spec.values[frame_idx, :, 0])
    expected = p.analysis_window[p.frame_length // 2]
    np.testing.assert_allclose(mags, expected, atol=1e-12)


def test_stft_is_linear():
    p = StftParams()
    x, y = _noise(1, n=3000), _noise(2, n=3000)
    a, b = 0.7, -1.3
    mix = WaveformBuffer(a * x.samples + b * y.samples, FS)
    lhs = stft(mix, p).values
    rhs = a * stft(x, p).values + b * stft(y, p).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_stft_parseval_per_frame():
    # rfft Parseval: frame energy equals bin energy with one-sided weighting
    p = StftParams()
    wav = _noise(3, channels=1, n=5000)
    spec = stft(wav, p)
    v = spec.values[10, :, 0]
    weights = np.full(p.n_bins, 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0  # fft_size is even so the last bin is Nyquist
    bin_energy = np.sum(weights * np.abs(v) ** 2) / p.fft_size
    pad = p.edge_padding
    start = 10 * p.frame_shift - pad
    frame = wav.samples[0, start : start + p.frame_length] * p.analysis_window
    assert bin_energy == pytest.approx(np.sum(frame**2), rel=1e-10)


def test_stft_total_energy_tracks_window_normalization():
    # long random input: sum of windowed-frame energies ~ ||x||^2 * sum(w^2)/S
    # (long enough that the reflect-padded edges are negligible)
    p = StftParams()
    wav = _noise(4, channels=1, n=8 * FS)
    spec = stft(wav, p)
    weights = np.full(p.n_bins, 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0
    total = np.sum(weights * np.abs(spec.values[:, :, 0]) ** 2) / p.fft_size
    expected = np.sum(wav.samples**2) * np.sum(p.analysis_window**2) / p.frame_shift
    assert total == pytest.approx(expected, rel=0.01)


# -------------------------------------------------------------- istft


def test_roundtrip_default_params():
    p = StftParams()
    wav = _noise(5, channels=2, n=FS)
    back = istft(stft(wav, p), wav.n_samples)
    assert back.samples.shape == wav.samples.shape
    assert np.max(np.abs(back.samples - wav.samples)) <= 1e-6


def test_roundtrip_random_cola_configs():
    # property loop over COLA-valid configurations
    rng = np.random.default_rng(6)
    for trial in range(20):
        length = int(rng.choice([128, 256, 320, 512]))
        shift = length // int(rng.choice([2, 4, 8]))
        fft_size = length if rng.random() < 0.7 else 2 * length
        p = StftParams(length, shift, fft_size)
        n = int(rng.integers(length + 1, 4 * FS))
        wav = WaveformBuffer(rng.normal(size=(int(rng.integers(1, 4)), n)), FS)
        back = istft(stft(wav, p), n)
        rel = np.linalg.norm(back.samples - wav.samples) / np.linalg.norm(wav.samples)
        assert rel <= 1e-6, (trial, length, shift, fft_size)
    # inputs down to one sample, and (3, 2), a COLA framing with
    # frame_length < 2 * frame_shift: stft takes the fewest frames that
    # cover the padded input, and the round trip is exact
    short = [StftParams(3, 2, 3), StftParams(3, 2, 4), StftParams(16, 4, 32)]
    for p in short + [StftParams()]:
        for n in range(1, 2 * p.frame_length + 1):
            x = rng.normal(size=(2, n))
            spec = stft(WaveformBuffer(x, FS), p)
            covered = n + 2 * p.edge_padding
            assert (spec.frames - 1) * p.frame_shift + p.frame_length >= covered, (p, n)
            assert spec.frames == 1 or (
                (spec.frames - 2) * p.frame_shift + p.frame_length < covered
            ), (p, n)
            back = istft(spec, n).samples
            assert np.max(np.abs(back - x)) <= 1e-12 * np.max(np.abs(x)), (p, n)


def test_istft_zero_spectrogram_is_zero():
    p = StftParams()
    spec = stft(_noise(7), p)
    zero = ComplexSpectrogram(np.zeros_like(spec.values), p, spec.sample_rate_hz)
    out = istft(zero, FS)
    assert np.all(out.samples == 0)


def test_istft_scales_linearly():
    p = StftParams()
    wav = _noise(8, channels=1)
    spec = stft(wav, p)
    doubled = ComplexSpectrogram(2.0 * spec.values, p, FS)
    out1 = istft(spec, FS)
    out2 = istft(doubled, FS)
    np.testing.assert_allclose(out2.samples, 2.0 * out1.samples, atol=1e-12)


@pytest.mark.parametrize("target_length", [10.5, True, -1, 0, "16000"])
def test_istft_rejects_bad_target_length(target_length):
    spec = stft(_noise(9), StftParams())
    with pytest.raises(ParameterError, match="target_length"):
        istft(spec, target_length)


@pytest.mark.parametrize("fft_size", [16, 17])
def test_istft_ignores_the_imaginary_parts_of_dc_and_nyquist(fft_size):
    p = StftParams(16, 4, fft_size)
    rng = np.random.default_rng(21)
    shape = (30, p.n_bins, 3)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    forced = values.copy()
    forced[:, 0, :] = forced[:, 0, :].real
    if fft_size % 2 == 0:  # an odd FFT size has no Nyquist bin
        forced[:, -1, :] = forced[:, -1, :].real
    assert np.all(values[:, 0, :].imag != 0) and np.all(values[:, -1, :].imag != 0)
    got = istft(ComplexSpectrogram(values, p, FS), 100).samples
    want = istft(ComplexSpectrogram(forced, p, FS), 100).samples
    assert got.tobytes() == want.tobytes()


# shifts that divide the frame length, and odd lengths at shift 2, whose
# last overlap-add block is padded
_OLA_FRAMINGS = [
    (3, 2), (4, 1), (4, 2), (9, 2), (12, 3), (12, 4), (31, 2),
    (64, 16), (100, 25), (100, 50), (512, 128), (512, 256),
]


def test_istft_block_overlap_add_matches_the_frame_loop():
    rng = np.random.default_rng(17)
    for length, shift in _OLA_FRAMINGS:
        # an odd FFT size has no Nyquist bin
        for fft_size in (length, 2 * length + 1):
            p = StftParams(length, shift, fft_size)
            frames = int(rng.integers(1, 40))
            shape = (frames, p.n_bins, int(rng.integers(1, 4)))
            values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            spec = ComplexSpectrogram(values, p, FS)
            for target in (1, frames * shift, frames * shift + 7):
                got = istft(spec, target).samples
                want = ref.istft(spec, target).samples
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (p, frames, target)


def test_istft_truncates_and_pads_to_target():
    p = StftParams()
    wav = _noise(10, channels=1)
    spec = stft(wav, p)
    short = istft(spec, 1000)
    assert short.n_samples == 1000
    np.testing.assert_allclose(short.samples, wav.samples[:, :1000], atol=1e-6)
    longer = istft(spec, FS + 500)
    assert longer.n_samples == FS + 500
    # past the reconstructable region the output is zero-padded
    assert np.all(longer.samples[:, FS + p.edge_padding :] == 0)


# ------------------------------------------------------ speed perturb


def test_speed_perturb_identity_at_unit_factor():
    wav = _noise(11)
    out = speed_perturb(wav, 1.0)
    np.testing.assert_array_equal(out.samples, wav.samples)


def test_speed_perturb_rejects_out_of_range():
    wav = _noise(12)
    for factor in (0.5, 0.79, 1.21, 2.0):
        with pytest.raises(ParameterError):
            speed_perturb(wav, factor)


def test_speed_perturb_length_rule():
    wav = _noise(13, channels=1, n=FS)
    for factor in (0.8, 0.9, 1.1, 1.2):
        out = speed_perturb(wav, factor)
        assert out.n_samples == int(round(FS / factor))
        assert out.sample_rate_hz == FS


def test_speed_perturb_round_trip_duration():
    wav = _noise(14, channels=1, n=12345)
    for factor in (0.85, 0.92, 1.07, 1.15):
        back = speed_perturb(speed_perturb(wav, factor), 1.0 / factor)
        assert abs(back.n_samples - wav.n_samples) <= 1

def test_speed_perturb_shifts_pitch():
    # 440 Hz at factor 1.1 lands nearest 484 Hz; oracle is a dense DFT peak
    t = np.arange(2 * FS) / FS
    wav = WaveformBuffer(np.sin(2 * np.pi * 440.0 * t), FS)
    out = speed_perturb(wav, 1.1)
    spectrum = np.abs(np.fft.rfft(out.samples[0] * np.hanning(out.n_samples)))
    peak_hz = np.argmax(spectrum) * FS / out.n_samples
    assert abs(peak_hz - 484.0) < 2.0