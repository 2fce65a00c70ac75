import struct
import wave

import numpy as np
import pytest

from farfield import DataError, ParameterError, WaveformBuffer, read_wav, write_wav

FS = 16000


def _ramp(channels=2, n=500):
    base = np.linspace(-0.9, 0.9, n)
    return WaveformBuffer(np.stack([base * (c + 1) / channels for c in range(channels)]), FS)


def test_pcm16_roundtrip(tmp_path):
    wav = _ramp()
    path = tmp_path / "a.wav"
    write_wav(path, wav, encoding="pcm16")
    back = read_wav(path)
    assert back.sample_rate_hz == FS
    assert back.samples.shape == wav.samples.shape
    assert np.max(np.abs(back.samples - wav.samples)) <= 1.0 / 32768


def test_float32_roundtrip(tmp_path):
    wav = _ramp(channels=3, n=777)
    path = tmp_path / "b.wav"
    write_wav(path, wav, encoding="float32")
    back = read_wav(path)
    np.testing.assert_array_equal(
        back.samples, wav.samples.astype(np.float32).astype(np.float64)
    )


def test_header_matches_stdlib_wave_reader(tmp_path):
    # the stdlib wave module is the header oracle
    wav = _ramp(channels=2, n=321)
    path = tmp_path / "c.wav"
    write_wav(path, wav, encoding="pcm16")
    with wave.open(str(path)) as fh:
        assert fh.getnchannels() == 2
        assert fh.getsampwidth() == 2
        assert fh.getframerate() == FS
        assert fh.getnframes() == 321


def test_channel_order_preserved(tmp_path):
    left = np.full(64, 0.25)
    right = np.full(64, -0.5)
    path = tmp_path / "d.wav"
    write_wav(path, WaveformBuffer(np.stack([left, right]), FS), encoding="float32")
    back = read_wav(path)
    np.testing.assert_allclose(back.samples[0], 0.25, atol=1e-7)
    np.testing.assert_allclose(back.samples[1], -0.5, atol=1e-7)


def test_pcm16_full_scale_clips(tmp_path):
    wav = WaveformBuffer(np.array([[1.5, 1.0, -1.5, -1.0]]), FS)
    path = tmp_path / "e.wav"
    write_wav(path, wav, encoding="pcm16")
    raw = path.read_bytes()[-8:]
    values = struct.unpack("<4h", raw)
    assert values == (32767, 32767, -32768, -32768)


def test_stdlib_written_file_is_readable(tmp_path):
    # cross-check the reader against a file produced by the stdlib writer
    rng = np.random.default_rng(0)
    pcm = (rng.uniform(-0.5, 0.5, size=256) * 32768).astype(np.int16)
    path = tmp_path / "f.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(8000)
        fh.writeframes(pcm.tobytes())
    back = read_wav(path)
    assert back.sample_rate_hz == 8000
    np.testing.assert_allclose(back.samples[0], pcm / 32768.0, atol=1e-9)


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "g.wav"
    path.write_bytes(b"OGGS" + b"\x00" * 64)
    with pytest.raises(DataError):
        read_wav(path)


def test_rejects_truncated_data(tmp_path):
    wav = _ramp(channels=1, n=100)
    path = tmp_path / "h.wav"
    write_wav(path, wav, encoding="pcm16")
    full = path.read_bytes()
    path.write_bytes(full[: len(full) - 50])
    with pytest.raises(DataError):
        read_wav(path)


def _hand_built(path, tag, n_ch, rate, bits, data):
    """Write a WAVE file from its header fields and raw data bytes."""
    block = n_ch * bits // 8
    fmt = struct.pack("<HHIIHH", tag, n_ch, rate, rate * block, block, bits)
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(data)) + data
    )
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    return path


def test_rejects_compressed_format_with_name(tmp_path):
    # header claiming mu-law (format tag 0x0007)
    path = _hand_built(tmp_path / "i.wav", 0x0007, 1, 8000, 8, b"\x00" * 16)
    with pytest.raises(DataError, match="mu-law"):
        read_wav(path)


@pytest.mark.parametrize(
    ("tag", "n_ch", "bits", "data", "expected"),
    [
        (1, 1, 16, struct.pack("<h", -16384) + b"\x7f", [[-0.5]]),  # 3 bytes
        (1, 2, 16, struct.pack("<hh", 8192, -8192) + b"\x01\x02\x03", [[0.25], [-0.25]]),
        (3, 1, 32, struct.pack("<f", 0.75) + b"\x00", [[0.75]]),  # 5 bytes
    ],
    ids=["pcm16-3-bytes", "pcm16-stereo-7-bytes", "float32-5-bytes"],
)
def test_partial_last_sample_frame_is_dropped(tmp_path, tag, n_ch, bits, data, expected):
    path = _hand_built(tmp_path / "odd.wav", tag, n_ch, FS, bits, data)
    wav = read_wav(path)
    np.testing.assert_array_equal(wav.samples, expected)
    if tag == 1:  # the stdlib reader counts whole frames the same way
        with wave.open(str(path), "rb") as fh:
            assert fh.getnframes() == wav.n_samples


def test_rejects_zero_sample_rate_naming_the_file(tmp_path):
    path = _hand_built(tmp_path / "rate0.wav", 1, 1, 0, 16, b"\x00\x01" * 4)
    with pytest.raises(DataError, match=r"rate0\.wav: sample rate 0"):
        read_wav(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_float_sample(tmp_path, value):
    samples = _ramp(channels=3, n=50).samples.copy()
    samples[2, 17] = value
    path = tmp_path / "bad.wav"
    write_wav(path, WaveformBuffer(samples, FS), encoding="float32")
    with pytest.raises(DataError, match=r"bad\.wav: non-finite .* channel 2 at sample index 17"):
        read_wav(path)


def test_rejects_missing_file(tmp_path):
    with pytest.raises((DataError, OSError)):
        read_wav(tmp_path / "missing.wav")


def test_write_rejects_unknown_encoding(tmp_path):
    with pytest.raises(ParameterError):
        write_wav(tmp_path / "j.wav", _ramp(), encoding="pcm24")