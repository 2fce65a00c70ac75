"""Reading and writing RIFF WAVE files.

Supports the two encodings this package produces and consumes:
16-bit integer PCM (format tag 1) and 32-bit IEEE float (format tag 3,
or tag 0xFFFE with a float subformat). Compressed or otherwise exotic
encodings raise :class:`~farfield.errors.DataError` with the offending
format tag in the message.

The chunk walker tolerates extra chunks (LIST, fact, ...) and the
odd-size padding byte the RIFF spec requires.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError
from .signal import WaveformBuffer, check_finite_samples

_TAG_PCM = 0x0001
_TAG_FLOAT = 0x0003
_TAG_EXTENSIBLE = 0xFFFE

_KNOWN_COMPRESSED = {
    0x0002: "ADPCM",
    0x0006: "A-law",
    0x0007: "mu-law",
    0x0011: "IMA ADPCM",
    0x0055: "MP3",
}


def read_wav(path) -> WaveformBuffer:
    """Read a WAVE file into a (channels, samples) float64 buffer.

    PCM16 samples are scaled by 1/32768; float32 samples are taken as-is.
    A partial last sample frame is dropped, as the stdlib wave reader does.

    Raises
    ------
    DataError
        Malformed headers, truncated data, unsupported encodings, or a
        non-finite (NaN or infinite) float sample.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise DataError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            if len(body) < size:
                raise DataError(f"{path}: data chunk truncated ({len(body)} < {size})")
            data = body
        pos += 8 + size + (size & 1)

    if fmt is None or len(fmt) < 16:
        raise DataError(f"{path}: missing or short fmt chunk")
    if data is None:
        raise DataError(f"{path}: missing data chunk")

    tag, n_ch, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if tag == _TAG_EXTENSIBLE:
        if len(fmt) < 40:
            raise DataError(f"{path}: extensible fmt chunk too short")
        (tag,) = struct.unpack_from("<H", fmt, 24)

    if tag == _TAG_PCM:
        if bits != 16:
            raise DataError(f"{path}: only 16-bit PCM supported, got {bits}-bit")
        dtype = "<i2"
    elif tag == _TAG_FLOAT:
        if bits != 32:
            raise DataError(f"{path}: only 32-bit float supported, got {bits}-bit")
        dtype = "<f4"
    else:
        name = _KNOWN_COMPRESSED.get(tag, "unknown")
        raise DataError(
            f"{path}: compressed/unsupported WAVE format tag 0x{tag:04X} ({name}); "
            "only PCM16 and IEEE float32 are readable"
        )

    if n_ch < 1:
        raise DataError(f"{path}: channel count {n_ch} invalid")
    if rate < 1:
        raise DataError(f"{path}: sample rate {rate} invalid")
    n_frames = len(data) // (n_ch * bits // 8)
    if n_frames == 0:
        raise DataError(f"{path}: no audio frames")
    flat = np.frombuffer(data, dtype, n_frames * n_ch).astype(np.float64)
    if tag == _TAG_PCM:
        flat /= 32768.0
    samples = flat.reshape(-1, n_ch).T
    check_finite_samples(samples, str(path))
    return WaveformBuffer(samples=samples, sample_rate_hz=int(rate))


def write_wav(path, wav: WaveformBuffer, encoding: str = "pcm16") -> None:
    """Write a waveform as PCM16 (clipped to [-1, 1)) or IEEE float32."""
    if encoding == "pcm16":
        tag, bits = _TAG_PCM, 16
        clipped = np.clip(wav.samples, -1.0, 32767.0 / 32768.0)
        flat = np.round(clipped * 32768.0).astype("<i2")
    elif encoding == "float32":
        tag, bits = _TAG_FLOAT, 32
        flat = wav.samples.astype("<f4")
    else:
        raise ParameterError(f"encoding must be 'pcm16' or 'float32', got {encoding!r}")

    payload = np.ascontiguousarray(flat.T).tobytes()
    n_ch = wav.channels
    rate = wav.sample_rate_hz
    block_align = n_ch * bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        tag,
        n_ch,
        rate,
        rate * block_align,
        block_align,
        bits,
        b"data",
        len(payload),
    )
    Path(path).write_bytes(header + payload)
