"""A derandomized sweep of hostile inputs through the command line.

Each example damages one input file of a valid ``enhance``, ``simulate``,
``score`` or ``rover`` run: it flips a byte, truncates the file,
overwrites a WAV header field, inserts junk, or swaps a JSON number for
another token. Whatever the damage, ``cli.main`` returns one of the
documented exit codes 0-3 and raises nothing, and a failed ``enhance``
leaves no ``index.json``.
"""

import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from farfield import WaveformBuffer, write_wav
from farfield.cli import main

FS = 16000

# verb -> (its input files, its arguments with {d} for their directory)
RUNS = {
    "enhance": (
        ("mic0.wav", "mic1.wav", "ref.rttm", "manifest.json", "cfg.json"),
        ["enhance", "{d}/manifest.json", "--config", "{d}/cfg.json", "--out", "{d}/out"],
    ),
    "simulate": (
        ("plan.json", "room.json", "dry.wav"),
        ["simulate", "{d}/plan.json", "{d}/room.json", "--out", "{d}/out"],
    ),
    "score-cpcer": (
        ("ref.trn", "hyp.trn"),
        ["score", "--mode", "cpcer", "{d}/ref.trn", "{d}/hyp.trn"],
    ),
    "score-der": (
        ("ref.rttm", "hyp.rttm"),
        ["score", "--mode", "der", "{d}/ref.rttm", "{d}/hyp.rttm"],
    ),
    "rover": (
        ("hyp0.txt", "hyp1.txt", "hyp2.txt"),
        ["rover", "{d}/hyp0.txt", "{d}/hyp1.txt", "{d}/hyp2.txt", "--out", "{d}/out.txt"],
    ),
}
# (offset, size) of every field of the 44-byte header write_wav writes
WAV_FIELDS = ((4, 4), (16, 4), (20, 2), (22, 2), (24, 4), (28, 4), (32, 2), (34, 2), (40, 4))
# tokens put in place of a JSON number; json reads NaN as a float
JSON_SWAPS = ("NaN", "1e400", "-1", "999999999999", "null", "[]")
# (verb, file name) of the inputs each kind of damage applies to: a header
# field overwrite to the WAV files, a number swap to the JSON files that
# hold numbers, and the other kinds to every file
INPUTS = [(verb, name) for verb, (names, _) in sorted(RUNS.items()) for name in names]
TARGETS = {
    "flip": INPUTS,
    "header": [i for i in INPUTS if i[1].endswith(".wav")],
    "insert": INPUTS,
    "number": [i for i in INPUTS if i[1] in ("cfg.json", "plan.json", "room.json")],
    "truncate": INPUTS,
}
# a number of those JSON files, which write no digit into a string next to
# a separator
NUMBER = re.compile(r"(?<=[\s\[:])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?=[\s,\]}])")


def _noise(rng, seconds):
    return WaveformBuffer(0.1 * rng.normal(size=int(seconds * FS)), FS)


def _write_json(path, obj):
    path.write_text(json.dumps(obj, indent=1))


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Valid inputs of each run, one directory per entry of RUNS."""
    root = tmp_path_factory.mktemp("hostile")
    rng = np.random.default_rng(5)

    d = root / "enhance"
    d.mkdir()
    write_wav(d / "mic0.wav", _noise(rng, 1.2))
    write_wav(d / "mic1.wav", _noise(rng, 1.2))
    (d / "ref.rttm").write_text(
        "SPEAKER s 1 0.100 0.600 <NA> <NA> ann <NA> <NA>\n"
        "SPEAKER s 1 0.500 0.600 <NA> <NA> bob <NA> <NA>\n"
    )
    _write_json(d / "manifest.json", {"session": "s", "wavs": ["mic0.wav", "mic1.wav"],
                                      "rttm": "ref.rttm"})
    _write_json(d / "cfg.json", {"wpe": None, "gss": {"em_iterations": 2, "context_s": 0.2}})

    d = root / "simulate"
    d.mkdir()
    write_wav(d / "dry.wav", _noise(rng, 0.25))
    _write_json(d / "plan.json", {"session": "s", "seed": 3, "snr_db": 20.0,
                                  "sources": [{"speaker": "ann", "wav": "dry.wav",
                                               "onset_s": 0.1}]})
    _write_json(d / "room.json", {"dimensions": [4.0, 3.0, 2.5], "absorption": 0.5,
                                  "max_order": 1, "sample_rate_hz": FS,
                                  "source_positions": [[1.0, 1.0, 1.5]],
                                  "mic_positions": [[2.0, 1.5, 1.2], [2.1, 1.5, 1.2]]})

    d = root / "score-cpcer"
    d.mkdir()
    (d / "ref.trn").write_text("A-s1-0-1000 abcd\nB-s1-1000-2000 wxyz\n")
    (d / "hyp.trn").write_text("h1-s1-0-1000 wxyz\nh2-s1-1000-2000 abcx\n")

    d = root / "score-der"
    d.mkdir()
    (d / "ref.rttm").write_text(
        "SPEAKER m 1 0.000 4.000 <NA> <NA> A <NA> <NA>\n"
        "SPEAKER m 1 3.000 3.000 <NA> <NA> B <NA> <NA>\n"
    )
    (d / "hyp.rttm").write_text("SPEAKER m 1 0.000 5.000 <NA> <NA> X <NA> <NA>\n")

    d = root / "rover"
    d.mkdir()
    for i, text in enumerate(("u1-m-0-1000 a b\nu2-m-1000-2000 x\n",
                              "u1-m-0-1000 a c\nu2-m-1000-2000 x\n",
                              "u1-m-0-1000 a c\n")):
        (d / f"hyp{i}.txt").write_text(text)

    for verb, (_, argv) in RUNS.items():  # each run succeeds undamaged, on a copy
        d = shutil.copytree(root / verb, root / "undamaged" / verb)
        assert main([a.format(d=d) for a in argv]) == 0, verb
    return root


@st.composite
def damages(draw):
    """(verb, file name, kind, position, payload) of one damaged input."""
    kind = draw(st.sampled_from(sorted(TARGETS)))
    verb, name = draw(st.sampled_from(TARGETS[kind]))
    where = draw(st.integers(0, 2**16))
    if kind == "flip":
        payload = draw(st.integers(1, 255))
    elif kind == "number":
        payload = draw(st.sampled_from(JSON_SWAPS))
    elif kind == "truncate":
        payload = None
    else:
        payload = draw(st.binary(min_size=1, max_size=8))
    return verb, name, kind, where, payload


def _damage(raw: bytes, kind, where, payload) -> bytes:
    if kind == "flip":
        i = where % len(raw)
        return raw[:i] + bytes([raw[i] ^ payload]) + raw[i + 1 :]
    if kind == "truncate":
        return raw[: where % len(raw)]
    if kind == "insert":
        i = where % (len(raw) + 1)
        return raw[:i] + payload + raw[i:]
    if kind == "header":
        offset, size = WAV_FIELDS[where % len(WAV_FIELDS)]
        field = payload.ljust(size, b"\0")[:size]
        return raw[:offset] + field + raw[offset + size :]
    text = raw.decode()
    spans = [m.span() for m in NUMBER.finditer(text)]
    lo, hi = spans[where % len(spans)]
    return (text[:lo] + payload + text[hi:]).encode()


# the escapes this sweep found: numpy's MemoryError for an EM trace of
# 939 TiB or a 227 PiB mixture, and an OverflowError from 10^(snr_db / 10)
@example(case=("enhance", "cfg.json", "number", 0, "999999999999"))  # em_iterations
@example(case=("simulate", "plan.json", "number", 1, "999999999999"))  # snr_db
@example(case=("simulate", "plan.json", "number", 2, "999999999999"))  # onset_s
@settings(max_examples=200)
@given(case=damages())
def test_damaged_inputs_end_in_a_documented_exit_code(pristine, case):
    verb, name, kind, where, payload = case
    argv = RUNS[verb][1]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / verb
        shutil.copytree(pristine / verb, d)
        path = d / name
        path.write_bytes(_damage(path.read_bytes(), kind, where, payload))
        rc = main([a.format(d=d) for a in argv])
        assert rc in (0, 1, 2, 3)
        if verb == "enhance" and rc != 0:
            assert not list((d / "out").rglob("index.json"))
