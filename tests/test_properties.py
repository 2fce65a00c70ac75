"""Property tests against plain oracles, with derandomized hypothesis.

Examples are drawn from a fixed seed (the ``derandomize=True`` profile
of ``conftest.py``) and their number is bounded, so every run checks the
same cases in a few seconds.
"""

import copy
import importlib
import json
from dataclasses import replace

import numpy as np
import pytest
import reference_kernels as ref_kernels
from hypothesis import example, given, settings
from hypothesis import strategies as st

from farfield import (
    DataError,
    DiarizationSet,
    GssConfig,
    MixturePlan,
    ParameterError,
    PlannedSource,
    RoomSpec,
    StftParams,
    WaveformBuffer,
    edit_distance,
    format_rttm,
    format_utterances,
    gss_enhance,
    istft,
    load_pipeline_config,
    load_plan,
    load_room,
    make_meeting,
    parse_manifests,
    read_rttm,
    read_utterances,
    rover,
    stft,
    wpe,
    write_wav,
)
from farfield.wpe import DEFAULT_PSD_FLOOR as WPE_PSD_FLOOR

FS = 16000
convolve = importlib.import_module("farfield.simulate")._convolve
edit_costs = importlib.import_module("farfield.metrics")._edit_costs


@st.composite
def cola_params(draw):
    # a periodic Hann window of length k * m with shift m overlap-adds to a
    # constant for every k >= 2
    k = draw(st.integers(2, 8))
    shift = draw(st.integers(2, 64))
    length = k * shift
    fft_size = length + draw(st.integers(0, length))
    return StftParams(length, shift, fft_size)


@settings(max_examples=80)
@given(
    p=cola_params(),
    n=st.integers(1, 3000),
    channels=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_stft_istft_round_trip(p, n, channels, seed):
    x = np.random.default_rng(seed).normal(size=(channels, n))
    back = istft(stft(WaveformBuffer(x, FS), p), n).samples
    assert back.shape == x.shape
    assert np.max(np.abs(back - x)) <= 1e-9 * np.max(np.abs(x))


@example(n=1, taps=1, seed=0)
@example(n=1, taps=900, seed=1)
@example(n=900, taps=1, seed=2)
@example(n=256, taps=900, seed=3)
@example(n=257, taps=257, seed=4)
@example(n=300, taps=900, seed=5)  # a kernel longer than the signal
@settings(max_examples=80)
@given(
    n=st.integers(1, 900),
    taps=st.integers(1, 900),
    seed=st.integers(0, 2**32 - 1),
)
def test_convolve_matches_direct_convolution(n, taps, seed):
    # one FFT path at every length, equal to the direct sums to rounding
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    h = rng.uniform(-1.0, 1.0, taps)
    out = convolve(x, [h])
    direct = np.convolve(x, h)
    assert out.shape == (1, n + taps - 1)
    assert np.max(np.abs(out[0] - direct)) <= 1e-12 * np.max(np.abs(direct))


tokens = st.one_of(
    st.text(alphabet="abcd", max_size=24),
    st.lists(st.integers(0, 3), max_size=24),
)


@settings(max_examples=300)
@given(ref=tokens, hyp=tokens)
def test_edit_distance_matches_dp_oracle(ref, hyp):
    assert edit_distance(ref, hyp) == ref_kernels.edit_distance(ref, hyp)


CJK = [chr(0x4E00 + k) for k in range(3000)]
# the groups 1 / 1.0 / np.int64(1) / True and 0 / 0.0 / False are equal dict keys
SAME_KEYS = [1, 1.0, np.int64(1), True, 0, 0.0, np.int64(0), False, 2]
UNSEEN = "#"  # drawn into references only
# total widths (tokens plus one guard bit per stream) on either side of the
# 30-bit digits of a Python int and of a 64-bit word
BOUNDARY_LENGTHS = [29, 30, 31, 59, 60, 61, 63, 64, 65]


@st.composite
def stream_sets(draw):
    """(refs, hyps): 1-6 streams per side over a few symbols of one alphabet."""
    alphabet = draw(st.sampled_from([list("abcd"), SAME_KEYS, CJK]))
    symbols = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=6))
    lengths = st.one_of(st.integers(0, 70), st.sampled_from(BOUNDARY_LENGTHS))

    def streams(pool):
        return [
            draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
            for k in draw(st.lists(lengths, min_size=1, max_size=6))
        ]

    return streams(symbols + [UNSEEN]), streams(symbols)


@example(streams=([[1, 1.0, True, 2]], [[np.int64(1), True, 1.0, 2.0], []]))
@example(streams=([list("a" * 29), list("ab" * 30), []], [list("a" * 29)]))
@example(streams=([list("a" * 40)], [list("a" * 59), list("ba" * 15), list("a" * 63)]))
@example(streams=([list("b" * 65)], [list("ab" * 32), [], list("b" * 64)]))
@example(streams=([CJK[:2000], CJK[1000:]], [CJK[500:2500], CJK[::-1], [UNSEEN]]))
@settings(max_examples=200)
@given(streams=stream_sets())
def test_edit_costs_equal_edit_distance_on_every_pair(streams):
    refs, hyps = streams
    costs = edit_costs(refs, hyps)
    assert costs.shape == (len(refs), len(hyps))
    assert costs.tolist() == [[sum(edit_distance(r, h)) for h in hyps] for r in refs]


# ------------------------------------------------------- file round trips

# half the examples draw names that are one field of a whitespace-separated
# line; the other half draw names that may be empty or hold whitespace,
# which only the writer's check can tell apart
field_names = st.text(alphabet="ab-_1é", min_size=1, max_size=6)
any_names = st.text(alphabet="ab-_1é \t\n", max_size=6)
name_kinds = st.sampled_from([field_names, any_names])


def one_field(name):
    return name.split() == [name]


@st.composite
def rttm_rows(draw, names):
    # times on the millisecond grid, the resolution RTTM files carry
    start_ms = draw(st.integers(0, 10**7))
    dur_ms = draw(st.integers(1, 10**5))
    return draw(names), draw(names), start_ms, start_ms + dur_ms


@settings(max_examples=200)
@given(rows=name_kinds.flatmap(lambda names: st.lists(rttm_rows(names), max_size=8)))
def test_rttm_round_trip(rows, tmp_path_factory):
    seconds = [(sess, spk, a / 1000, b / 1000) for sess, spk, a, b in rows]
    if not all(one_field(sess) and one_field(spk) for sess, spk, _, _ in rows):
        with pytest.raises(ParameterError, match="without whitespace"):
            DiarizationSet.from_rows(seconds)
        return
    segs = DiarizationSet.from_rows(seconds)
    path = tmp_path_factory.mktemp("rttm") / "x.rttm"
    text = format_rttm(segs)
    path.write_text(text, encoding="utf-8")
    back = read_rttm(path)
    assert format_rttm(back) == text
    got = sorted(
        (s.session, s.speaker, s.start_s, round(s.end_s * 1000)) for s in back.segments
    )
    assert got == sorted((sess, spk, a / 1000, b) for sess, spk, a, b in rows)


@settings(max_examples=200)
@given(
    utts=name_kinds.flatmap(
        lambda names: st.dictionaries(names, st.lists(names, max_size=5).map(tuple), max_size=6)
    )
)
def test_utterances_round_trip(utts, tmp_path_factory):
    if not all(one_field(u) and all(map(one_field, toks)) for u, toks in utts.items()):
        with pytest.raises(ParameterError, match="without whitespace"):
            format_utterances(utts)
        return
    path = tmp_path_factory.mktemp("utt") / "x.txt"
    path.write_text(format_utterances(utts), encoding="utf-8")
    assert read_utterances(path) == utts


# -------------------------------------------------------------- ROVER


@settings(max_examples=150)
@given(
    hyp=st.lists(
        st.sampled_from("abc")
        | st.tuples(st.sampled_from("abc"), st.floats(0.0, 1.0)),
        max_size=12,
    ),
    copies=st.integers(1, 5),
    alpha=st.floats(0.0, 1.0),
)
def test_rover_unanimous_copies_fuse_to_the_hypothesis(hyp, copies, alpha):
    tokens = tuple(item if isinstance(item, str) else item[0] for item in hyp)
    assert rover([hyp] * copies, alpha=alpha) == tokens


# ----------------------------------------------------- input documents

# one valid document per JSON reader; the plan's wav files are written by
# the reader_dir fixture
READERS = {
    "config": (
        load_pipeline_config,
        {"wpe": {"taps": 4, "delay": 2, "iterations": 1},
         "gss": {"em_iterations": 5, "context_s": 1.0}},
    ),
    "manifest": (
        parse_manifests,
        {"session": "m", "wavs": ["a.wav", "n.wav"], "rttm": "m.rttm", "out_dir": "out"},
    ),
    "plan": (
        load_plan,
        {"session": "mtg", "seed": 1, "snr_db": 20.0, "noise": "n.wav",
         "sources": [{"speaker": "a", "wav": "a.wav", "onset_s": 0.25}]},
    ),
    "room": (
        load_room,
        {"dimensions": [6.0, 5.0, 3.0], "absorption": 0.5, "max_order": 1,
         "sample_rate_hz": FS, "source_positions": [[1.8, 3.6, 1.6]],
         "mic_positions": [[2.95, 2.45, 1.4], [3.05, 2.55, 1.4]], "speed_of_sound": 343.0},
    ),
}


def _key_paths(node, prefix=()):
    """Key and index paths to every value inside a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


TARGETS = [(name, path) for name, (_, doc) in READERS.items() for path in _key_paths(doc)]
_DROP = object()

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, -(2**64), 10**400])
    | st.floats()
    | st.text(alphabet="a.w/ \t\n\x00", max_size=6),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def reader_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("readers")
    write_wav(root / "a.wav", WaveformBuffer(np.full(800, 0.1), FS))
    write_wav(root / "n.wav", WaveformBuffer(np.full(4000, 0.1), FS))
    return root


def _read_edited(root, name, path, value):
    """Read the valid ``name`` document with the value at ``path`` replaced
    by ``value``, or deleted for ``_DROP``: the reader either returns or
    raises a data error or OSError, and no other exception."""
    read, doc = READERS[name]
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    file = root / f"{name}.json"
    file.write_text(json.dumps(doc))
    try:
        read(file)
    except (DataError, OSError):
        pass


# the shapes of input that once escaped the readers as TypeError or ValueError
@example(target=("plan", ("sources",)), value=5)
@example(target=("plan", ("sources", 0, "wav")), value="s\x00.wav")
@example(target=("room", ("source_positions",)), value=5)
@example(target=("room", ("mic_positions",)), value=True)
@example(target=("room", ("dimensions",)), value="abc")
@example(target=("room", ("source_positions",)), value={"a": 1})
@example(target=("room", ("source_positions", 0, 1)), value=float("nan"))
@example(target=("room", ("absorption",)), value=10**400)
@settings(max_examples=500)
@given(target=st.sampled_from(TARGETS), value=json_values)
def test_readers_raise_only_data_errors_on_any_replaced_value(reader_dir, target, value):
    _read_edited(reader_dir, *target, value)


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: "-".join(map(str, (t[0], *t[1]))))
def test_readers_raise_only_data_errors_on_a_dropped_key(reader_dir, target):
    _read_edited(reader_dir, *target, _DROP)


# ------------------------------------------------------------ enhancement

# three speakers on three mics, one speaking twice: the 4-row RTTM of the
# row-order property
MEETING_ROWS = [("m", "p", 0.0, 0.9), ("m", "q", 0.5, 1.4), ("m", "r", 1.0, 2.0),
                ("m", "p", 1.5, 2.2)]


@pytest.fixture(scope="module")
def meeting():
    """A 2.2 s simulated meeting of the rows, peaking near -11 dBFS, and
    its enhanced segments with WPE on and off.

    Scaling by a power of two is exact in every operation of the recipe
    until an absolute floor binds. At this level WPE's power estimates
    stay above its 1e-10 floor, which the fixture checks; the other
    floors act far lower.
    """
    rng = np.random.default_rng(5)
    n = int(2.2 * FS)
    tracks = {spk: np.zeros(n) for spk in sorted({row[1] for row in MEETING_ROWS})}
    for _, speaker, a, b in MEETING_ROWS:
        lo, hi = int(a * FS), int(b * FS)
        env = 0.55 + 0.45 * np.sin(2 * np.pi * rng.uniform(2.0, 4.0) * np.arange(hi - lo) / FS)
        tracks[speaker][lo:hi] = env * rng.normal(size=hi - lo)
    room = RoomSpec(
        dimensions=(6.0, 5.0, 3.0),
        absorption=0.5,
        max_order=1,
        sample_rate_hz=FS,
        source_positions=((1.8, 3.6, 1.6), (4.3, 1.4, 1.5), (4.1, 3.9, 1.7)),
        mic_positions=((2.95, 2.45, 1.4), (3.05, 2.55, 1.4), (2.95, 2.55, 1.4)),
    )
    plan = MixturePlan(
        sources=tuple(PlannedSource(s, WaveformBuffer(x, FS), 0.0) for s, x in tracks.items()),
        snr_db=20.0,
        seed=5,
        session="m",
    )
    mixture = make_meeting(plan, room).mixture
    configs = {"wpe": GssConfig(), "no-wpe": GssConfig(wpe=None)}
    # WPE estimates its powers from the input, then from each iteration's output
    spec = stft(mixture, StftParams())
    wpe_cfg = configs["wpe"].wpe
    for i in range(wpe_cfg.iterations):
        y = wpe(spec, replace(wpe_cfg, iterations=i)).values if i else spec.values
        assert np.mean(np.abs(y) ** 2, axis=2).min() > 10 * WPE_PSD_FLOOR
    segments = DiarizationSet.from_rows(MEETING_ROWS)
    enhanced = {name: gss_enhance(mixture, segments, cfg) for name, cfg in configs.items()}
    return mixture, segments, configs, enhanced


@example(k=20, wpe="wpe")
@settings(max_examples=6)
@given(k=st.integers(0, 24), wpe=st.sampled_from(["wpe", "no-wpe"]))
def test_enhance_commutes_with_scaling_by_a_power_of_two(meeting, k, wpe):
    mixture, segments, configs, enhanced = meeting
    louder = WaveformBuffer(mixture.samples * 2.0**k, FS)
    out = gss_enhance(louder, segments, configs[wpe])
    assert list(out) == list(enhanced[wpe])
    for key, expected in enhanced[wpe].items():
        np.testing.assert_array_equal(out[key].samples, expected.samples * 2.0**k)


@settings(max_examples=6)
@given(order=st.permutations(range(len(MEETING_ROWS))))
def test_enhance_output_bytes_do_not_depend_on_the_rttm_row_order(
    meeting, order, tmp_path_factory
):
    mixture, _, configs, enhanced = meeting
    lines = format_rttm(DiarizationSet.from_rows(MEETING_ROWS)).splitlines(keepends=True)
    path = tmp_path_factory.mktemp("order") / "m.rttm"
    path.write_text("".join(lines[i] for i in order), encoding="utf-8")
    out = gss_enhance(mixture, read_rttm(path), configs["wpe"])
    assert list(out) == list(enhanced["wpe"])
    for key, expected in enhanced["wpe"].items():
        assert out[key].samples.tobytes() == expected.samples.tobytes()
