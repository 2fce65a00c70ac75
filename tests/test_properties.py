"""Property tests against plain oracles, with derandomized hypothesis.

Examples are drawn from a fixed seed (``derandomize=True``) and their
number is bounded, so every run checks the same cases in a few seconds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farfield import (
    DiarizationSet,
    ParameterError,
    StftParams,
    WaveformBuffer,
    edit_distance,
    format_rttm,
    format_utterances,
    istft,
    read_rttm,
    read_utterances,
    rover,
    stft,
)

FS = 16000
PROPERTY = settings(derandomize=True, deadline=None, database=None)


@st.composite
def cola_params(draw):
    # a periodic Hann window of length k * m with shift m overlap-adds to a
    # constant for every k >= 2
    k = draw(st.integers(2, 8))
    shift = draw(st.integers(2, 64))
    length = k * shift
    fft_size = length + draw(st.integers(0, length))
    return StftParams(length, shift, fft_size)


@settings(PROPERTY, max_examples=80)
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


def dp_edit_distance(ref, hyp):
    """Full-table Levenshtein DP over (cost, substitutions, insertions).

    Tuples add componentwise and compare lexicographically, so the
    minimum picks the cheapest alignment, then the one with fewer
    substitutions, then fewer insertions.
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


tokens = st.one_of(
    st.text(alphabet="abcd", max_size=24),
    st.lists(st.integers(0, 3), max_size=24),
)


@settings(PROPERTY, max_examples=300)
@given(ref=tokens, hyp=tokens)
def test_edit_distance_matches_dp_oracle(ref, hyp):
    assert edit_distance(ref, hyp) == dp_edit_distance(ref, hyp)


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


@settings(PROPERTY, max_examples=200)
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


@settings(PROPERTY, max_examples=200)
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


@settings(PROPERTY, max_examples=150)
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
