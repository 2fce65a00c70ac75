"""Property tests against plain oracles, with derandomized hypothesis.

Examples are drawn from a fixed seed (``derandomize=True``) and their
number is bounded, so every run checks the same cases in a few seconds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from farfield import StftParams, WaveformBuffer, edit_distance, istft, stft

FS = 16000
PROPERTY = settings(derandomize=True, deadline=None, database=None)


@st.composite
def cola_params(draw):
    # a periodic Hann window of length k * m with shift m overlap-adds to a
    # constant for every k >= 2; sqrt-hann on both sides has the same product
    k = draw(st.integers(2, 8))
    shift = draw(st.integers(2, 64))
    length = k * shift
    fft_size = length + draw(st.integers(0, length))
    window = draw(st.sampled_from(["hann", "sqrt-hann"]))
    return StftParams(length, shift, fft_size, window)


@settings(PROPERTY, max_examples=80)
@given(
    p=cola_params(),
    n=st.integers(1, 3000),
    channels=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_stft_istft_round_trip(p, n, channels, seed):
    x = np.random.default_rng(seed).normal(size=(channels, n))
    back = istft(stft(WaveformBuffer(x, FS), p), p, n).samples
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
