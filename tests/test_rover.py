"""Hypothesis fusion by progressive alignment and voting."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from farfield import (
    NULL_TOKEN,
    ArcTally,
    ParameterError,
    WordTransitionNetwork,
    align_into_wtn,
    rover,
)


# ------------------------------------------------------ network pieces


def test_arc_tally_add_accumulates_and_keeps_first_system():
    t = ArcTally(count=1, conf_sum=0.9, first_system=2)
    t2 = t.add(0.5, system=4)
    assert (t2.count, t2.conf_sum, t2.first_system) == (2, 1.4, 2)
    t3 = t2.add(1.0, system=0)
    assert t3.first_system == 0


def test_wtn_rejects_inconsistent_slot_counts():
    slot = {"a": ArcTally(1, 1.0, 0)}
    with pytest.raises(ParameterError, match="slot 0"):
        WordTransitionNetwork(slots=(slot,), n_systems=2)


def test_wtn_from_hypothesis():
    wtn = WordTransitionNetwork.from_hypothesis(["x", ("y", 0.25)])
    assert wtn.n_systems == 1
    assert [set(s) for s in wtn.slots] == [{"x"}, {"y"}]
    assert wtn.slots[1]["y"] == ArcTally(1, 0.25, 0)


def test_null_token_is_reserved():
    with pytest.raises(ParameterError, match="reserved"):
        WordTransitionNetwork.from_hypothesis(["a", NULL_TOKEN])
    wtn = WordTransitionNetwork.from_hypothesis(["a"])
    with pytest.raises(ParameterError, match="reserved"):
        align_into_wtn(wtn, ["@"])
    with pytest.raises(ParameterError, match="reserved"):
        rover([["a"], ["@"]])


def test_align_preserves_count_invariant():
    rng = np.random.default_rng(0)
    vocab = list("abcd")
    wtn = WordTransitionNetwork.from_hypothesis(
        rng.choice(vocab, size=5).tolist()
    )
    for k in range(2, 6):
        wtn = align_into_wtn(wtn, rng.choice(vocab, size=rng.integers(0, 8)).tolist())
        assert wtn.n_systems == k
        for slot in wtn.slots:
            assert sum(t.count for t in slot.values()) == k


def test_align_new_slot_credits_null_to_prior_systems():
    wtn = WordTransitionNetwork.from_hypothesis(["a"])
    wtn = align_into_wtn(wtn, ["b", "a"])
    first = wtn.slots[0]
    assert first["b"] == ArcTally(1, 1.0, 1)
    assert first[NULL_TOKEN].count == 1 and first[NULL_TOKEN].first_system == 0
    assert wtn.slots[1]["a"].count == 2


items = st.one_of(
    st.sampled_from("abcd"),
    st.tuples(st.sampled_from("abcd"), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
)


@settings(max_examples=200)
@given(hyps=st.lists(st.lists(items, max_size=10), min_size=2, max_size=5))
def test_align_matches_cell_by_cell_oracle(hyps):
    # small vocabularies give repeated tokens and many tied alignments
    wtn = WordTransitionNetwork.from_hypothesis(hyps[0])
    for hyp in hyps[1:]:
        got = align_into_wtn(wtn, hyp)
        want = ref.align_into_wtn(wtn, hyp)
        assert got == want
        assert [list(s.items()) for s in got.slots] == [list(s.items()) for s in want.slots]
        wtn = got


def _long_hypotheses(rng, short_first):
    # one 400-token base and two 100-150-token hypotheses, each a window
    # of the base with a tenth of its tokens redrawn, or fresh draws
    vocab = [f"w{k}" for k in range(int(rng.integers(3, 60)))]
    base = [str(t) for t in rng.choice(vocab, 400)]
    hyps = []
    for _ in range(2):
        n = int(rng.integers(100, 151))
        if rng.random() < 0.5:
            lo = int(rng.integers(0, 401 - n))
            hyp = base[lo:lo + n]
            for k in rng.choice(n, n // 10, replace=False):
                hyp[k] = str(rng.choice(vocab))
        else:
            hyp = [str(t) for t in rng.choice(vocab, n)]
        hyps.append([(t, float(rng.choice([0.25, 1.0]))) if rng.random() < 0.2 else t for t in hyp])
    return [hyps[0], base, hyps[1]] if short_first else [base, hyps[0], hyps[1]]


@pytest.mark.parametrize("seed", range(6))
def test_align_matches_oracle_on_long_hypotheses(seed):
    # rows of 100-400 bits against networks whose slot count differs from
    # the hypothesis length by hundreds: the carries of the bit-parallel
    # rows cross many 30-bit int digits
    rng = np.random.default_rng(seed)
    hyps = _long_hypotheses(rng, short_first=seed % 2 == 0)
    wtn = WordTransitionNetwork.from_hypothesis(hyps[0])
    gaps = []
    for hyp in hyps[1:]:
        gaps.append(abs(len(wtn.slots) - len(hyp)))
        got = align_into_wtn(wtn, hyp)
        want = ref.align_into_wtn(wtn, hyp)
        assert got == want
        assert [list(s.items()) for s in got.slots] == [list(s.items()) for s in want.slots]
        wtn = got
    assert min(gaps) >= 250


# ------------------------------------------------------ malformed input


@pytest.mark.parametrize(
    "item, match",
    [
        pytest.param((["a"], 0.5), "hashable", id="unhashable_token_in_a_pair"),
        pytest.param(5, "pairs", id="bare_non_str_token"),
        pytest.param(("a",), "pairs", id="one_tuple"),
        pytest.param(("a", 0.5, 1), "pairs", id="three_tuple"),
        pytest.param(("b", "x"), "confidence", id="non_numeric_confidence"),
        pytest.param(("b", True), "confidence", id="bool_confidence"),
        pytest.param(("b", float("nan")), "confidence", id="nan_confidence"),
        pytest.param(("b", float("inf")), "confidence", id="inf_confidence"),
        pytest.param(("b", -float("inf")), "confidence", id="minus_inf_confidence"),
    ],
)
def test_malformed_hypothesis_element_is_a_parameter_error(item, match):
    with pytest.raises(ParameterError, match=match):
        WordTransitionNetwork.from_hypothesis(["a", item])
    wtn = WordTransitionNetwork.from_hypothesis(["a"])
    with pytest.raises(ParameterError, match=match):
        align_into_wtn(wtn, [item])
    with pytest.raises(ParameterError, match=match):
        rover([["a"], ["a", item]], alpha=0.5)


def test_pairs_may_be_lists_and_tokens_any_hashable():
    wtn = WordTransitionNetwork.from_hypothesis([["a", 0.5], (7, 1)])
    assert wtn.slots[0]["a"] == ArcTally(1, 0.5, 0)
    assert wtn.slots[1][7] == ArcTally(1, 1.0, 0)


# ---------------------------------------------------------- the verbs


def test_rover_worked_example():
    assert rover([["a", "b"], ["a", "c"], ["a", "c"]]) == ("a", "c")


def test_rover_majority_null_deletes_token():
    assert rover([["a", "b"], ["a"], ["a"]]) == ("a",)
    assert rover([["a"], ["b", "a"]]) == ("a",)


def test_rover_unanimous_systems_return_their_hypothesis():
    rng = np.random.default_rng(1)
    vocab = list("abcdef")
    for _ in range(50):
        hyp = rng.choice(vocab, size=rng.integers(1, 10)).tolist()
        for n in (1, 2, 3, 5):
            assert rover([list(hyp)] * n) == tuple(hyp)


def test_rover_matches_per_position_plurality():
    # per-position disjoint vocabularies pin the alignment to the
    # diagonal, so fusion must reduce to independent slot votes
    rng = np.random.default_rng(2)
    for _ in range(100):
        length = int(rng.integers(1, 8))
        hyps = [
            [f"w{i}_{rng.integers(0, 3)}" for i in range(length)]
            for _ in range(3)
        ]
        got = rover(hyps, alpha=1.0)
        want = []
        for i in range(length):
            col = [h[i] for h in hyps]
            counts = Counter(col)
            top = max(counts.values())
            # ties go to the earliest contributing system
            want.append(next(tok for tok in col if counts[tok] == top))
        assert got == tuple(want)


def test_rover_confidence_outvotes_count_at_low_alpha():
    hyps = [[("a", 0.1)], [("a", 0.1)], [("b", 0.95)]]
    assert rover(hyps, alpha=1.0) == ("a",)
    assert rover(hyps, alpha=0.0) == ("b",)


def test_rover_blended_alpha_hand_value():
    # score(a) = 0.5 * 1/2 + 0.5 * 0.9; score(b) = 0.5 * 1/2 + 0.5 * 0.1
    hyps = [[("a", 0.9)], [("b", 0.1)]]
    assert rover(hyps, alpha=0.5) == ("a",)
    assert rover([[("a", 0.1)], [("b", 0.9)]], alpha=0.5) == ("b",)


def test_rover_null_conf_gates_weak_insertions():
    hyps = [["a", ("b", 0.2)], ["a"]]
    assert rover(hyps, alpha=0.0) == ("a",)


def test_rover_count_ties_go_to_earliest_system():
    assert rover([["x"], ["y"]]) == ("x",)
    assert rover([["y"], ["x"]]) == ("y",)


def test_rover_validation():
    with pytest.raises(ParameterError, match="at least one"):
        rover([])
    with pytest.raises(ParameterError, match="alpha"):
        rover([["a"]], alpha=1.5)
    with pytest.raises(ParameterError, match="alpha"):
        rover([["a"]], alpha=-0.1)


def test_rover_single_system_is_identity():
    assert rover([["just", "one", "stream"]]) == ("just", "one", "stream")
    assert rover([[]]) == ()
