"""Scoring metrics: edit distance, cpCER, DER, SI-SDR."""

import itertools

import numpy as np
import pytest
import reference_kernels as ref_kernels
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import farfield.metrics
from farfield import (
    DiarizationSet,
    DiarSegment,
    ParameterError,
    TranscriptEntry,
    TranscriptSet,
    UndefinedMetricError,
    cpcer,
    der,
    edit_distance,
    normalize_text,
    si_sdr,
)


# ---------------------------------------------------------------- text


def test_normalize_text_strips_whitespace():
    assert normalize_text("a b\tc\nd") == ("a", "b", "c", "d")
    assert normalize_text("") == ()
    assert normalize_text(" \t\n") == ()


def test_normalize_text_nfkc_folding():
    # ligature, circled digit, full-width letter all decompose under NFKC
    assert normalize_text("ﬁsh") == ("f", "i", "s", "h")
    assert normalize_text("①") == ("1",)
    assert normalize_text("Ａ") == ("A",)


# ------------------------------------------------------- edit distance


def test_edit_distance_known_values():
    assert edit_distance("abc", "abc") == (0, 0, 0)
    assert edit_distance("abc", "") == (0, 0, 3)
    assert edit_distance("", "abc") == (0, 3, 0)
    assert edit_distance("", "") == (0, 0, 0)
    # classic kitten -> sitting: two substitutions, one insertion
    assert edit_distance("kitten", "sitting") == (2, 1, 0)


def test_edit_distance_prefers_fewer_substitutions_then_insertions():
    # "ab" -> "ba" costs 2 either as two subs or as ins+del; the packed
    # minimization must pick the alignment with fewer substitutions
    assert edit_distance("ab", "ba") == (0, 1, 1)
    assert ref_kernels.edit_distance("ab", "ba") == (0, 1, 1)


def test_edit_distance_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(300):
        sigma = rng.integers(2, 5)
        ref = rng.integers(0, sigma, size=rng.integers(0, 13)).tolist()
        hyp = rng.integers(0, sigma, size=rng.integers(0, 13)).tolist()
        assert edit_distance(ref, hyp) == ref_kernels.edit_distance(ref, hyp)


def test_edit_distance_arbitrary_tokens():
    assert edit_distance([("a", 1), ("b", 2)], [("a", 1), ("c", 3)]) == (1, 0, 0)


def test_edit_distance_tokens_equal_under_eq_match():
    assert edit_distance([1, 2.0, np.int64(3)], [1.0, np.int64(2), 3]) == (0, 0, 0)
    assert edit_distance([np.float64(0.5), True], [0.5, 1]) == (0, 0, 0)
    assert edit_distance([1, 2], [1.5, 2]) == (1, 0, 0)


@pytest.mark.parametrize(
    "ref, hyp", [(["a", ["b"]], ["a"]), (["a"], ["a", ["b"]]), ([("a", [1])], [])]
)
def test_edit_distance_rejects_unhashable_tokens(ref, hyp):
    with pytest.raises(ParameterError, match="hashable") as err:
        edit_distance(ref, hyp)
    bad = [t for t in (*ref, *hyp) if t != "a"][0]
    assert repr(bad) in str(err.value)


@pytest.mark.parametrize("sigma", [2, 5])
@pytest.mark.parametrize("m", [1, 7])
def test_edit_distance_matches_oracle_across_step_blocks(monkeypatch, sigma, m):
    # four reference tokens per block of step rows
    monkeypatch.setattr(farfield.metrics, "_STEP_BLOCK_BYTES", 9 * m * 4)
    block = 4
    rng = np.random.default_rng(10 * sigma + m)
    for n in (0, 1, block - 1, block, block + 1, 2 * block + 1):
        for _ in range(20):
            ref = rng.integers(0, sigma, size=n).tolist()
            hyp = rng.integers(0, sigma, size=m).tolist()
            assert edit_distance(ref, hyp) == ref_kernels.edit_distance(ref, hyp)
            assert edit_distance(hyp, ref) == ref_kernels.edit_distance(hyp, ref)


def test_edit_distance_has_no_cap_on_the_longer_side():
    long = ["a"] * 2**21  # only the shorter side is bounded
    assert edit_distance(["a", "b", "a"], long) == (1, 2**21 - 3, 0)
    assert edit_distance(long, ["a", "b", "a"]) == (1, 0, 2**21 - 3)


def test_edit_distance_rejects_two_sequences_at_the_substitution_field_width(monkeypatch):
    # with 4-bit substitution counts the shorter side may hold at most 15
    # tokens; at 15 the field is full and must not carry into the cost
    monkeypatch.setattr(farfield.metrics, "_COST1", 16)
    monkeypatch.setattr(farfield.metrics, "_SUB1", 17)
    with pytest.raises(ParameterError, match="2\\^31"):
        edit_distance("a" * 16, "b" * 16)
    assert edit_distance("a" * 15, "b" * 40) == (15, 25, 0)
    assert edit_distance("b" * 40, "a" * 15) == (15, 0, 25)


# --------------------------------------------------------------- cpCER


def _refs(rows):
    return TranscriptSet.from_rows(rows)


def test_cpcer_worked_case():
    refs = _refs(
        [("s1", "A", 0.0, 1.0, "abcd"), ("s1", "B", 1.0, 2.0, "wxyz")]
    )
    hyps = _refs(
        [("s1", "1", 0.0, 1.0, "wxyz"), ("s1", "2", 1.0, 2.0, "abcx")]
    )
    rate, breakdown, assignment = cpcer(refs, hyps)
    assert rate == pytest.approx(0.125)
    assert breakdown["s1"].errors == 1
    assert breakdown["s1"].ref_chars == 8
    assert assignment == {"s1": (("A", "2"), ("B", "1"))}


def test_cpcer_concatenates_streams_in_time_order():
    refs = _refs([("s", "A", 2.0, 3.0, "cd"), ("s", "A", 0.0, 1.0, "ab")])
    hyps = _refs([("s", "h", 0.0, 3.0, "abcd")])
    rate, _, _ = cpcer(refs, hyps)
    assert rate == 0.0


def test_cpcer_pads_unequal_stream_counts():
    refs = _refs([("s", "A", 0.0, 1.0, "ab")])
    hyps = _refs([("s", "1", 0.0, 1.0, "ab"), ("s", "2", 1.0, 2.0, "xy")])
    rate, breakdown, assignment = cpcer(refs, hyps)
    # extra hypothesis stream scores as pure insertions against empty ref
    assert rate == pytest.approx(1.0)
    assert breakdown["s"].ref_chars == 2
    assert assignment["s"] == (("A", "1"), (None, "2"))


def test_cpcer_missing_hypothesis_stream_scores_deletions():
    refs = _refs([("s", "A", 0.0, 1.0, "ab"), ("s", "B", 1.0, 2.0, "cdef")])
    hyps = _refs([("s", "1", 0.0, 1.0, "ab")])
    rate, _, assignment = cpcer(refs, hyps)
    assert rate == pytest.approx(4 / 6)
    assert assignment["s"] == (("A", "1"), ("B", None))


def test_cpcer_matches_exhaustive_permutation_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n_sess = int(rng.integers(1, 3))
        ref_rows, hyp_rows = [], []
        for s in range(n_sess):
            sess = f"s{s}"
            for i in range(rng.integers(1, 4)):
                text = "".join(
                    rng.choice(list("abcx"), size=rng.integers(1, 7))
                )
                ref_rows.append((sess, f"R{i}", float(i), float(i) + 0.5, text))
            for j in range(rng.integers(1, 4)):
                text = "".join(
                    rng.choice(list("abcx"), size=rng.integers(0, 7))
                )
                hyp_rows.append((sess, f"H{j}", float(j), float(j) + 0.5, text))
        refs = _refs(ref_rows)
        hyps = _refs(hyp_rows)
        total_err = total_ref = 0
        for sess in refs.sessions():
            rs = refs.streams(sess)
            hs = hyps.streams(sess)
            rtoks = [rs[k] for k in sorted(rs)]
            htoks = [hs[k] for k in sorted(hs)]
            n = max(len(rtoks), len(htoks))
            rtoks += [()] * (n - len(rtoks))
            htoks += [()] * (n - len(htoks))
            best = min(
                sum(sum(edit_distance(rtoks[i], htoks[p[i]])) for i in range(n))
                for p in itertools.permutations(range(n))
            )
            total_err += best
            total_ref += sum(len(t) for t in rtoks)
        rate, _, _ = cpcer(refs, hyps)
        assert rate == pytest.approx(total_err / total_ref, abs=0)


def test_cpcer_skips_empty_reference_session_with_warning(caplog):
    refs = _refs(
        [("real", "A", 0.0, 1.0, "abcd"), ("empty", "A", 0.0, 1.0, "  ")]
    )
    hyps = _refs(
        [("real", "1", 0.0, 1.0, "abcd"), ("empty", "1", 0.0, 1.0, "zzzz")]
    )
    with caplog.at_level("WARNING", logger="farfield.metrics"):
        rate, breakdown, _ = cpcer(refs, hyps)
    assert rate == 0.0
    assert "empty" not in breakdown
    assert any("no reference characters" in r.message for r in caplog.records)


def test_cpcer_all_empty_references_rejected():
    refs = _refs([("s", "A", 0.0, 1.0, " ")])
    hyps = _refs([("s", "1", 0.0, 1.0, "abc")])
    with pytest.raises(UndefinedMetricError):
        cpcer(refs, hyps)


@pytest.mark.parametrize("side", ["ref", "hyp"])
def test_cpcer_names_an_unhashable_token(side):
    plain = TranscriptSet([TranscriptEntry("s", "A", 0.0, 1.0, ("a", "b"))])
    bad = TranscriptSet([TranscriptEntry("s", "B", 0.0, 1.0, ("a", ["b"]))])
    refs, hyps = (bad, plain) if side == "ref" else (plain, bad)
    with pytest.raises(ParameterError, match=r"hashable, got \['b'\]"):
        cpcer(refs, hyps)


@st.composite
def cost_matrices(draw):
    # int64, 0x0 to 8x8 either way round; {0, 1} ties heavily, and the
    # negation is the form der passes
    n, m = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    lo, hi = draw(st.sampled_from([(0, 1), (-1000, 1000), (-10**12, 10**12)]))
    values = draw(st.lists(st.integers(lo, hi), min_size=n * m, max_size=n * m))
    cost = np.array(values, dtype=np.int64).reshape(n, m)
    return -cost if draw(st.booleans()) else cost


@settings(max_examples=400)
@given(cost=cost_matrices())
@example(cost=np.full((4, 4), 7, dtype=np.int64))
@example(cost=np.array([[3, 1, 2, 1]], dtype=np.int64))
@example(cost=np.array([[3], [1], [2], [1]], dtype=np.int64))
@example(cost=np.zeros((0, 0), dtype=np.int64))
def test_assign_reaches_the_optimum_of_linear_sum_assignment(cost):
    rows, cols = farfield.metrics._assign(cost)
    best_rows, best_cols = linear_sum_assignment(cost)
    assert len(rows) == len(cols) == min(cost.shape)
    assert np.all(np.diff(rows) > 0) and np.all(rows >= 0)
    assert len(set(cols.tolist())) == len(cols) and np.all(cols >= 0)
    assert int(cost[rows, cols].sum()) == int(cost[best_rows, best_cols].sum())
    # ties resolve as scipy resolves them, so scores keep their assignments
    np.testing.assert_array_equal(rows, best_rows)
    np.testing.assert_array_equal(cols, best_cols)
    again = farfield.metrics._assign(cost)
    np.testing.assert_array_equal(again[0], rows)
    np.testing.assert_array_equal(again[1], cols)


def _streams_by_rescan(ts, session):
    """Stream name -> tokens, from a scan of every entry of the set."""
    chosen = sorted(
        (e for e in ts.entries if e.session == session),
        key=lambda e: (e.start_s, e.end_s, "".join(e.tokens)),
    )
    out: dict = {}
    for e in chosen:
        out.setdefault(e.stream, []).extend(e.tokens)
    return {name: tuple(toks) for name, toks in sorted(out.items())}


def test_cpcer_groups_interleaved_sessions_as_a_rescan_does():
    rng = np.random.default_rng(4)
    sides = []
    for _ in range(2):
        rows = [
            (f"s{k % 7}", f"S{int(rng.integers(3))}{k % 7}", float(k), k + 0.5,
             "".join(rng.choice(list("abcx"), int(rng.integers(0, 6)))))
            for k in range(120)
        ]
        rng.shuffle(rows)
        # entries of equal bounds, in reverse text order
        rows += [("s3", "S03", 500.0, 500.0 + 1e-10, t) for t in ("zz", "b", "ab")]
        sides.append(TranscriptSet.from_rows(rows))
    refs, hyps = sides
    for ts in sides:
        assert ts.sessions() == [f"s{k}" for k in range(7)]
        for sess in ts.sessions() + ["absent"]:
            assert ts.streams(sess) == _streams_by_rescan(ts, sess)
    assert refs.streams("s3")["S03"][-5:] == tuple("abbzz")
    rate, breakdown, assignment = cpcer(refs, hyps)
    alone = [cpcer(*(TranscriptSet([e for e in ts.entries if e.session == sess])
                     for ts in sides)) for sess in refs.sessions()]
    assert breakdown == {sess: b for _, bd, _ in alone for sess, b in bd.items()}
    assert assignment == {sess: a for _, _, asg in alone for sess, a in asg.items()}
    errors = sum(b.errors for b in breakdown.values())
    assert rate == errors / sum(b.ref_chars for b in breakdown.values())


def test_transcript_set_rejects_overlap_within_stream():
    with pytest.raises(ParameterError, match="overlapping"):
        _refs([("s", "A", 0.0, 1.0, "ab"), ("s", "A", 0.5, 1.5, "cd")])


def test_transcript_entry_rejects_bad_interval():
    with pytest.raises(ParameterError, match="start < end"):
        _refs([("s", "A", 1.0, 1.0, "ab")])


# ----------------------------------------------------------------- DER


def test_der_confusion_toy_case():
    ref = DiarizationSet.from_rows([("m", "A", 0.0, 8.0)])
    hyp = DiarizationSet.from_rows([("m", "X", 0.0, 6.0), ("m", "Y", 6.0, 8.0)])
    rate, miss, fa, conf = der(ref, hyp, collar_s=0.0)
    assert rate == pytest.approx(0.25, abs=0)
    assert (miss, fa) == (0.0, 0.0)
    assert conf == pytest.approx(0.25, abs=0)


def test_der_collar_excises_boundary_frames():
    # ref [0, 1]; hyp covers only [0, 0.5]; collar 0.25 leaves frames
    # [0.25, 0.75) scored, half of which the hypothesis misses
    ref = DiarizationSet.from_rows([("m", "A", 0.0, 1.0)])
    hyp = DiarizationSet.from_rows([("m", "A", 0.0, 0.5)])
    rate, miss, fa, conf = der(ref, hyp, collar_s=0.25)
    assert (rate, miss, fa, conf) == (0.5, 0.5, 0.0, 0.0)


def test_der_overlap_scoring_toggle():
    ref = DiarizationSet.from_rows([("m", "A", 0.0, 1.0), ("m", "B", 0.5, 1.5)])
    hyp = DiarizationSet.from_rows([("m", "A", 0.0, 1.5)])
    rate, miss, fa, conf = der(ref, hyp, collar_s=0.0, score_overlap=True)
    assert (rate, miss, fa, conf) == (0.5, 0.25, 0.0, 0.25)
    rate, miss, fa, conf = der(ref, hyp, collar_s=0.0, score_overlap=False)
    assert (rate, miss, fa, conf) == (0.5, 0.0, 0.0, 0.5)


def test_der_perfect_hypothesis_is_zero():
    rows = [("m", "A", 0.0, 2.0), ("m", "B", 2.5, 4.0), ("n", "A", 0.0, 1.0)]
    ref = DiarizationSet.from_rows(rows)
    hyp = DiarizationSet.from_rows([(s, f"spk-{k}", a, b) for s, k, a, b in rows])
    assert der(ref, hyp, collar_s=0.0) == (0.0, 0.0, 0.0, 0.0)


def _random_diar(rng, sessions=("m",), speakers=("A", "B", "C")):
    rows = []
    for sess in sessions:
        for spk in speakers:
            t = 0.0
            for _ in range(rng.integers(1, 4)):
                t += float(rng.integers(0, 20)) / 10.0
                dur = float(rng.integers(2, 15)) / 10.0
                rows.append((sess, spk, t, t + dur))
                t += dur
    return rows


def test_der_invariant_to_speaker_relabeling():
    rng = np.random.default_rng(7)
    for trial in range(25):
        ref = DiarizationSet.from_rows(_random_diar(rng))
        hyp_rows = _random_diar(rng)
        hyp = DiarizationSet.from_rows(hyp_rows)
        base = der(ref, hyp, collar_s=0.0)
        relabel = {"A": "zz", "B": "qq", "C": "aa"}
        permuted = DiarizationSet.from_rows(
            [(s, relabel[spk], a, b) for s, spk, a, b in hyp_rows]
        )
        assert der(ref, permuted, collar_s=0.0) == base


def test_der_components_sum_to_rate():
    rng = np.random.default_rng(11)
    for trial in range(25):
        ref = DiarizationSet.from_rows(_random_diar(rng, sessions=("m", "n")))
        hyp = DiarizationSet.from_rows(_random_diar(rng, sessions=("m", "n")))
        rate, miss, fa, conf = der(ref, hyp, collar_s=0.1)
        assert rate == pytest.approx(miss + fa + conf, abs=1e-12)


def test_der_negative_collar_rejected():
    ref = DiarizationSet.from_rows([("m", "A", 0.0, 1.0)])
    with pytest.raises(ParameterError, match="collar"):
        der(ref, ref, collar_s=-0.1)


def test_der_bounds_each_session_grid(monkeypatch):
    # two speakers x 801 frames (0 to 8 s) in session m, fewer in n
    ref = DiarizationSet.from_rows([("m", "A", 0.0, 8.0), ("n", "A", 0.0, 1.0)])
    hyp = DiarizationSet.from_rows([("m", "X", 0.0, 6.0), ("n", "X", 0.0, 1.0)])
    monkeypatch.setattr(farfield.metrics, "_MAX_GRID_CELLS", 2 * 801)
    assert der(ref, hyp, collar_s=0.0)[0] == pytest.approx(0.25 * 8 / 9)
    monkeypatch.setattr(farfield.metrics, "_MAX_GRID_CELLS", 2 * 801 - 1)
    with pytest.raises(ParameterError, match="session m: .* 2 speakers x 801 frames"):
        der(ref, hyp, collar_s=0.0)


def test_der_counts_more_speakers_per_frame_than_a_byte_holds():
    # 300 reference speakers talk at once over two hypothesis speakers
    ref = DiarizationSet.from_rows([("m", f"A{k}", 0.0, 1.0 + k / 100) for k in range(300)])
    hyp = DiarizationSet.from_rows([("m", "X", 0.0, 1.2), ("m", "Y", 0.5, 1.0)])
    for score_overlap in (True, False):
        assert der(ref, hyp, 0.0, score_overlap) == ref_kernels.der(ref, hyp, 0.0, score_overlap)
    assert der(ref, hyp, 0.0)[1] > 0.99  # nearly all miss


def test_der_no_scored_reference_speech_rejected():
    ref = DiarizationSet.from_rows([("m", "A", 0.0, 0.4)])
    hyp = DiarizationSet.from_rows([("m", "A", 0.0, 0.4)])
    # collar swallows the whole segment
    with pytest.raises(UndefinedMetricError):
        der(ref, hyp, collar_s=0.25)


def test_der_empty_reference_rejected():
    ref = DiarizationSet(segments=())
    hyp = DiarizationSet.from_rows([("m", "A", 0.0, 1.0)])
    with pytest.raises(UndefinedMetricError):
        der(ref, hyp)


def test_diar_segment_rejects_bad_interval():
    with pytest.raises(ParameterError, match="start < end"):
        DiarizationSet.from_rows([("m", "A", 2.0, 2.0)])
    # times must also be finite and not negative
    for start, end in [(0.0, np.inf), (np.nan, 1.0), (-np.inf, 1.0), (-1.0, -0.5), (-0.5, 1.0)]:
        with pytest.raises(ParameterError, match="start < end"):
            DiarSegment("m", "A", start, end)


@pytest.mark.parametrize("field", ["session", "speaker"])
@pytest.mark.parametrize("name", ["", "ann smith", "ann\tx", "x\n", 5])
def test_diar_segment_rejects_names_that_are_not_one_field(field, name):
    names = {"session": "m", "speaker": "A", field: name}
    with pytest.raises(ParameterError, match=field):
        DiarSegment(names["session"], names["speaker"], 0.0, 1.0)


@st.composite
def grid_intervals(draw):
    # (n_rows, n, [(row, lo, hi), ...]); bounds favour 0 and n, and lo >= hi
    # (an empty interval) is drawn too
    n = draw(st.integers(0, 40))
    n_rows = draw(st.integers(0, 4))
    if n_rows == 0:
        return n_rows, n, []
    bound = st.sampled_from([0, n]) | st.integers(0, n)
    intervals = st.tuples(st.integers(0, n_rows - 1), bound, bound)
    return n_rows, n, draw(st.lists(intervals, max_size=12))


@settings(max_examples=300)
@given(case=grid_intervals())
@example(case=(2, 5, [(0, 0, 0), (1, 5, 5), (1, 3, 1)]))  # [0, 0), [n, n), lo > hi
# row 0 full, row 1 without an interval, row 2 nested and overlapping ones
@example(case=(3, 6, [(0, 0, 6), (2, 1, 5), (2, 2, 3), (2, 4, 6), (2, 5, 6)]))
@example(case=(3, 0, [(1, 0, 0)]))  # rows without cells
@example(case=(0, 4, []))  # no rows
def test_covered_equals_one_slice_per_interval(case):
    n_rows, n, intervals = case
    rows, lo, hi = np.array(intervals, dtype=np.intp).reshape(-1, 3).T
    got = farfield.metrics._covered(rows, lo, hi, n_rows, n)
    assert got.dtype == bool and got.shape == (n_rows, n)
    np.testing.assert_array_equal(got, ref_kernels.covered(rows, lo, hi, n_rows, n))


@st.composite
def diar_rows(draw, session_names=("m", "n"), speaker_names=("A", "B", "C")):
    # boundaries on a 5 ms grid, so collars at half frames round half to even
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        start = draw(st.integers(0, 600))
        length = draw(st.integers(1, 300))
        rows.append(
            (
                draw(st.sampled_from(session_names)),
                draw(st.sampled_from(speaker_names)),
                start * 0.005,
                (start + length) * 0.005,
            )
        )
    return rows


@settings(max_examples=250)
@given(
    ref_rows=diar_rows(),
    hyp_rows=st.just([]) | diar_rows(speaker_names=("x", "y")),
    collar_s=st.sampled_from([0.0, 0.005, 0.01, 0.025, 0.25, 1.0, 5.0]),
    score_overlap=st.booleans(),
)
def test_der_equals_the_reference_implementation(ref_rows, hyp_rows, collar_s, score_overlap):
    # a 5 s collar covers every frame from 0 to the horizon of these sessions
    ref = DiarizationSet.from_rows(ref_rows)
    hyp = DiarizationSet.from_rows(hyp_rows)
    try:
        want = ref_kernels.der(ref, hyp, collar_s, score_overlap)
    except ZeroDivisionError:
        with pytest.raises(UndefinedMetricError):
            der(ref, hyp, collar_s, score_overlap)
        return
    assert der(ref, hyp, collar_s, score_overlap) == want
    if not hyp_rows:
        assert want[0] == want[1] == 1.0  # all miss


# -------------------------------------------------------------- SI-SDR


def test_si_sdr_orthogonal_noise_known_value():
    r = np.array([1.0, -1.0, 1.0, -1.0])
    w = np.array([1.0, 1.0, -1.0, -1.0])
    for gain_db in (0.0, 10.0, 20.0, 35.0):
        g = 10 ** (-gain_db / 20)
        assert si_sdr(r + g * w, r) == pytest.approx(gain_db, abs=1e-9)


def test_si_sdr_scale_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = rng.normal(size=256)
        e = r + 0.1 * rng.normal(size=256)
        base = si_sdr(e, r)
        assert si_sdr(e, 3.7 * r) == pytest.approx(base, abs=1e-9)
        assert si_sdr(e, -0.02 * r) == pytest.approx(base, abs=1e-9)
        assert si_sdr(5.0 * e, r) == pytest.approx(base, abs=1e-9)


def test_si_sdr_exact_estimate_is_infinite():
    # values chosen exactly representable so mean removal is lossless
    r = np.array([0.25, -0.25, 0.5, 0.0])
    assert si_sdr(r, r) == np.inf
    assert si_sdr(2.0 * r + 1.0, r) == np.inf  # offset and scale removed


def test_si_sdr_mean_removal():
    r = np.array([1.0, -1.0, 1.0, -1.0])
    e = r + 0.25
    assert si_sdr(e, r) == np.inf


def test_si_sdr_rejects_degenerate_inputs():
    with pytest.raises(ParameterError, match="length"):
        si_sdr(np.zeros(4), np.zeros(5))
    with pytest.raises(ParameterError, match="zero power"):
        si_sdr(np.ones(4), np.ones(4))
