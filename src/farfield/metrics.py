"""Scoring: character edit distance, concatenated minimum-permutation
character error rate (cpCER), diarization error rate (DER), and the
scale-invariant SDR used to judge separation quality.

cpCER concatenates each stream's characters in time order per session,
finds the reference-speaker to hypothesis-stream assignment with the
minimum total edit distance (exact, via the Hungarian algorithm), and
pools error counts over sessions. The edit distance of every (reference,
hypothesis) stream pair of a session comes from one bit-parallel pass
per reference stream over all hypothesis streams laid end to end in one
Python int (Myers' bit-vector edit distance, J. ACM 1999, in Hyyrö's
global-distance form, 2001; see ``_edit_costs``): work proportional to
reference tokens x total hypothesis bits / word size, and memory of one
int of sum(len(hyp) + 1) bits per distinct hypothesis token.

DER discretizes time at 10 ms, excises a collar around reference
boundaries, maps speakers by maximum overlap, and charges miss, false
alarm and confusion time against total reference speech time.
"""

from __future__ import annotations

import itertools
import logging
import unicodedata
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UndefinedMetricError, check_field, check_finite

log = logging.getLogger(__name__)

FRAME_S = 0.01  # DER scoring resolution

# edit distance packs (cost, substitutions, insertions) into one int64
# so lexicographic minimization is a single integer min
_SHIFT_COST = 42
_SHIFT_SUB = 21
_FIELD_CAP = 1 << _SHIFT_SUB
_DEL1 = 1 << _SHIFT_COST
_SUB1 = _DEL1 | (1 << _SHIFT_SUB)
_INS1 = _DEL1 | 1
_STEP_BLOCK_BYTES = 1 << 18  # edit distance: step rows formed at once


def normalize_text(text: str) -> tuple:
    """Character tokens: NFKC-normalized scalar values, whitespace removed."""
    folded = unicodedata.normalize("NFKC", text)
    return tuple(ch for ch in folded if not ch.isspace())


@dataclass(frozen=True)
class TranscriptEntry:
    session: str
    stream: str
    start_s: float
    end_s: float
    tokens: tuple

    def __post_init__(self):
        if not self.start_s < self.end_s:
            raise ParameterError(
                f"entry [{self.start_s}, {self.end_s}] must have start < end"
            )
        object.__setattr__(self, "tokens", tuple(self.tokens))


@dataclass(frozen=True)
class TranscriptSet:
    """Timed, stream-attributed token sequences for one or more sessions."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        groups: dict = {}  # session -> stream -> entries in time order
        for e in entries:
            groups.setdefault(e.session, {}).setdefault(e.stream, []).append(e)
        for session, streams in groups.items():
            for stream, group in streams.items():
                # entries of equal bounds (at most 1e-9 s long) go in text order
                group.sort(key=lambda e: (e.start_s, e.end_s, "".join(map(str, e.tokens))))
                for a, b in zip(group, group[1:]):
                    if a.end_s > b.start_s + 1e-9:
                        raise ParameterError(
                            f"overlapping entries in ({session}, {stream}) at "
                            f"[{a.start_s}, {a.end_s}] and [{b.start_s}, {b.end_s}]"
                        )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_groups", groups)

    @classmethod
    def from_rows(cls, rows) -> "TranscriptSet":
        """Build from (session, stream, start_s, end_s, text) tuples."""
        return cls(
            entries=tuple(
                TranscriptEntry(sess, stream, float(a), float(b), normalize_text(text))
                for sess, stream, a, b, text in rows
            )
        )

    def sessions(self) -> list:
        return sorted(self._groups)

    def streams(self, session: str) -> dict:
        """Stream name -> concatenated tokens, segments in time order."""
        streams = self._groups.get(session, {})
        return {
            name: tuple(itertools.chain.from_iterable(e.tokens for e in streams[name]))
            for name in sorted(streams)
        }


@dataclass(frozen=True)
class DiarSegment:
    session: str
    speaker: str
    start_s: float
    end_s: float

    def __post_init__(self):
        check_field("session", self.session)
        check_field("speaker", self.speaker)
        if not 0 <= self.start_s < self.end_s < np.inf:
            raise ParameterError(
                f"segment [{self.start_s}, {self.end_s}] must have 0 <= start < end < inf"
            )


@dataclass(frozen=True)
class DiarizationSet:
    """Speaker-attributed speech segments; overlap is allowed."""

    segments: tuple

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))

    @classmethod
    def from_rows(cls, rows) -> "DiarizationSet":
        return cls(
            segments=tuple(
                DiarSegment(sess, spk, float(a), float(b)) for sess, spk, a, b in rows
            )
        )

    def sessions(self) -> list:
        return sorted({s.session for s in self.segments})

    def for_session(self, session: str) -> "DiarizationSet":
        return DiarizationSet(
            segments=tuple(s for s in self.segments if s.session == session)
        )


def edit_distance(ref, hyp) -> tuple:
    """Levenshtein counts (substitutions, insertions, deletions), unit costs.

    Among minimum-cost alignments the one with fewer substitutions wins,
    then fewer insertions. Tokens may be any hashable values; two tokens
    match when they would be the same dict key (``1``, ``1.0`` and
    ``np.int64(1)`` match).

    Each hypothesis token gets an integer code from a dict; reference
    tokens absent from it get -1. The dynamic program then runs one
    reference token at a time over an int64 row of length
    ``len(hyp) + 1`` holding (cost, substitutions, insertions) packed so
    that lexicographic minimization is a single integer min. Row ``i``
    stores its value at column ``j`` minus ``i`` deletions and ``j``
    insertions, so column 0 is always 0, a deletion keeps the stored
    value, and an insertion is a running minimum along the row. A row
    is then three array calls: add the step row to the row shifted one
    column, take the minimum with the row, and ``np.minimum.accumulate``.

    The step row is ``mismatch * _SUB1 - _DEL1 - _INS1``. It is formed
    for a block of reference tokens at once, from one comparison of
    their codes with the hypothesis codes; the block holds at most
    ``_STEP_BLOCK_BYTES`` of steps and mismatch flags, whatever the size
    of the alphabet. Memory is O(len(hyp)): the row, one buffer of the
    same length and the block.

    The stored values lie between ``-2 min(i, j) * 2^42 - j`` and
    ``2^43``, because the cost at (i, j) is at least ``|i - j|`` and at
    most ``max(i, j)``. They stay inside int64 when the shorter
    sequence has fewer than 2^20 tokens and the longer one fewer than
    2^21, the width of the packed counts.

    Raises
    ------
    ParameterError
        A token is unhashable, a sequence has 2^21 tokens or more, or
        both have 2^20 tokens or more.

    Examples
    --------
    >>> edit_distance("abc", "abc")
    (0, 0, 0)
    >>> edit_distance("abc", "")
    (0, 0, 3)
    """
    r = list(ref)
    h = list(hyp)
    n, m = len(r), len(h)
    if max(n, m) >= _FIELD_CAP or min(n, m) >= _FIELD_CAP // 2:
        raise ParameterError(
            "sequences of 2^21 tokens or more, or two of 2^20 tokens or more, "
            "are not supported"
        )
    codes: dict = {}
    try:
        h_codes = np.array([codes.setdefault(t, len(codes)) for t in h], dtype=np.int64)
        r_codes = np.array([codes.get(t, -1) for t in r], dtype=np.int64)
    except TypeError:
        for t in (*h, *r):
            try:
                hash(t)
            except TypeError:
                raise ParameterError(f"tokens must be hashable, got {t!r}") from None
        raise
    block = max(1, _STEP_BLOCK_BYTES // (9 * max(m, 1)))  # int64 step + bool flag
    row = np.zeros(m + 1, dtype=np.int64)
    diag = np.empty(m, dtype=np.int64)
    head, tail = row[:-1], row[1:]
    for lo in range(0, n, block):
        mismatch = np.not_equal(r_codes[lo : lo + block, None], h_codes)
        steps = np.multiply(mismatch, _SUB1)
        steps -= _DEL1 + _INS1
        for step in steps:
            np.add(head, step, out=diag)
            np.minimum(tail, diag, out=tail)
            np.minimum.accumulate(row, out=row)
    enc = int(row[-1]) + n * _DEL1 + m * _INS1
    cost = enc >> _SHIFT_COST
    subs = (enc >> _SHIFT_SUB) & (_FIELD_CAP - 1)
    ins = enc & (_FIELD_CAP - 1)
    return (subs, ins, cost - subs - ins)


@dataclass(frozen=True)
class SessionScore:
    errors: int
    ref_chars: int

    @property
    def rate(self) -> float:
        return self.errors / self.ref_chars


def _myers_rows(eqs, width: int, guards: int, starts: int):
    """Yield the ``(pv, mv)`` of each row of a unit-cost edit-distance DP.

    Myers' bit-vector step (J. ACM 1999) in Hyyrö's global-distance form
    (2001): the one DP step of ``_edit_costs`` and
    ``rover.align_into_wtn``. Row ``i`` holds the costs after ``i`` items
    of one sequence against every prefix of the other, which lies in the
    ``width`` low bits, one bit per item; ``eqs[i - 1]`` has a bit where
    item ``i`` matches. The costs are kept as vertical deltas: ``pv``
    (``mv``) has bit ``j`` where the cost rises (falls) by 1 from
    position ``j`` to ``j + 1``. Bits in ``guards`` hold no item and
    stay clear, so each stops the carry of ``(eq & pv) + pv``; several
    streams can thus lie end to end, each followed by a guard, with
    ``starts`` holding the first bit of each. Row 0, yielded first, has
    cost ``j`` at position ``j``; every row has cost ``i`` at position 0
    of each stream. The cost at position ``j`` of row ``i`` is
    ``i + popcount(pv & low) - popcount(mv & low)``, ``low`` being the
    bits of its stream below ``j``. A row is 17 big-int operations.
    """
    ones = (1 << (width + 1)) - 1  # one bit past the shifted top guard
    pv, mv = (ones >> 1) ^ guards, 0
    body = pv
    yield pv, mv
    for eq in eqs:
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | (ones ^ (xh | pv))) << 1 | starts
        mh = (pv & xh) << 1
        pv = (mh | ((xv | ph) ^ ones)) & body
        mv = ph & xv
        yield pv, mv


def _edit_costs(refs, hyps) -> np.ndarray:
    """Unit-cost edit distance of every (reference, hypothesis) pair.

    Returns an int64 array ``(len(refs), len(hyps))`` equal to
    ``sum(edit_distance(r, h))`` for each pair; tokens match when they
    would be the same dict key, as in ``edit_distance``.

    All hypotheses lie end to end in one Python int, one bit per token,
    each followed by a guard bit, and each reference stream is one
    ``_myers_rows`` pass over its tokens. ``peq`` maps each hypothesis
    token to the int with a bit at each of its positions: the match
    mask of a reference token. The cost of each pair is read from the
    last row: ``len(ref)`` plus the net vertical deltas of its
    hypothesis. Work is proportional to ``len(ref)`` times the total
    width ``sum(len(h) + 1)`` in 30-bit int digits; memory is one int
    of that width per distinct hypothesis token. There is no length
    cap, since no counts are packed.

    Raises
    ------
    ParameterError
        A token is unhashable.
    """
    index: dict = {}  # hypothesis token -> its code
    codes = []  # the code of each bit's token, -1 at the guards
    blocks = []
    starts = guards = width = 0
    try:
        for hyp in hyps:
            starts |= 1 << width
            codes += [index.setdefault(tok, len(index)) for tok in hyp]
            codes.append(-1)
            blocks.append(((1 << len(hyp)) - 1) << width)
            width += len(hyp)
            guards |= 1 << width
            width += 1
        codes = np.array(codes)
        peq = {
            tok: int.from_bytes(np.packbits(codes == k, bitorder="little").tobytes(), "little")
            for tok, k in index.items()
        }
        costs = np.zeros((len(refs), len(hyps)), dtype=np.int64)
        for i, ref in enumerate(refs):
            for pv, mv in _myers_rows(map(peq.get, ref, itertools.repeat(0)), width, guards, starts):
                pass  # only the last row is read
            costs[i] = [
                len(ref) + (pv & b).bit_count() - (mv & b).bit_count() for b in blocks
            ]
    except TypeError:
        for tok in itertools.chain(*hyps, *refs):
            try:
                hash(tok)
            except TypeError:
                raise ParameterError(f"tokens must be hashable, got {tok!r}") from None
        raise
    return costs


def cpcer(refs: TranscriptSet, hyps: TranscriptSet) -> tuple:
    """Concatenated minimum-permutation character error rate.

    The edit distances of a session's stream pairs, padded with empty
    streams to a square, come from one ``_edit_costs`` call: one
    bit-parallel pass per reference stream over all hypothesis streams,
    with work proportional to reference tokens x total hypothesis bits /
    word size and memory of one int of sum(len(hyp) + 1) bits per
    distinct hypothesis token. It packs no counts, so unlike
    ``edit_distance`` it has no 2^21-token cap.

    Returns
    -------
    (rate, breakdown, assignment)
        rate : pooled sum of assigned edit operations over the sum of
        reference characters across sessions.
        breakdown : dict session -> SessionScore.
        assignment : dict session -> tuple of (ref stream, hyp stream)
        pairs; a side padded with empty streams appears as None.

    Raises
    ------
    ParameterError
        A token is unhashable.
    UndefinedMetricError
        No session has reference characters.
    """
    from scipy.optimize import linear_sum_assignment  # scipy stays off the enhance import path

    sessions = sorted(set(refs.sessions()) | set(hyps.sessions()))
    total_err = 0
    total_ref = 0
    breakdown: dict = {}
    assignment: dict = {}
    for sess in sessions:
        ref_streams = refs.streams(sess)
        hyp_streams = hyps.streams(sess)
        ref_chars = sum(len(t) for t in ref_streams.values())
        if ref_chars == 0:
            log.warning("session %s has no reference characters; excluded", sess)
            continue
        rnames = sorted(ref_streams)
        hnames = sorted(hyp_streams)
        n = max(len(rnames), len(hnames))
        rtoks = [ref_streams[name] for name in rnames]
        htoks = [hyp_streams[name] for name in hnames]
        cost = _edit_costs(rtoks + [()] * (n - len(rtoks)), htoks + [()] * (n - len(htoks)))
        rows, cols = linear_sum_assignment(cost)
        err = int(cost[rows, cols].sum())
        assignment[sess] = tuple(
            (
                rnames[i] if i < len(rnames) else None,
                hnames[j] if j < len(hnames) else None,
            )
            for i, j in zip(rows, cols)
        )
        breakdown[sess] = SessionScore(errors=err, ref_chars=ref_chars)
        total_err += err
        total_ref += ref_chars
    if total_ref == 0:
        raise UndefinedMetricError("no reference characters in any session")
    return total_err / total_ref, breakdown, assignment


def _covered(rows, lo, hi, n_rows: int, n: int) -> np.ndarray:
    """Boolean ``(n_rows, n)`` grid with each interval's cells set in its row.

    ``rows``, ``lo`` and ``hi`` are integer arrays, one entry per
    interval: interval k marks cells ``[lo[k], hi[k])`` of row ``rows[k]``; one
    with ``lo[k] >= hi[k]`` marks none. Bounds must lie in ``[0, n]``.
    The rows are laid end to end, each ``n + 1`` long, as one difference
    array kept sparse: +1 at every start, -1 at every end, and the
    running sum over these boundaries in position order, repeated out to
    the cells between them, counts the intervals covering each cell.
    """
    keep = lo < hi
    width = n + 1
    offsets = rows[keep] * width
    pos = np.concatenate((offsets + lo[keep], offsets + hi[keep]))
    step = np.repeat(np.array([1, -1], dtype=np.int32), len(offsets))
    order = np.argsort(pos)
    covered = np.cumsum(step[order], dtype=np.int32) > 0
    runs = np.diff(pos[order], prepend=0, append=n_rows * width)
    return np.repeat(np.concatenate(([False], covered)), runs).reshape(n_rows, width)[:, :-1]


def _segment_frames(segments, n_frames: int) -> tuple:
    """Per-speaker boolean activity on the 10 ms grid, rows in sorted
    speaker order.

    Each segment covers frames ``[round(start_s / FRAME_S),
    round(end_s / FRAME_S))`` of its speaker's row (see ``_covered``),
    rounded half to even; ``n_frames`` must cover every end.
    """
    speakers = sorted({s.speaker for s in segments})
    row = {speaker: k for k, speaker in enumerate(speakers)}
    rows = np.array([row[s.speaker] for s in segments], dtype=np.intp)
    bounds = np.array([(s.start_s, s.end_s) for s in segments], dtype=np.float64)
    lo, hi = np.round(bounds.reshape(-1, 2) / FRAME_S).astype(np.intp).T
    return speakers, _covered(rows, lo, hi, len(speakers), n_frames)


def _outside_collars(segments, collar_s: float, n_frames: int) -> np.ndarray:
    """Frames farther than ``collar_s`` from every segment boundary.

    Each boundary excises frames ``[round((edge - collar_s) / FRAME_S),
    round((edge + collar_s) / FRAME_S))``, rounded half to even and
    clipped to ``[0, n_frames]``: the frames no collar covers in one row
    of ``_covered``.
    """
    edges = np.array([(s.start_s, s.end_s) for s in segments], dtype=np.float64).reshape(-1)
    lo = np.clip(np.round((edges - collar_s) / FRAME_S), 0, n_frames).astype(np.intp)
    hi = np.clip(np.round((edges + collar_s) / FRAME_S), 0, n_frames).astype(np.intp)
    return ~_covered(np.zeros(len(edges), dtype=np.intp), lo, hi, 1, n_frames)[0]


def der(
    ref: DiarizationSet,
    hyp: DiarizationSet,
    collar_s: float = 0.25,
    score_overlap: bool = True,
) -> tuple:
    """Diarization error rate with optimal speaker mapping.

    Each session is scored on the 10 ms grid. Frames within ``collar_s``
    of a reference boundary are excised: every boundary's collar is
    rounded half to even and clipped at 0 and at the horizon. Segments
    and collars are both marked on the grid by one interval-coverage
    rule, a sparse difference array (see ``_covered``).
    Speakers are mapped by the Hungarian algorithm on the scored frames
    each (reference, hypothesis) pair shares, counted pair by pair with
    ``np.count_nonzero``. With ``nr`` and ``nh`` the reference and
    hypothesis speakers active in a frame, a scored frame charges
    ``nr - min(nr, nh)`` miss, ``nh - min(nr, nh)`` false alarm, and
    ``min(nr, nh)`` confusion less the mapped pairs active in it. All
    counts are integers, pooled over sessions before dividing.

    Returns
    -------
    (rate, miss, false_alarm, confusion)
        All four as fractions of total scored reference speech time, so
        rate = miss + false_alarm + confusion.

    Raises
    ------
    ParameterError
        ``collar_s`` is negative or not finite.
    UndefinedMetricError
        No scored reference speech at all.

    Examples
    --------
    The hypothesis splits one 8 s reference turn between two speakers;
    the 2 s mapped to the wrong one are confusion.

    >>> ref = DiarizationSet.from_rows([("m", "A", 0.0, 8.0)])
    >>> hyp = DiarizationSet.from_rows([("m", "X", 0.0, 6.0), ("m", "Y", 6.0, 8.0)])
    >>> rate, miss, false_alarm, confusion = der(ref, hyp, collar_s=0.0)
    >>> f"{rate:.2%} = {miss:.2%} + {false_alarm:.2%} + {confusion:.2%}"
    '25.00% = 0.00% + 0.00% + 25.00%'
    """
    from scipy.optimize import linear_sum_assignment

    check_finite("collar_s", collar_s)
    if collar_s < 0:
        raise ParameterError(f"collar must be >= 0, got {collar_s}")
    sessions = sorted(set(ref.sessions()) | set(hyp.sessions()))
    miss = fa = conf = denom = 0
    for sess in sessions:
        rsegs = ref.for_session(sess).segments
        hsegs = hyp.for_session(sess).segments
        horizon = max(
            [s.end_s for s in rsegs] + [s.end_s for s in hsegs] + [0.0]
        )
        n = int(round(horizon / FRAME_S)) + 1
        _, ract = _segment_frames(rsegs, n)
        _, hact = _segment_frames(hsegs, n)

        scored = _outside_collars(rsegs, collar_s, n)
        nr = ract.sum(axis=0, dtype=np.int32)
        if not score_overlap:
            scored &= nr <= 1
        nh = hact.sum(axis=0, dtype=np.int32)

        overlap = np.array(
            [[np.count_nonzero(r & h) for h in hact] for r in ract & scored], dtype=np.int64
        ).reshape(len(ract), len(hact))
        rows, cols = linear_sum_assignment(-overlap)

        nr_s = int(nr[scored].sum())
        nh_s = int(nh[scored].sum())
        both_s = int(np.minimum(nr, nh)[scored].sum())
        miss += nr_s - both_s
        fa += nh_s - both_s
        conf += both_s - int(overlap[rows, cols].sum())
        denom += nr_s
    if denom == 0:
        raise UndefinedMetricError("no scored reference speech")
    return (miss + fa + conf) / denom, miss / denom, fa / denom, conf / denom


def si_sdr(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Scale-invariant signal-to-distortion ratio in dB.

    Both signals are mean-removed; the reference is scaled to the least
    squares projection of the estimate before the energy ratio.
    """
    e = np.asarray(estimate, dtype=np.float64).reshape(-1)
    r = np.asarray(reference, dtype=np.float64).reshape(-1)
    if e.shape != r.shape:
        raise ParameterError(f"length mismatch: {e.shape} vs {r.shape}")
    e = e - e.mean()
    r = r - r.mean()
    denom_r = float(r @ r)
    if denom_r == 0.0:
        raise ParameterError("reference signal has zero power")
    alpha = float(e @ r) / denom_r
    target = alpha * r
    noise = e - target
    p_noise = float(noise @ noise)
    if p_noise == 0.0:
        return np.inf
    return 10.0 * np.log10(float(target @ target) / p_noise)
