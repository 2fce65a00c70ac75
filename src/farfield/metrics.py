"""Scoring: character edit distance, concatenated minimum-permutation
character error rate (cpCER), diarization error rate (DER), and the
scale-invariant SDR used to judge separation quality.

cpCER concatenates each stream's characters in time order per session,
finds the reference-speaker to hypothesis-stream assignment with the
minimum total edit distance (exact, via the Hungarian algorithm), and
pools error counts over sessions. DER discretizes time at 10 ms, excises
a collar around reference boundaries, maps speakers by maximum overlap,
and charges miss, false alarm and confusion time against total reference
speech time.
"""

from __future__ import annotations

import logging
import unicodedata
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ParameterError, UndefinedMetricError, check_finite

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
        by_stream: dict = {}
        for e in entries:
            by_stream.setdefault((e.session, e.stream), []).append(e)
        for (session, stream), group in by_stream.items():
            group.sort(key=lambda e: (e.start_s, e.end_s))
            for a, b in zip(group, group[1:]):
                if a.end_s > b.start_s + 1e-9:
                    raise ParameterError(
                        f"overlapping entries in ({session}, {stream}) at "
                        f"[{a.start_s}, {a.end_s}] and [{b.start_s}, {b.end_s}]"
                    )
        object.__setattr__(self, "entries", entries)

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
        return sorted({e.session for e in self.entries})

    def streams(self, session: str) -> dict:
        """Stream name -> concatenated tokens, segments in time order."""
        out: dict = {}
        chosen = [e for e in self.entries if e.session == session]
        chosen.sort(key=lambda e: (e.start_s, e.end_s, "".join(e.tokens)))
        for e in chosen:
            out.setdefault(e.stream, [])
            out[e.stream].extend(e.tokens)
        return {name: tuple(toks) for name, toks in sorted(out.items())}


@dataclass(frozen=True)
class DiarSegment:
    session: str
    speaker: str
    start_s: float
    end_s: float

    def __post_init__(self):
        if not self.start_s < self.end_s:
            raise ParameterError(
                f"segment [{self.start_s}, {self.end_s}] must have start < end"
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
    that lexicographic minimization is a single integer min. A row
    stores its value minus ``j`` insertions at column ``j``, so a
    running minimum (``np.minimum.accumulate``) closes the chains of
    insertions. Memory is O(len(hyp)): the row and three buffers of
    the same length, updated in place.

    Raises
    ------
    ParameterError
        A token is unhashable, or a sequence has 2^21 tokens or more.

    Examples
    --------
    >>> edit_distance("abc", "abc")
    (0, 0, 0)
    >>> edit_distance("abc", "")
    (0, 0, 3)
    """
    r = list(ref)
    h = list(hyp)
    if len(r) >= _FIELD_CAP or len(h) >= _FIELD_CAP:
        raise ParameterError("sequences longer than 2^21 tokens are not supported")
    codes: dict = {}
    try:
        h_codes = np.array([codes.setdefault(t, len(codes)) for t in h], dtype=np.int64)
        r_codes = [codes.get(t, -1) for t in r]
    except TypeError:
        for t in (*h, *r):
            try:
                hash(t)
            except TypeError:
                raise ParameterError(f"tokens must be hashable, got {t!r}") from None
        raise
    m = len(h)
    row = np.zeros(m + 1, dtype=np.int64)  # packed cost at j, minus j * _INS1
    base = np.empty(m + 1, dtype=np.int64)
    mismatch = np.empty(m, dtype=bool)
    diag = np.empty(m, dtype=np.int64)
    row_head, row_tail, base_tail = row[:-1], row[1:], base[1:]
    for code in r_codes:
        np.not_equal(h_codes, code, out=mismatch)
        np.multiply(mismatch, _SUB1, out=diag)
        diag += row_head
        diag -= _INS1  # one column further right
        np.add(row_tail, _DEL1, out=base_tail)
        np.minimum(base_tail, diag, out=base_tail)
        base[0] = row[0] + _DEL1
        np.minimum.accumulate(base, out=row)
    enc = int(row[-1]) + m * _INS1
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


def cpcer(refs: TranscriptSet, hyps: TranscriptSet) -> tuple:
    """Concatenated minimum-permutation character error rate.

    Returns
    -------
    (rate, breakdown, assignment)
        rate : pooled sum of assigned edit operations over the sum of
        reference characters across sessions.
        breakdown : dict session -> SessionScore.
        assignment : dict session -> tuple of (ref stream, hyp stream)
        pairs; a side padded with empty streams appears as None.
    """
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
        cost = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            rtok = ref_streams[rnames[i]] if i < len(rnames) else ()
            for j in range(n):
                htok = hyp_streams[hnames[j]] if j < len(hnames) else ()
                cost[i, j] = sum(edit_distance(rtok, htok))
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


def _segment_frames(segments, n_frames: int) -> tuple:
    """Per-speaker boolean activity on the 10 ms grid."""
    speakers = sorted({s.speaker for s in segments})
    act = np.zeros((len(speakers), n_frames), dtype=bool)
    for s in segments:
        a = int(round(s.start_s / FRAME_S))
        b = int(round(s.end_s / FRAME_S))
        act[speakers.index(s.speaker), a:b] = True
    return speakers, act


def der(
    ref: DiarizationSet,
    hyp: DiarizationSet,
    collar_s: float = 0.25,
    score_overlap: bool = True,
) -> tuple:
    """Diarization error rate with optimal speaker mapping.

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
    """
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

        scored = np.ones(n, dtype=bool)
        for s in rsegs:
            for edge in (s.start_s, s.end_s):
                a = max(0, int(round((edge - collar_s) / FRAME_S)))
                b = int(round((edge + collar_s) / FRAME_S))
                scored[a:b] = False
        nr = ract.sum(axis=0)
        if not score_overlap:
            scored &= nr <= 1
        nh = hact.sum(axis=0)

        overlap = np.einsum(
            "rn,hn->rh", (ract & scored).astype(np.int64), hact.astype(np.int64)
        )
        matched = np.zeros(n, dtype=np.int64)
        if overlap.size:
            rows, cols = linear_sum_assignment(-overlap)
            for i, j in zip(rows, cols):
                matched += ract[i] & hact[j]

        nr_s = nr[scored]
        nh_s = nh[scored]
        miss += int(np.maximum(nr_s - nh_s, 0).sum())
        fa += int(np.maximum(nh_s - nr_s, 0).sum())
        conf += int((np.minimum(nr_s, nh_s) - matched[scored]).sum())
        denom += int(nr_s.sum())
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
