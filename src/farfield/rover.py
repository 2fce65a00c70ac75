"""Recognizer output voting: fuse several hypothesis token sequences.

Hypotheses are folded one at a time into a word transition network via
dynamic-programming alignment (match preferred over substitution over
deletion over insertion), with the null token ``@`` standing for "this
system had nothing here". Each slot then votes: the score of a token is
alpha * count / n_systems + (1 - alpha) * average confidence, ties going
to the token contributed earliest. The ``@`` token's confidence is the
constant ``NULL_CONF`` (0.5). Winning ``@`` arcs vanish from the fused
output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

NULL_TOKEN = "@"
NULL_CONF = 0.5


@dataclass(frozen=True)
class ArcTally:
    """One token's standing within a slot."""

    count: int
    conf_sum: float
    first_system: int

    def add(self, conf: float, system: int) -> "ArcTally":
        return ArcTally(
            count=self.count + 1,
            conf_sum=self.conf_sum + conf,
            first_system=min(self.first_system, system),
        )


@dataclass(frozen=True)
class WordTransitionNetwork:
    """Aligned voting slots; each maps token -> ArcTally.

    Every slot's counts sum to ``n_systems``: each absorbed hypothesis
    contributes exactly one arc (possibly ``@``) per slot.
    """

    slots: tuple
    n_systems: int

    def __post_init__(self):
        for i, slot in enumerate(self.slots):
            total = sum(t.count for t in slot.values())
            if total != self.n_systems:
                raise ParameterError(
                    f"slot {i} counts sum to {total}, expected {self.n_systems}"
                )
        object.__setattr__(self, "slots", tuple(dict(s) for s in self.slots))

    @classmethod
    def from_hypothesis(cls, hyp) -> "WordTransitionNetwork":
        tokens, confs = _coerce_hypothesis(hyp)
        slots = tuple(
            {tok: ArcTally(1, conf, 0)} for tok, conf in zip(tokens, confs)
        )
        return cls(slots=slots, n_systems=1)


def _coerce_hypothesis(hyp) -> tuple:
    """Split a hypothesis into token and confidence lists.

    Elements are bare tokens (confidence defaults to 1.0) or
    (token, confidence) pairs. The null token is reserved.
    """
    tokens, confs = [], []
    for item in hyp:
        if isinstance(item, str):
            tok, conf = item, 1.0
        else:
            tok, conf = item
            conf = float(conf)
        if tok == NULL_TOKEN:
            raise ParameterError(f"hypothesis token {NULL_TOKEN!r} is reserved")
        tokens.append(tok)
        confs.append(conf)
    return tokens, confs


def align_into_wtn(wtn: WordTransitionNetwork, hyp) -> WordTransitionNetwork:
    """Fold one more hypothesis into the network.

    Alignment costs: 0 for a token already present in a slot, 1 for a
    substitution, 1 for skipping a slot (the slot gains ``@``), 1 for a
    token without a slot (a new slot opens, crediting ``@`` to all prior
    systems). The backtrace prefers match, then substitution, then
    deletion, then insertion, making the result deterministic.

    The cost table is one integer array of (slots + 1) x (tokens + 1),
    so memory is O(slots x tokens). It stores cost - i - j at slot row
    i and token column j, so its first row and column are 0, skipping
    a slot keeps the stored value and opening a slot is a running
    minimum along the row. The diagonal step is -2 for a token present
    in the slot and -1 otherwise; the step table comes from a token ->
    positions dict in O(total slot size) Python work, and each slot
    row is then three array calls: add, minimum and
    ``np.minimum.accumulate``.
    """
    tokens, confs = _coerce_hypothesis(hyp)
    slots = wtn.slots
    ns, nh = len(slots), len(tokens)
    system = wtn.n_systems

    positions: dict = {}
    for j, tok in enumerate(tokens):
        positions.setdefault(tok, []).append(j)
    step = np.full((ns, nh), -1, dtype=np.int8)  # -2 where token j is in slot i
    for i, slot in enumerate(slots):
        for tok in slot:
            step[i, positions.get(tok, [])] = -2

    cost = np.zeros((ns + 1, nh + 1), dtype=np.int64)  # cost - i - j
    for i in range(1, ns + 1):
        prev, row = cost[i - 1], cost[i]
        np.add(prev[:-1], step[i - 1], out=row[1:])
        np.minimum(row[1:], prev[1:], out=row[1:])
        np.minimum.accumulate(row, out=row)

    ops = []  # ("use", slot_index, token_index) / ("skip", i) / ("new", j)
    i, j = ns, nh
    while i > 0 or j > 0:
        # a match (step -2) or a substitution (step -1) along the diagonal
        if i > 0 and j > 0 and cost[i, j] == cost[i - 1, j - 1] + step[i - 1, j - 1]:
            ops.append(("use", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and cost[i, j] == cost[i - 1, j]:
            ops.append(("skip", i - 1))
            i -= 1
        else:
            ops.append(("new", j - 1))
            j -= 1
    ops.reverse()

    def updated(slot: dict, tok: str, conf: float) -> dict:
        new = dict(slot)
        new[tok] = new.get(tok, ArcTally(0, 0.0, system)).add(conf, system)
        return new

    new_slots = []
    for op in ops:
        if op[0] == "use":
            _, si, tj = op
            new_slots.append(updated(slots[si], tokens[tj], confs[tj]))
        elif op[0] == "skip":
            new_slots.append(updated(slots[op[1]], NULL_TOKEN, 0.0))
        else:
            tj = op[1]
            new_slots.append(
                {
                    tokens[tj]: ArcTally(1, confs[tj], system),
                    NULL_TOKEN: ArcTally(system, 0.0, 0),
                }
            )
    return WordTransitionNetwork(slots=tuple(new_slots), n_systems=system + 1)


def _vote(wtn: WordTransitionNetwork, alpha: float) -> tuple:
    out = []
    n = wtn.n_systems
    for slot in wtn.slots:
        best_tok = None
        best_key = None
        for tok, tally in slot.items():
            conf = NULL_CONF if tok == NULL_TOKEN else tally.conf_sum / tally.count
            score = alpha * tally.count / n + (1.0 - alpha) * conf
            key = (score, -tally.first_system)
            if best_key is None or key > best_key:
                best_tok, best_key = tok, key
        if best_tok != NULL_TOKEN:
            out.append(best_tok)
    return tuple(out)


def rover(hyps, alpha: float = 1.0) -> tuple:
    """Fuse hypotheses by progressive alignment and per-slot voting.

    Parameters
    ----------
    hyps : list of token sequences
        Folded in the given order; elements may carry confidences as
        (token, confidence) pairs, otherwise 1.0 is assumed.
    alpha : float in [0, 1]
        Weight of occupancy counts versus confidences; 1.0 votes by
        frequency alone. The null token's confidence is ``NULL_CONF``.

    Returns
    -------
    tuple of str

    Examples
    --------
    >>> rover([["a", "b"], ["a", "c"], ["a", "c"]])
    ('a', 'c')
    >>> rover([["a", "b"], ["a"], ["a"]])
    ('a',)
    """
    if not hyps:
        raise ParameterError("need at least one hypothesis")
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
    wtn = WordTransitionNetwork.from_hypothesis(hyps[0])
    for hyp in hyps[1:]:
        wtn = align_into_wtn(wtn, hyp)
    return _vote(wtn, alpha)
