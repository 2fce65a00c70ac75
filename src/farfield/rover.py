"""Recognizer output voting: fuse several hypothesis token sequences.

Hypotheses are folded one at a time into a word transition network via
dynamic-programming alignment (match preferred over substitution over
deletion over insertion), with the null token ``@`` standing for "this
system had nothing here". The DP is the bit-parallel edit-distance step
that cpCER uses (``metrics._myers_rows``), one slot per step over one
int of hypothesis bits. Each slot then votes: the score of a token is
alpha * count / n_systems + (1 - alpha) * average confidence, ties going
to the token contributed earliest. The ``@`` token's confidence is the
constant ``NULL_CONF`` (0.5). Winning ``@`` arcs vanish from the fused
output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ParameterError, check_finite
from .metrics import _myers_rows

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
    contributes exactly one arc (possibly ``@``) per slot. The
    constructor checks that and copies each slot dict; the networks
    ``from_hypothesis`` and ``align_into_wtn`` return hold new dicts
    that keep it by construction, and skip that pass.
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
    def _built(cls, slots: tuple, n_systems: int) -> "WordTransitionNetwork":
        """A network of slot dicts made by this module for it alone, whose
        counts already sum to ``n_systems``: it skips the constructor's
        check and copies."""
        wtn = object.__new__(cls)
        object.__setattr__(wtn, "slots", slots)
        object.__setattr__(wtn, "n_systems", n_systems)
        return wtn

    @classmethod
    def from_hypothesis(cls, hyp) -> "WordTransitionNetwork":
        tokens, confs = _coerce_hypothesis(hyp)
        slots = tuple(
            {tok: ArcTally(1, conf, 0)} for tok, conf in zip(tokens, confs)
        )
        return cls._built(slots, 1)


def _coerce_hypothesis(hyp) -> tuple:
    """Split a hypothesis into token and confidence lists.

    Elements are bare ``str`` tokens (confidence defaults to 1.0) or
    (token, confidence) pairs, as a tuple or a list, with a hashable
    token and a finite real confidence. The null token is reserved.

    Raises
    ------
    ParameterError
        An element is neither, or holds the null token.
    """
    tokens, confs = [], []
    for item in hyp:
        if isinstance(item, str):
            tok, conf = item, 1.0
        elif isinstance(item, (tuple, list)) and len(item) == 2:
            tok, conf = item
            try:
                hash(tok)
            except TypeError:
                raise ParameterError(f"hypothesis tokens must be hashable, got {tok!r}") from None
            check_finite(f"the confidence of token {tok!r}", conf)
            conf = float(conf)
        else:
            raise ParameterError(
                f"hypothesis elements must be str tokens or (token, confidence) pairs, got {item!r}"
            )
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

    The DP runs one slot at a time with the bit-parallel step of cpCER,
    ``metrics._myers_rows``, over one int of ``len(hyp) + 1`` bits. A
    slot's match mask is the OR of the hypothesis positions of its
    tokens. Every row's ``(pv, mv)`` is kept, two ints of
    ``len(hyp) + 1`` bits per slot, and the backtrace reads each cost it
    compares from them with two popcounts. Python work is O(total slot
    size + tokens) for the masks and O(slots + tokens) for the
    backtrace; the DP is 17 big-int operations per slot.
    """
    tokens, confs = _coerce_hypothesis(hyp)
    slots = wtn.slots
    ns, nh = len(slots), len(tokens)
    system = wtn.n_systems

    peq: dict = {}  # token -> an int with bit j set where tokens[j] is it
    for j, tok in enumerate(tokens):
        peq[tok] = peq.get(tok, 0) | 1 << j
    # distinct tokens have disjoint masks, so their sum is their OR
    eqs = [sum(map(peq.get, slot, itertools.repeat(0))) for slot in slots]
    rows = list(_myers_rows(eqs, nh + 1, 1 << nh, 1))

    def updated(slot: dict, tok, conf: float) -> dict:
        new = dict(slot)
        new[tok] = new.get(tok, ArcTally(0, 0.0, system)).add(conf, system)
        return new

    def cost_at(i: int, j: int) -> int:
        pv, mv = rows[i]
        low = (1 << j) - 1
        return i + (pv & low).bit_count() - (mv & low).bit_count()

    new_slots = []  # built back to front
    i, j = ns, nh
    cost = cost_at(i, j)
    while i > 0 or j > 0:
        diag = cost_at(i - 1, j - 1) if i > 0 and j > 0 else None
        # along the diagonal a match costs 0 and a substitution 1
        if diag is not None and cost == diag + 1 - (eqs[i - 1] >> (j - 1) & 1):
            new_slots.append(updated(slots[i - 1], tokens[j - 1], confs[j - 1]))
            i, j, cost = i - 1, j - 1, diag
        elif i > 0 and cost == cost_at(i - 1, j) + 1:
            new_slots.append(updated(slots[i - 1], NULL_TOKEN, 0.0))
            i, cost = i - 1, cost - 1
        else:
            new_slots.append(
                {
                    tokens[j - 1]: ArcTally(1, confs[j - 1], system),
                    NULL_TOKEN: ArcTally(system, 0.0, 0),
                }
            )
            j, cost = j - 1, cost - 1
    new_slots.reverse()
    # every slot took one arc of the new system and is a new dict
    return WordTransitionNetwork._built(tuple(new_slots), system + 1)


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
