"""Slave transition systems and their token-tracking automata.

A slave monitors from every position whether its formula holds there.  The
underlying LTS applies only the next-step operator (no unfolding), so inner
F/G/frequency subformulas freeze into sinks and the non-sink part is acyclic.
The subset construction tracks one token per start position; the counting
construction additionally keeps multiplicities for frequency bookkeeping.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .boolfn import BoolFn, bf_and_many, formula_to_boolfn, rank, step_row
from .formula import Formula, FormulaError, atoms_of
from .lts import DEFAULT_STATE_CAP, Lts, build_lts

TokenSet = frozenset  # of slave state indices
TokenCounts = tuple  # count per slave state index


class SlaveLts:
    """Slave LTS plus its sink set; transitions leave sinks undefined."""

    def __init__(self, lts: Lts, sinks: frozenset[int]):
        self.lts = lts
        self.sinks = sinks

    def __len__(self):
        return len(self.lts)

    def state(self, q: int) -> BoolFn:
        return self.lts.states[q]

    def accepting_sinks(self, conj: BoolFn) -> frozenset[int]:
        """Sinks provable from ``conj``, the conjunction of an assumption set
        (``assumption_conj``)."""
        return frozenset(
            q
            for q in self.sinks
            if all(self.state(q).holds_under(m) for m in conj.models)
        )


def assumption_conj(assumptions: Iterable[Formula]) -> BoolFn:
    """Conjunction of an assumption set: the premise of every sink proof."""
    return bf_and_many(formula_to_boolfn(a) for a in assumptions)


def build_slave_lts(
    xi: Formula, ap: Optional[Iterable[str]] = None, cap: int = DEFAULT_STATE_CAP
) -> SlaveLts:
    """Reachable slave LTS for the operand of a G/F/frequency subformula."""
    atoms = set(atoms_of(xi))
    if ap is not None:
        atoms |= set(ap)
    init = formula_to_boolfn(xi)
    lts = build_lts(
        init,
        step_row,
        atoms,
        cap,
        is_terminal=lambda f: rank(f) == 0,
        what="slave LTS",
    )
    ranks = [rank(f) for f in lts.states]
    sinks = frozenset(q for q, r in enumerate(ranks) if r == 0)
    # Acyclicity: the letter-sensitivity rank strictly drops along every edge.
    for r, row in zip(ranks, lts.delta):
        if row is not None and any(ranks[target] >= r for target in row):
            raise FormulaError(f"slave LTS of {xi} is not acyclic")
    return SlaveLts(lts, sinks)


def _live_columns(slave: SlaveLts, tokens) -> list:
    """Transition rows of the token positions outside the sinks, plus one
    constant column that spawns the fresh token at the initial state."""
    inner = slave.lts
    cols = [inner.delta[q] for q in tokens if q not in slave.sinks]
    cols.append([inner.init] * len(inner.alphabet))
    return cols


def build_token_lts(slave: SlaveLts, cap: int = DEFAULT_STATE_CAP) -> Lts:
    """Subset construction: spawn a token at the initial state every step,
    advance the survivors, drop the ones already resting in a sink."""
    inner = slave.lts

    def successors(tokens: TokenSet, alphabet) -> list[TokenSet]:
        by_targets: dict = {}
        row = []
        for targets in zip(*_live_columns(slave, tokens)):
            nxt = by_targets.get(targets)
            if nxt is None:
                nxt = by_targets[targets] = frozenset(targets)
            row.append(nxt)
        return row

    return build_lts(
        frozenset([inner.init]),
        successors,
        inner.atoms,
        cap,
        what="token LTS",
    )


def buchi_accepting_sets(
    slave: SlaveLts, token_lts: Lts, conj: BoolFn
) -> frozenset[int]:
    """Token-LTS states containing a sink provable from ``conj``."""
    good = slave.accepting_sinks(conj)
    return frozenset(
        i for i, tokens in enumerate(token_lts.states) if tokens & good
    )


def cobuchi_rejecting_sets(
    slave: SlaveLts, token_lts: Lts, conj: BoolFn
) -> frozenset[int]:
    """Token-LTS states containing a sink NOT provable from ``conj``."""
    good = slave.accepting_sinks(conj)
    bad = slave.sinks - good
    return frozenset(i for i, tokens in enumerate(token_lts.states) if tokens & bad)


def build_count_lts(slave: SlaveLts, cap: int = DEFAULT_STATE_CAP) -> Lts:
    """Counting construction: multiset of tokens per slave state."""
    inner = slave.lts
    size = len(inner)
    bound = size  # acyclicity keeps at most one token per rank level alive

    def successors(counts: TokenCounts, alphabet) -> list[TokenCounts]:
        live = [q for q, c in enumerate(counts) if c and q not in slave.sinks]
        weights = [counts[q] for q in live] + [1]
        by_targets: dict = {}
        row = []
        for targets in zip(*_live_columns(slave, live)):
            nxt = by_targets.get(targets)
            if nxt is None:
                acc = [0] * size
                for t, c in zip(targets, weights):
                    acc[t] += c
                if max(acc) > bound:
                    raise FormulaError("token count exceeded the slave size bound")
                nxt = by_targets[targets] = tuple(acc)
            row.append(nxt)
        return row

    init = tuple(1 if q == inner.init else 0 for q in range(size))
    return build_lts(init, successors, inner.atoms, cap, what="counting LTS")


def mp_reward(
    slave: SlaveLts, count_lts: Lts, conj: BoolFn
) -> tuple[Fraction, ...]:
    """Per counting-state reward: tokens currently resting in sinks provable
    from ``conj``."""
    good = slave.accepting_sinks(conj)
    return tuple(
        Fraction(sum(counts[q] for q in good)) for counts in count_lts.states
    )


def token_set_str(slave: SlaveLts, tokens: TokenSet) -> str:
    parts = [str(slave.state(q)) for q in sorted(tokens)]
    return "{" + "; ".join(parts) + "}"


def token_counts_str(slave: SlaveLts, counts: TokenCounts) -> str:
    parts = [
        f"{slave.state(q)}:{c}" for q, c in enumerate(counts) if c
    ]
    return "{" + "; ".join(parts) + "}"
