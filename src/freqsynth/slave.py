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

from .boolfn import BoolFn, formula_to_boolfn, proves, rank, step
from .formula import Formula, FormulaError
from .lts import Lts, build_lts

DEFAULT_STATE_CAP = 100_000

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

    def accepting_sinks(self, assumptions: Iterable[Formula]) -> frozenset[int]:
        """Sinks provable from the assumption set."""
        bfs = [formula_to_boolfn(a) for a in assumptions]
        return frozenset(q for q in self.sinks if proves(bfs, self.state(q)))


def build_slave_lts(
    xi: Formula, ap: Optional[Iterable[str]] = None, cap: int = DEFAULT_STATE_CAP
) -> SlaveLts:
    """Reachable slave LTS for the operand of a G/F/frequency subformula."""
    from .formula import atoms_of

    atoms = set(atoms_of(xi))
    if ap is not None:
        atoms |= set(ap)
    init = formula_to_boolfn(xi)
    lts = build_lts(
        init,
        step,
        atoms,
        cap,
        is_terminal=lambda f: rank(f) == 0,
        what="slave LTS",
    )
    sinks = frozenset(q for q, f in enumerate(lts.states) if rank(f) == 0)
    # Acyclicity: the letter-sensitivity rank strictly drops along every edge.
    for q, row in enumerate(lts.delta):
        if row is None:
            continue
        r = rank(lts.states[q])
        if any(rank(lts.states[target]) >= r for target in row):
            raise FormulaError(f"slave LTS of {xi} is not acyclic")
    return SlaveLts(lts, sinks)


def build_token_lts(slave: SlaveLts, cap: int = DEFAULT_STATE_CAP) -> Lts:
    """Subset construction: spawn a token at the initial state every step,
    advance the survivors, drop the ones already resting in a sink."""
    inner = slave.lts

    def successor(tokens: TokenSet, letter) -> TokenSet:
        li = inner.letter_index[letter]
        moved = {inner.delta[q][li] for q in tokens if q not in slave.sinks}
        moved.add(inner.init)
        return frozenset(moved)

    return build_lts(
        frozenset([inner.init]),
        successor,
        inner.atoms,
        cap,
        what="token LTS",
    )


def buchi_accepting_sets(
    slave: SlaveLts, token_lts: Lts, assumptions: Iterable[Formula]
) -> frozenset[int]:
    """Token-LTS states containing a sink provable from the assumptions."""
    good = slave.accepting_sinks(assumptions)
    return frozenset(
        i for i, tokens in enumerate(token_lts.states) if tokens & good
    )


def cobuchi_rejecting_sets(
    slave: SlaveLts, token_lts: Lts, assumptions: Iterable[Formula]
) -> frozenset[int]:
    """Token-LTS states containing a sink NOT provable from the assumptions."""
    good = slave.accepting_sinks(assumptions)
    bad = slave.sinks - good
    return frozenset(i for i, tokens in enumerate(token_lts.states) if tokens & bad)


def build_count_lts(slave: SlaveLts, cap: int = DEFAULT_STATE_CAP) -> Lts:
    """Counting construction: multiset of tokens per slave state."""
    inner = slave.lts
    size = len(inner)
    bound = size  # acyclicity keeps at most one token per rank level alive

    def successor(counts: TokenCounts, letter) -> TokenCounts:
        li = inner.letter_index[letter]
        nxt = [0] * size
        for q, c in enumerate(counts):
            if c and q not in slave.sinks:
                nxt[inner.delta[q][li]] += c
        nxt[inner.init] += 1
        if max(nxt) > bound:
            raise FormulaError("token count exceeded the slave size bound")
        return tuple(nxt)

    init = tuple(1 if q == inner.init else 0 for q in range(size))
    return build_lts(init, successor, inner.atoms, cap, what="counting LTS")


def mp_reward(
    slave: SlaveLts, count_lts: Lts, assumptions: Iterable[Formula]
) -> tuple[Fraction, ...]:
    """Per counting-state reward: tokens currently resting in accepting sinks."""
    good = slave.accepting_sinks(assumptions)
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
