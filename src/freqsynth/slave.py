"""The monitors that the automaton is a product of: the master, the slaves
and their token-tracking automata, each a plain LTS built by ``build_lts``.

The master tracks the property still required to hold: it unfolds every
obligation once per state, then steps the expansion under each letter.  A
slave monitors from every position whether its formula holds there.  It
applies only the next-step operator (no unfolding), so inner F/G/frequency
subformulas freeze into sinks, the states without a row, and the rest is
acyclic.  The subset construction tracks one token per start position; the
counting construction additionally keeps multiplicities for frequency
bookkeeping.  Both build their rows with one token-row builder.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .boolfn import BoolFn, bf_and_many, formula_to_boolfn, rank, step_row, unfold
from .formula import Formula, FormulaError, atoms_of
from .lts import DEFAULT_STATE_CAP, Lts, build_lts

TokenSet = frozenset  # of slave state indices
TokenCounts = tuple  # count per slave state index


def build_master(phi: Formula, cap: int = DEFAULT_STATE_CAP) -> Lts:
    """Reachable master LTS over the powerset of the formula's atoms.

    States are canonical Boolean functions; tt and ff are absorbing.
    """
    return build_lts(
        formula_to_boolfn(phi),
        lambda state, alphabet: step_row(unfold(state), alphabet),
        atoms_of(phi),
        cap,
        what="master LTS",
    )


def sinks(slave: Lts) -> frozenset[int]:
    """The slave's sinks: its states without transitions (rank 0)."""
    return frozenset(q for q, row in enumerate(slave.delta) if row is None)


def accepting_sinks(slave: Lts, conj: BoolFn) -> frozenset[int]:
    """Sinks provable from ``conj``, the conjunction of an assumption set
    (``assumption_conj``)."""
    return frozenset(q for q in sinks(slave) if conj.implies(slave.states[q]))


def assumption_conj(assumptions: Iterable[Formula]) -> BoolFn:
    """Conjunction of an assumption set: the premise of every sink proof."""
    return bf_and_many(formula_to_boolfn(a) for a in assumptions)


def _slave_row(f: BoolFn, alphabet) -> Optional[list[BoolFn]]:
    """A slave state's row; a rank-0 state is a sink and has none."""
    return None if rank(f) == 0 else step_row(f, alphabet)


def build_slave_lts(
    xi: Formula, ap: Optional[Iterable[str]] = None, cap: int = DEFAULT_STATE_CAP
) -> Lts:
    """Reachable slave LTS for the operand of a G/F/frequency subformula."""
    atoms = set(atoms_of(xi))
    if ap is not None:
        atoms |= set(ap)
    slave = build_lts(formula_to_boolfn(xi), _slave_row, atoms, cap, what="slave LTS")
    ranks = [rank(f) for f in slave.states]
    # Acyclicity: the letter-sensitivity rank strictly drops along every edge.
    for r, row in zip(ranks, slave.delta):
        if row is not None and any(ranks[target] >= r for target in row):
            raise FormulaError(f"slave LTS of {xi} is not acyclic")
    return slave


def _token_row(slave: Lts, live, make) -> list:
    """A token automaton's row: the slave rows of the ``live`` token
    positions plus one constant column that spawns the fresh token at the
    initial state, read as one target tuple per letter; ``make(targets)``
    builds the successor once per distinct tuple."""
    cols = [slave.delta[q] for q in live]
    cols.append([slave.init] * len(slave.alphabet))
    by_targets: dict = {}
    row = []
    for targets in zip(*cols):
        nxt = by_targets.get(targets)
        if nxt is None:
            nxt = by_targets[targets] = make(targets)
        row.append(nxt)
    return row


def build_token_lts(slave: Lts, cap: int = DEFAULT_STATE_CAP) -> Lts:
    """Subset construction: spawn a token at the initial state every step,
    advance the survivors, drop the ones already resting in a sink."""
    delta = slave.delta

    def successors(tokens: TokenSet, alphabet) -> list[TokenSet]:
        live = [q for q in tokens if delta[q] is not None]
        return _token_row(slave, live, frozenset)

    return build_lts(
        frozenset([slave.init]), successors, slave.atoms, cap, what="token LTS"
    )


def buchi_accepting_sets(slave: Lts, token_lts: Lts, conj: BoolFn) -> frozenset[int]:
    """Token-LTS states containing a sink provable from ``conj``."""
    good = accepting_sinks(slave, conj)
    return frozenset(
        i for i, tokens in enumerate(token_lts.states) if tokens & good
    )


def cobuchi_rejecting_sets(
    slave: Lts, token_lts: Lts, conj: BoolFn
) -> frozenset[int]:
    """Token-LTS states containing a sink NOT provable from ``conj``."""
    bad = sinks(slave) - accepting_sinks(slave, conj)
    return frozenset(i for i, tokens in enumerate(token_lts.states) if tokens & bad)


def build_count_lts(slave: Lts, cap: int = DEFAULT_STATE_CAP) -> Lts:
    """Counting construction: multiset of tokens per slave state."""
    delta = slave.delta
    size = len(slave)
    bound = size  # acyclicity keeps at most one token per rank level alive

    def successors(counts: TokenCounts, alphabet) -> list[TokenCounts]:
        live = [q for q, c in enumerate(counts) if c and delta[q] is not None]
        weights = [counts[q] for q in live] + [1]

        def make(targets) -> TokenCounts:
            acc = [0] * size
            for t, c in zip(targets, weights):
                acc[t] += c
            if max(acc) > bound:
                raise FormulaError("token count exceeded the slave size bound")
            return tuple(acc)

        return _token_row(slave, live, make)

    init = tuple(1 if q == slave.init else 0 for q in range(size))
    return build_lts(init, successors, slave.atoms, cap, what="counting LTS")


def mp_reward(slave: Lts, count_lts: Lts, conj: BoolFn) -> tuple[Fraction, ...]:
    """Per counting-state reward: tokens currently resting in sinks provable
    from ``conj``."""
    good = accepting_sinks(slave, conj)
    return tuple(
        Fraction(sum(counts[q] for q in good)) for counts in count_lts.states
    )


def token_str(slave: Lts, state: TokenSet | TokenCounts) -> str:
    """A token set, or a count vector as ``slave state:count`` per occupied
    slave state."""
    if isinstance(state, TokenSet):
        parts = [str(slave.states[q]) for q in sorted(state)]
    else:
        parts = [f"{slave.states[q]}:{c}" for q, c in enumerate(state) if c]
    return "{" + "; ".join(parts) + "}"
