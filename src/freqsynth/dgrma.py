"""Deterministic generalized Rabin mean-payoff automata for fragment formulas.

The automaton is the product of the master LTS with one token automaton per
recurrent subformula (subset-tracking for F- and G-members, token-counting
for frequency members).  Acceptance is one pair per assumption subset of the
recurrent formulas, already normalized to a single Fin set per pair, and
decided on the part columns: each set and reward vector is a view over a
column of the product's part states, not a set written out per state.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from operator import add
from typing import Mapping

from .boolfn import bf_and, bf_and_many, substitute_ff
from .formula import (
    ALWAYS,
    EVENTUALLY,
    FREQ,
    GEQ,
    GT,
    INF,
    SUP,
    Formula,
    FormulaError,
    atoms_of,
    in_fragment,
    nb_subformulas,
)
from .lasso import Lasso
from .lts import DEFAULT_STATE_CAP, Lts, build_lts
from .master import build_master
from .slave import (
    assumption_conj,
    buchi_accepting_sets,
    build_count_lts,
    build_slave_lts,
    build_token_lts,
    cobuchi_rejecting_sets,
    mp_reward,
    token_str,
)


class ColumnSet(Set):
    """Automaton states whose column entry is in ``members``: ``q`` is in
    the set iff ``column[q] in members``.  Membership reads one entry;
    iteration (in state order), size and the set operators read them all,
    and their results are frozensets."""

    __slots__ = ("column", "members")

    def __init__(self, column, members: frozenset):
        self.column = column
        self.members = members

    def __contains__(self, q: int) -> bool:
        return self.column[q] in self.members

    def __iter__(self):
        return compress(count(), map(self.members.__contains__, self.column))

    def __len__(self) -> int:
        return sum(map(self.members.__contains__, self.column))

    def lift(self, names, qs) -> frozenset:
        """``names[k]`` for each state ``qs[k]`` in the set."""
        column, members = self.column, self.members
        return frozenset([name for name, q in zip(names, qs) if column[q] in members])

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)


class ColumnMap:
    """Per automaton state, the value of its column entry:
    ``self[q] == values[column[q]]``."""

    __slots__ = ("column", "values")

    def __init__(self, column, values: tuple):
        self.column = column
        self.values = values

    def __getitem__(self, q: int):
        return self.values[self.column[q]]

    def __iter__(self):
        return map(self.values.__getitem__, self.column)

    def lift(self, names, qs) -> dict:
        """``names[k]`` -> the value of state ``qs[k]``, for each ``k``."""
        column, values = self.column, self.values
        return {name: values[column[q]] for name, q in zip(names, qs)}


@dataclass(frozen=True)
class MpBound:
    """Limit-average requirement: average reward compared against a bound."""

    cmp: str  # ">=" or ">"
    bound: Fraction
    reward: Mapping  # state -> Fraction

    def check(self, value: Fraction) -> bool:
        return value >= self.bound if self.cmp == GEQ else value > self.bound


@dataclass(frozen=True)
class GbmpCondition:
    """Conjunction of Inf sets, limit-inferior and limit-superior bounds.

    A pair's condition is over automaton states (``ColumnSet`` Inf sets,
    ``ColumnMap`` rewards); ``synthesis.lift_pair`` lifts it onto product
    state names, where ``mecanalysis`` decides it per end component.
    """

    inf_sets: tuple = ()
    mp_inf: tuple = ()
    mp_sup: tuple = ()

    def num_flows(self) -> int:
        return max(len(self.mp_sup), 1)

    def strict(self) -> bool:
        return any(b.cmp == GT for b in self.mp_inf + self.mp_sup)


@dataclass(frozen=True)
class GrmpPair:
    """One disjunct of the acceptance condition.

    A run satisfies the pair iff it visits ``fin`` finitely often and meets
    ``cond``.  ``fin`` is the union of the master prohibition and one set
    per assumed G-formula; avoiding every part equals avoiding the union.
    ``fin`` and each Inf set are ``ColumnSet`` views over a part column
    (Fin's column numbers the master and G-member states), and each reward
    vector is a ``ColumnMap``: membership and reward of one automaton state
    are one lookup, and only ``acceptance_dump``, ``dgrma_to_dot`` and the
    tests read them over all states.  Each bound group keeps the order of
    its frequency formulas in ``assumptions``.
    """

    assumptions: tuple  # the recurrent formulas assumed by this pair
    fin: ColumnSet
    cond: GbmpCondition


class Dgrma:
    """Product automaton with its acceptance pairs and building blocks.

    ``columns[k][q]`` is product state ``q``'s state in part ``k``: the
    master (part 0), then one token or counting automaton per recurrent
    subformula.  Each pair's sets and rewards are views over these columns.
    """

    def __init__(self, lts, master, rec, slaves, components, columns, pairs):
        self.lts = lts
        self.master = master
        self.rec = rec
        self.slaves = slaves
        self.components = components
        self.columns = columns
        self.pairs = pairs

    def __len__(self):
        return len(self.lts)

    def state_label(self, q: int) -> str:
        m, *comp_states = (column[q] for column in self.columns)
        parts = [str(self.master.states[m])]
        for slave, component, s in zip(self.slaves, self.components, comp_states):
            parts.append(token_str(slave, component.states[s]))
        return " | ".join(parts)


def rec_set(phi: Formula) -> list[Formula]:
    """F-, G- and frequency-G subformulas in the global interning order."""
    out = [f for f in nb_subformulas(phi) if f.kind in (EVENTUALLY, ALWAYS, FREQ)]
    return sorted(out, key=lambda f: f.uid)


def build_dgrma(phi: Formula, cap: int = DEFAULT_STATE_CAP) -> Dgrma:
    """Translate a fragment formula into an equivalent DGRMA.

    The alphabet is 2^atoms of the formula.  An atom the formula never reads
    changes no transition, so ``Lts.successor`` projects any letter onto the
    alphabet's atoms.

    The automaton depends only on the formula, the cap and the builders it
    is made with, so the last one built stays alive in this process, also
    between calls, until another is translated or
    ``build_dgrma.cache_clear()`` drops it; a call with the same formula and
    cap returns it.  The builders are looked up in this module at each call
    and are part of the key, so a wrapper or test double put in place of one
    is called, never bypassed.  Formulas are interned, so the key compares
    by identity.  Errors are raised, never kept.  Nothing writes to a
    ``Dgrma`` after it is built, so callers share it.
    """
    builders = (build_master, build_slave_lts, build_token_lts, build_count_lts, build_lts)
    return _translate(phi, cap, builders)


@lru_cache(maxsize=1)
def _translate(phi: Formula, cap: int, builders: tuple) -> Dgrma:
    """``build_dgrma``'s body and its one kept entry; ``builders`` only
    keys the entry (the body calls the same names)."""
    if not in_fragment(phi):
        raise FormulaError(
            f"{phi} is outside the supported fragment "
            "(no until inside a globally operator)"
        )
    atoms = set(atoms_of(phi))

    master = build_master(phi, cap)
    rec = rec_set(phi)
    slaves: list[Lts] = []
    components: list[Lts] = []
    for rho in rec:
        slave = build_slave_lts(rho.children[0], atoms, cap)
        slaves.append(slave)
        if rho.kind == FREQ:
            components.append(build_count_lts(slave, cap))
        else:
            components.append(build_token_lts(slave, cap))

    parts = [master] + components
    lts, columns = _tree_product(parts, atoms, cap)
    pairs = _build_pairs(parts, columns, rec, slaves)
    return Dgrma(lts, master, rec, slaves, components, columns, pairs)


build_dgrma.cache_clear = _translate.cache_clear
build_dgrma.cache_info = _translate.cache_info


def _tree_product(parts: list[Lts], atoms, cap: int) -> tuple[Lts, list]:
    """The reachable product of ``parts`` and one column per part.

    The product of each half is built first, then the pair product codes
    each state as ``a * len(B) + b``, so one row is one add per letter, and
    its columns are the halves' columns read at ``a`` and ``b``.  Every part
    is total over the same alphabet, so a half's reachable states are the
    projections of the whole product's, the breadth-first numbering is that
    of the product over tuples of part states, and no half outgrows the
    whole: the cap raises exactly when the whole exceeds it.  A single part
    is its own product.
    """
    if len(parts) == 1:
        return parts[0], [list(range(len(parts[0])))]
    mid = (len(parts) + 1) // 2
    lts_a, columns_a = _tree_product(parts[:mid], atoms, cap)
    lts_b, columns_b = _tree_product(parts[mid:], atoms, cap)
    width = len(lts_b)
    scaled = [[t * width for t in row] for row in lts_a.delta]
    delta_b = lts_b.delta

    def successors(code, alphabet):
        a, b = divmod(code, width)
        return list(map(add, scaled[a], delta_b[b]))

    lts = build_lts(0, successors, atoms, cap, what="product automaton")
    high = [c // width for c in lts.states]
    low = [c % width for c in lts.states]
    columns = [list(map(column.__getitem__, high)) for column in columns_a]
    columns += [list(map(column.__getitem__, low)) for column in columns_b]
    return lts, columns


def _build_pairs(parts, columns, rec, slaves) -> list[GrmpPair]:
    """One pair per assumption subset, decided on the part columns.

    Fin is a union of groups keyed by the master state and the states of
    the assumed G-members: a key is bad when one of those states holds a
    sink that the assumptions do not prove, or when the master obligation
    is not provable from the assumptions plus the G-members' substituted
    tokens.  Keys are numbered in first-seen order, and each distinct key
    of the product is decided once per pair.  Inf sets and rewards read one
    component column.  Every part is total, so every state of a part occurs
    in its column: an Inf set is empty iff it has no good component state.
    """
    master, components = parts[0], parts[1:]
    n = len(rec)
    keys_by_g: dict = {}  # G-members -> (key number column, keys in order)
    pairs = []
    for mask in range(1 << n):
        chosen = [i for i in range(n) if mask >> i & 1]
        assumed = tuple(rec[i] for i in chosen)
        dropped = [rec[i] for i in range(n) if not mask >> i & 1]
        base = assumption_conj(assumed)
        infs = []
        bounds: dict = {INF: [], SUP: []}
        rejecting = {}  # G-member -> its states holding an unproved sink
        degenerate = False
        for i in chosen:
            rho = rec[i]
            if rho.kind == EVENTUALLY:
                good = buchi_accepting_sets(slaves[i], components[i], base)
                if not good:
                    degenerate = True
                    break
                infs.append(ColumnSet(columns[i + 1], good))
            elif rho.kind == ALWAYS:
                rejecting[i] = cobuchi_rejecting_sets(slaves[i], components[i], base)
            else:
                cmp, p, ext = rho.bound
                rewards = mp_reward(slaves[i], components[i], base)
                bounds[ext].append(MpBound(cmp, p, ColumnMap(columns[i + 1], rewards)))
        if degenerate:
            continue

        g_members = tuple(rejecting)
        got = keys_by_g.get(g_members)
        if got is None:
            ids: dict = {}  # (master state, one state per G-member) -> number
            keyed = zip(columns[0], *[columns[i + 1] for i in g_members])
            column = [ids.setdefault(key, len(ids)) for key in keyed]
            got = keys_by_g[g_members] = (column, list(ids))
        column, keys = got
        token_conj: dict = {}  # (member, state) -> its substituted tokens
        conj_of: dict = {}  # G-member states -> their tokens and ``base``
        bad = set()
        for k, key in enumerate(keys):
            m, g_states = key[0], key[1:]
            if any(s in rejecting[i] for i, s in zip(g_members, g_states)):
                bad.add(k)
                continue
            conj = conj_of.get(g_states)
            if conj is None:
                conj = base
                for i, s in zip(g_members, g_states):
                    tokens = token_conj.get((i, s))
                    if tokens is None:
                        tokens = token_conj[(i, s)] = bf_and_many(
                            substitute_ff(slaves[i].states[t], dropped)
                            for t in sorted(components[i].states[s])
                        )
                    conj = bf_and(conj, tokens)
                conj_of[g_states] = conj
            goal = master.states[m]
            if not conj.implies(goal):
                bad.add(k)
        if len(bad) == len(keys):
            continue  # Fin holds every state
        fin = ColumnSet(column, frozenset(bad))
        cond = GbmpCondition(tuple(infs), tuple(bounds[INF]), tuple(bounds[SUP]))
        pairs.append(GrmpPair(assumed, fin, cond))
    return pairs


def run_cycle(lts: Lts, w: Lasso) -> tuple[list[int], list[int]]:
    """Run the LTS on the lasso; return (prefix states, repeating cycle states).

    The cycle is the exact sequence of states visited once per period in the
    limit, so Inf/Fin membership and reward averages read off it directly.
    """
    q = lts.init
    prefix = []
    for letter in w.stem:
        prefix.append(q)
        q = lts.successor(q, letter)
    seen: dict = {}
    seq: list[int] = []
    pos = 0
    while (pos, q) not in seen:
        seen[(pos, q)] = len(seq)
        seq.append(q)
        q = lts.successor(q, w.loop[pos])
        pos = (pos + 1) % len(w.loop)
    start = seen[(pos, q)]
    return prefix + seq[:start], seq[start:]


def pair_accepts_cycle(pair: GrmpPair, cycle: list[int]) -> bool:
    if any(q in pair.fin for q in cycle):
        return False
    cond = pair.cond
    if not all(any(q in s for q in cycle) for s in cond.inf_sets):
        return False
    for bound in cond.mp_inf + cond.mp_sup:
        if not bound.check(Fraction(sum(bound.reward[q] for q in cycle), len(cycle))):
            return False
    return True


def accepts_lasso(aut: Dgrma, w: Lasso) -> bool:
    """Exact acceptance of an ultimately periodic word."""
    _, cycle = run_cycle(aut.lts, w)
    return any(pair_accepts_cycle(pair, cycle) for pair in aut.pairs)


def acceptance_dump(aut: Dgrma) -> str:
    """One line per pair: the assumption set, Fin set, Inf sets, and the
    bounds in the order of their frequency formulas among the assumptions."""
    lines = []
    for k, pair in enumerate(aut.pairs):
        assumed = ",".join(str(a) for a in pair.assumptions) or "-"
        fin = ",".join(str(q) for q in sorted(pair.fin)) or "-"
        infs = ";".join(
            "{" + ",".join(str(q) for q in sorted(s)) + "}" for s in pair.cond.inf_sets
        ) or "-"
        groups = {INF: iter(pair.cond.mp_inf), SUP: iter(pair.cond.mp_sup)}
        exts = [rho.bound.ext for rho in pair.assumptions if rho.kind == FREQ]
        mps = ";".join(
            f"{ext} {b.cmp} {b.bound} [" + ",".join(map(str, b.reward)) + "]"
            for ext, b in ((ext, next(groups[ext])) for ext in exts)
        ) or "-"
        lines.append(f"pair {k}: R={{{assumed}}} FIN={{{fin}}} INF={infs} MP={mps}")
    return "\n".join(lines) + "\n"


def dgrma_to_dot(aut: Dgrma) -> str:
    """DOT rendering of the product LTS with per-pair acceptance annotations."""

    def annotate(q: int) -> str:
        notes = []
        for k, pair in enumerate(aut.pairs):
            marks = []
            if q in pair.fin:
                marks.append("fin")
            marks.extend(f"inf{j}" for j, s in enumerate(pair.cond.inf_sets) if q in s)
            if marks:
                notes.append(f"{k}:" + "+".join(marks))
        return " ".join(notes)

    return aut.lts.to_dot(label=aut.state_label, annotate=annotate)
