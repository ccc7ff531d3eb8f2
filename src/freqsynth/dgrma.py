"""Deterministic generalized Rabin mean-payoff automata for fragment formulas.

The automaton is the product of the master LTS with one token automaton per
recurrent subformula (subset-tracking for F- and G-members, token-counting
for frequency members).  Acceptance is one pair per assumption subset of the
recurrent formulas, already normalized to a single Fin set per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add

from .boolfn import BoolFn, bf_and, bf_and_many, formula_to_boolfn, substitute_ff
from .formula import (
    ALWAYS,
    EVENTUALLY,
    FREQ,
    GEQ,
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
    SlaveLts,
    buchi_accepting_sets,
    build_count_lts,
    build_slave_lts,
    build_token_lts,
    cobuchi_rejecting_sets,
    mp_reward,
    token_counts_str,
    token_set_str,
)


@dataclass(frozen=True)
class MpAtom:
    """Mean-payoff acceptance atom: limit average of rewards versus a bound."""

    ext: str  # "inf" or "sup"
    cmp: str  # ">=" or ">"
    bound: Fraction
    rewards: tuple  # Fraction per automaton state

    def check(self, average: Fraction) -> bool:
        return average >= self.bound if self.cmp == GEQ else average > self.bound


@dataclass(frozen=True)
class GrmpPair:
    """One disjunct of the acceptance condition.

    A run satisfies the pair iff it visits ``fin`` finitely often, every
    member of ``infs`` infinitely often, and every mean-payoff atom holds.
    ``fin`` is the union of the master prohibition and one set per assumed
    G-formula; avoiding every part equals avoiding the union.
    """

    assumptions: tuple  # the recurrent formulas assumed by this pair
    fin: frozenset
    infs: tuple  # of frozenset
    mps: tuple  # of MpAtom


class Dgrma:
    """Product automaton with its acceptance pairs and building blocks."""

    def __init__(self, lts, master, rec, slaves, components, pairs):
        self.lts = lts
        self.master = master
        self.rec = rec
        self.slaves = slaves
        self.components = components
        self.pairs = pairs

    def __len__(self):
        return len(self.lts)

    def state_label(self, payload) -> str:
        parts = [str(self.master.states[payload[0]])]
        for i, rho in enumerate(self.rec):
            comp_state = self.components[i].states[payload[i + 1]]
            if rho.kind == FREQ:
                parts.append(token_counts_str(self.slaves[i], comp_state))
            else:
                parts.append(token_set_str(self.slaves[i], comp_state))
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
    """
    if not in_fragment(phi):
        raise FormulaError(
            f"{phi} is outside the supported fragment "
            "(no until inside a globally operator)"
        )
    atoms = set(atoms_of(phi))

    master = build_master(phi, cap)
    rec = rec_set(phi)
    slaves: list[SlaveLts] = []
    components: list[Lts] = []
    for rho in rec:
        slave = build_slave_lts(rho.children[0], atoms, cap)
        slaves.append(slave)
        if rho.kind == FREQ:
            components.append(build_count_lts(slave, cap))
        else:
            components.append(build_token_lts(slave, cap))

    parts = [master] + components
    delta, states = _tree_product(parts, atoms, cap)
    index = dict(zip(states, range(len(states))))
    lts = Lts(atoms, master.alphabet, states, index, 0, delta)

    pairs = _build_pairs(lts, parts, rec, slaves)
    return Dgrma(lts, master, rec, slaves, components, pairs)


def _tree_product(parts: list[Lts], atoms, cap: int) -> tuple[list, list]:
    """Rows and payloads of the reachable product of ``parts``.

    A payload is the tuple of part state indices.  The product of each half
    is built first, then the pair product numbers each state by the code
    ``a * len(B) + b``, so one row is one add per letter.  Every part is
    total over the same alphabet, so a half's reachable states are the
    projections of the whole product's, the breadth-first numbering is that
    of the product over payload tuples, and no half outgrows the whole: the
    cap raises exactly when the whole exceeds it.
    """
    if len(parts) == 1:
        return parts[0].delta, [(q,) for q in range(len(parts[0]))]
    mid = (len(parts) + 1) // 2
    delta_a, states_a = _tree_product(parts[:mid], atoms, cap)
    delta_b, states_b = _tree_product(parts[mid:], atoms, cap)
    width = len(states_b)
    scaled = [[t * width for t in row] for row in delta_a]

    def successors(code, alphabet):
        a, b = divmod(code, width)
        return list(map(add, scaled[a], delta_b[b]))

    lts = build_lts(0, successors, atoms, cap, what="product automaton")
    states = [states_a[c // width] + states_b[c % width] for c in lts.states]
    return lts.delta, states


def _build_pairs(lts, parts, rec, slaves) -> list[GrmpPair]:
    master, components = parts[0], parts[1:]
    n = len(rec)
    # comp_of[0][q] is product state q's master state, comp_of[i + 1][q] its
    # state of components[i]; holders[i][s] lists the product states whose
    # components[i] state is s, so a component set lifts as a union of lists.
    comp_of = list(zip(*lts.states))
    holders = []
    for part, col in zip(components, comp_of[1:]):
        by_state = [[] for _ in range(len(part))]
        for q, s in enumerate(col):
            by_state[s].append(q)
        holders.append(by_state)
    all_states = frozenset(range(len(lts)))
    # Product states grouped by (master state, G-member component states),
    # per set of assumed G-members.
    groups_by_g: dict = {}
    pairs = []
    for mask in range(1 << n):
        chosen = [i for i in range(n) if mask >> i & 1]
        assumed = tuple(rec[i] for i in chosen)
        dropped = [rec[i] for i in range(n) if not mask >> i & 1]
        base = bf_and_many(formula_to_boolfn(rho) for rho in assumed)
        g_members = [i for i in chosen if rec[i].kind == ALWAYS]
        # Substituted-token conjunctions per (member, component state), and
        # their conjunction with ``base`` per G-state tuple; one memo each
        # per mask, because the substitution reads ``dropped``.
        token_conj_cache: dict = {}
        conj_cache: dict = {}

        def token_conj(i: int, comp_state: int) -> BoolFn:
            key = (i, comp_state)
            got = token_conj_cache.get(key)
            if got is None:
                tokens = components[i].states[comp_state]
                got = bf_and_many(
                    substitute_ff(slaves[i].state(q), dropped) for q in sorted(tokens)
                )
                token_conj_cache[key] = got
            return got

        def proved(key) -> bool:
            g_states = key[1:]
            conj = conj_cache.get(g_states)
            if conj is None:
                conj = base
                for i, comp_state in zip(g_members, g_states):
                    conj = bf_and(conj, token_conj(i, comp_state))
                conj_cache[g_states] = conj
            goal = master.states[key[0]]
            return all(goal.holds_under(m) for m in conj.models)

        # Master part: eventually prohibit states whose master formula is not
        # provable from the assumptions plus the substituted G-slave tokens.
        groups = groups_by_g.get(tuple(g_members))
        if groups is None:
            groups = groups_by_g[tuple(g_members)] = {}
            keys = zip(comp_of[0], *[comp_of[i + 1] for i in g_members])
            for q, key in enumerate(keys):
                groups.setdefault(key, []).append(q)
        fin = set()
        for key, members in groups.items():
            if not proved(key):
                fin.update(members)

        infs = []
        mps = []
        degenerate = False
        for i in chosen:
            rho = rec[i]
            by_state = holders[i]
            if rho.kind == EVENTUALLY:
                good = buchi_accepting_sets(slaves[i], components[i], assumed)
                lifted = frozenset(chain.from_iterable(by_state[s] for s in good))
                if not lifted:
                    degenerate = True
                    break
                infs.append(lifted)
            elif rho.kind == ALWAYS:
                bad = cobuchi_rejecting_sets(slaves[i], components[i], assumed)
                fin.update(chain.from_iterable(by_state[s] for s in bad))
            else:
                rewards = mp_reward(slaves[i], components[i], assumed)
                cmp, p, ext = rho.bound
                col = comp_of[i + 1]
                mps.append(MpAtom(ext, cmp, p, tuple(map(rewards.__getitem__, col))))
        if degenerate or frozenset(fin) == all_states:
            continue
        pairs.append(GrmpPair(assumed, frozenset(fin), tuple(infs), tuple(mps)))
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
    states = frozenset(cycle)
    if states & pair.fin:
        return False
    if any(not (states & s) for s in pair.infs):
        return False
    for mp in pair.mps:
        avg = Fraction(sum(mp.rewards[q] for q in cycle), len(cycle))
        if not mp.check(avg):
            return False
    return True


def accepts_lasso(aut: Dgrma, w: Lasso) -> bool:
    """Exact acceptance of an ultimately periodic word."""
    _, cycle = run_cycle(aut.lts, w)
    return any(pair_accepts_cycle(pair, cycle) for pair in aut.pairs)


def acceptance_dump(aut: Dgrma) -> str:
    """One line per pair: the assumption set, Fin set, Inf sets, MP atoms."""
    lines = []
    for k, pair in enumerate(aut.pairs):
        assumed = ",".join(str(a) for a in pair.assumptions) or "-"
        fin = ",".join(str(q) for q in sorted(pair.fin)) or "-"
        infs = ";".join(
            "{" + ",".join(str(q) for q in sorted(s)) + "}" for s in pair.infs
        ) or "-"
        mps = ";".join(
            f"{mp.ext} {mp.cmp} {mp.bound} ["
            + ",".join(str(r) for r in mp.rewards)
            + "]"
            for mp in pair.mps
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
            marks.extend(f"inf{j}" for j, s in enumerate(pair.infs) if q in s)
            if marks:
                notes.append(f"{k}:" + "+".join(marks))
        return " ".join(notes)

    return aut.lts.to_dot(label=aut.state_label, annotate=annotate)
