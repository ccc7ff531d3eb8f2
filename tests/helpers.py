"""Shared test utilities: seeded generators and independent oracles.

The oracles here (Markov-chain BSCC classification, deterministic-memoryless
strategy enumeration with exact stationary distributions) deliberately avoid
the package's LP/MEC analysis path so cross-validation is meaningful.  The
exceptions are differential oracles that keep replaced implementations:
``decide_then_maximize_margin`` is the earlier two-LP witness rule,
``margin_rewrite`` is the row rewrite that derived the margin system from
the slack system before ``build_lp`` built both, and
``rescan_mec_decomposition``, ``rescan_restrict`` and
``rescan_attractor_policy`` are the full-rescan fixpoints that the graph
toolkit in ``freqsynth.graph`` replaced (the first splits its SCCs by
mutual reachability, ``mutual_reach_classes``, and not by ``graph.sccs``),
``fraction_solve_lp`` is the simplex over a tableau of Fractions that the
integer-row tableau replaced (it keeps the artificial columns that
``solve_lp`` dropped, its ``reenter`` argument keeps the phase-one rule
that let a left artificial re-enter, and its ``start`` argument the raw
start pivots that the kept crash of a ``BlockStart`` replaced),
``rescan_build_lp`` is the slack flow-system builder that scanned every action
distribution once per state, ``pairwise_winning_union`` is the winning union
that decided every (pair, component) afresh, before decisions were shared
by equal restricted conditions, and ``dense_max_reach`` is maximal reachability
by dense solves (``gauss_solve``) and the rescan selector loop, which the
sparse solve and the replayed selector replaced.  ``letterwise_build_lts`` is
the transition-system builder that called its successor once per letter, and
``letterwise_build_dgrma`` builds the master, slave, token, counting and
product automata with it, one successor call per (state, letter), with the
product over tuples of part states, and the acceptance pairs by walking
every product state's parts per assumption set (``letterwise_build_pairs``);
row-at-a-time translation, the tree of integer-coded pair products and the
pairs decided once per distinct key on the part columns (views over the
columns, not sets) replaced them.  The oracle wraps its written-out sets in
views over the identity column (``written_out_pair``), so the pipeline reads
them as it reads ``build_dgrma``'s pairs, and ``scan_lift_pair`` is
``lift_pair`` as a scan of every product state.  ``proves`` is propositional
entailment over formulas and Boolean functions, which the proof-obligation
tests state their claims with.
``named_simulate_global`` is the global simulation loop that looked every
step up by product state and action name; ``simulate_global`` now maps the
entry state to its component once per episode.  ``fraction_sample`` is the
sampler that compared exact ``Fraction`` sums with the float draw, which
integer draw tables replaced; ``named_simulate_global`` draws with it.
``int_draw_table`` is that integer table: the ceilings ``T = ceil(cum *
2**53 / den)`` that ``k = int(random() * 2.0**53)`` was compared with,
before ``freqsynth.mdp.draw_table`` stored each as the exact double ``T *
2.0**-53`` and the walks compared ``random()`` itself.  ``draw`` is the
sampler that read an integer table once per call, before the walks compiled
their step records and drew from them inline; it is the reference that the
dyadic draws are compared with (``assert_dyadic_draws_match``).
``FixedDraw`` is an rng whose every ``random()`` is one chosen value in [0,
1), and whose ``getrandbits`` counts the draws that a walk standing on a
sure self-loop skips; ``edge_draws`` lists the values on both sides of
each threshold of some integer tables, which seeded draws almost never
meet.
``witness_walk`` is the per-step generator of the witness that
``freqsynth.mecanalysis.WitnessRun`` replaced, which fills a list of states
one pilgrimage leg or epoch block at a time: the walk yields (epoch, state,
action) per step, so the tests that read epochs and actions walk with it,
and the run's chunks are checked against its states and draws.
``StrategyRunner`` is the task-list interpreter of the witness that the walk
replaced; it picks choices with ``fraction_sample``, plays each epoch in the
blocks of ``fraction_epoch_plan``, the interleaved plan of ``epoch_blocks``
stated over Fraction masses, and ``named_simulate_global`` steps it.
``simulate_strategy`` runs one witness alone with ``witness_walk`` from the
first state of its component and returns ``SimulationStats`` (epoch
lengths, Inf-set visits, prefix averages); it is an instrument for the
witness tests, which the CLI's ``simulate``
(``freqsynth.synthesis.simulate_global``) does not use.
``hull_accepts`` decides a strongly connected MEC from the reward vectors of
its MD-strategy BSCCs, one small margin LP per flow block solved with
``fraction_solve_lp``; it shares no code with ``build_lp`` or the simplex.
``int_rows`` turns Fraction rows ``(coeffs, rel, rhs)`` into ``solve_lp``'s
integer rows ``(nums, rel, rhs, den)`` and ``fraction_rows`` turns them back,
so the Fraction oracles are fed rows that ``build_lp`` did not make.
``as_fractions`` is the one way back from the integers of the LP path to
the Fractions that the oracles compute with: a ``solve_lp`` result, an
``LpSolution``, or a witness ``Strategy`` whose mode classes then hold
Fraction weights and (action, probability) choices, as ``StrategyRunner``
and ``stationary_distribution`` read them.
``assert_witness_keeps_fraction_formulas`` checks a witness's compiled
choice tables and epoch shares against the Fraction formulas that its
integer weights replaced, and its epoch plans against
``fraction_epoch_plan``, with ``merged_blocks`` joining consecutive blocks
of one class.
``time_limit`` fails a call that does not return within a number of seconds.
``tree_in_fragment`` is the recursive fragment check over the formula tree
that ``freqsynth.formula.fragment_violation`` replaced, which walks each
distinct node once.
``shift``, ``models_at`` and ``models_boolfn`` are lasso helpers that only the
tests use.  Conditions in the tests are over state indices, as the pipeline
decides them: ``whole`` is a strongly connected MDP as one ``Component``,
``reward_of`` reads a bound's reward at a state (through ``at`` when the
condition has it), ``component_names`` names a component's states and
actions, and ``named_max_reach`` and ``reach_by_name`` give ``max_reach``'s
index-keyed result by names, as ``dense_max_reach`` gives it.  An action
holds its distribution only as integer weights; ``dist`` reads them back as
(target, ``Fraction``) pairs, the view the oracles compute with, and
``state_at`` and ``action_at`` look a state or an action up by name.
``plain_parse_mdp`` reads a model's action lines one entry at a time, with
``parse_mdp``'s messages and none of its memos of probability texts and
distributions.
"""

from __future__ import annotations

import itertools
import math
import random
import signal
from bisect import bisect_right
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, compress, count, islice
from operator import itemgetter, truediv
from typing import Callable, Iterator

from freqsynth import simplex
from freqsynth.boolfn import (
    BoolFn,
    bf_and,
    bf_and_many,
    formula_to_boolfn,
    rank,
    step,
    substitute_ff,
    unfold,
)

from freqsynth.formula import (
    Formula,
    FreqBound,
    atom,
    always,
    conj,
    disj,
    eventually,
    freq_always,
    neg_atom,
    next_,
    parse_formula,
    rational_literal,
    until,
)
from freqsynth.lasso import Lasso, LassoError, _Eval, models
from freqsynth.lts import Lts, StateCapExceeded, powerset_alphabet
from freqsynth.dgrma import (
    ColumnMap,
    ColumnSet,
    Dgrma,
    GbmpCondition,
    GrmpPair,
    MpBound,
    build_dgrma,
    rec_set,
)
from freqsynth.formula import ALWAYS, EVENTUALLY, FREQ, GT, NOT, UNTIL, FormulaError, atoms_of
from freqsynth.slave import (
    buchi_accepting_sets,
    cobuchi_rejecting_sets,
    mp_reward,
)
from freqsynth.graph import Component, can_reach, mec_decomposition, restrict
from freqsynth.mdp import Mdp, MdpAction, MdpError, draw_table, weights_of
from freqsynth.mecanalysis import (
    LinearSystem,
    LpSolution,
    ModeClass,
    Strategy,
    build_lp,
    epoch_blocks,
    epoch_length,
    maximize_margin,
)
from freqsynth.synthesis import GlobalSimulation, accepting_mec, max_reach
from freqsynth.simplex import (
    EQ,
    GEQ,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    SimplexError,
    solve_lp,
)

_ONE = Fraction(1)
_ZERO = Fraction(0)
LEQ = "<="  # a relation that only the Fraction oracle takes


def random_fragment_formula(rng, size, atoms, under_g=False):
    """Random formula of the fragment (no until below a globally operator)."""
    if size <= 1:
        name = rng.choice(atoms)
        return rng.choice([atom(name), neg_atom(name)])
    kinds = ["and", "or", "X", "F", "G", "Gf"]
    if not under_g:
        kinds += ["U", "U"]
    k = rng.choice(kinds)
    if k in ("and", "or", "U"):
        left = rng.randint(1, size - 1)
        a = random_fragment_formula(rng, left, atoms, under_g)
        b = random_fragment_formula(rng, size - left, atoms, under_g)
        return {"and": conj, "or": disj, "U": until}[k](a, b)
    child_under_g = under_g or k in ("G", "Gf")
    c = random_fragment_formula(rng, size - 1, atoms, child_under_g)
    if k == "X":
        return next_(c)
    if k == "F":
        return eventually(c)
    if k == "G":
        return always(c)
    den = rng.randint(1, 4)
    bound = FreqBound(
        rng.choice([">=", ">"]), Fraction(rng.randint(0, den), den),
        rng.choice(["inf", "sup"]),
    )
    return freq_always(bound, c)


def tree_in_fragment(phi, under_g=False):
    """The fragment check as the recursive tree walk that
    ``formula.fragment_violation`` replaced: no explicit negation, and no
    until below a G or G{...}.  It visits a shared node once per path."""
    if phi.kind == NOT or (phi.kind == UNTIL and under_g):
        return False
    under_g = under_g or phi.kind in (ALWAYS, FREQ)
    return all(tree_in_fragment(c, under_g) for c in phi.children)


def random_ufree_formula(rng, size, atoms):
    return random_fragment_formula(rng, size, atoms, under_g=True)


WIDE_FORMULA = (
    "((l U b) -> G{>=0.99,inf}(r -> X(f & F c)))"
    " & ((l U w) -> G{>=0.85,inf}(r -> (X p | X X p)))"
)

# Two lim-inf bounds that only a mixture of the s0 and s1 loops meets: the
# witness of MIXING_FORMULA interleaves the classes {s0} and {s1}.
MIXING_MODEL = """\
mdp
states s0 s1 s2
init s0
label s0 b
label s1 a
action s0 go : s0 1/2 , s1 1/2
action s0 stay0 : s0 1
action s1 stay1 : s1 1
action s1 leave : s0 4/7 , s2 3/7
action s2 mix : s0 1/4 , s1 1/2 , s2 1/4
"""
MIXING_FORMULA = "G{>=1/2,inf} a & G{>=2/5,inf} b"


def corpus_formulas():
    """The fixed translation-test corpus: the worked examples, the motivating
    two-bound formula, plus seeded random fragment formulas."""
    fixed = [
        "a & X(b U a)",                      # master worked example
        "a | b | X(b & G F a)",              # slave worked example
        "G(X a | G X b)",                    # final-acceptance worked example
        "G{>=0.99,inf}(r -> X(f & F c))",
        "G{>=0.85,inf}(r -> (X p | X X p))",
        "((l U b) -> G{>=0.99,inf}(r -> X(f & F c)))"
        " & ((l U w) -> G{>=0.85,inf}(r -> (X p | X X p)))",
        "F a",
        "G F a",
        "F G a",
        "G{>=1/2,inf} a",
        "G{>1/2,sup} a",
        "a U (b U c)",
        "G(a -> F b)",
        "(a U b) & G{>=1/2,inf} c",
        "F(a U b)",
        "tt",
        "ff",
    ]
    formulas = [parse_formula(t) for t in fixed]
    rng = random.Random(20240917)
    while len(formulas) < 30:
        phi = random_fragment_formula(rng, rng.randint(3, 10), ["a", "b", "c"])
        try:
            build_dgrma(phi, cap=20_000)
        except StateCapExceeded:
            continue
        if phi not in formulas:
            formulas.append(phi)
    return formulas


def random_distribution(rng, targets):
    """Exact distribution over the chosen targets with small denominators."""
    if len(targets) == 1:
        return ((targets[0], _ONE),)
    weights = [rng.randint(1, 4) for _ in targets]
    total = sum(weights)
    return tuple((t, Fraction(w, total)) for t, w in zip(targets, weights))


def dist(action):
    """An action's distribution as (target, Fraction probability) pairs,
    read from its integer weights."""
    den, pairs = action.weights
    return tuple((t, Fraction(w, den)) for t, w in pairs)


def state_at(mdp, name):
    """Index of the state called ``name``."""
    return mdp.states.index(name)


def action_at(mdp, name):
    """Index of the action called ``name``."""
    return next(ai for ai, a in enumerate(mdp.actions) if a.name == name)


def random_mdp(rng, max_states, max_actions):
    n = rng.randint(1, max_states)
    actions = []
    for s in range(n):
        for k in range(rng.randint(1, max_actions)):
            n_targets = rng.randint(1, min(3, n))
            targets = sorted(rng.sample(range(n), n_targets))
            weights = weights_of(random_distribution(rng, targets))
            actions.append(MdpAction(f"a{s}_{k}", s, weights))
    return Mdp([f"s{i}" for i in range(n)], actions, 0)


def random_strongly_connected_mdp(rng, max_states, max_actions):
    """Rejection-sample MDPs until the whole state space is one MEC."""
    while True:
        mdp = random_mdp(rng, max_states, max_actions)
        mecs = mec_decomposition(mdp)
        if len(mecs) == 1 and len(mecs[0].states) == len(mdp):
            return mdp


def random_markov_chain(rng, max_states, labels=("a", "b")):
    n = rng.randint(1, max_states)
    actions = []
    for s in range(n):
        n_targets = rng.randint(1, min(3, n))
        targets = sorted(rng.sample(range(n), n_targets))
        actions.append(MdpAction(f"c{s}", s, weights_of(random_distribution(rng, targets))))
    valuation = [
        frozenset(a for a in labels if rng.random() < 0.5) for _ in range(n)
    ]
    return Mdp([f"s{i}" for i in range(n)], actions, 0), valuation


def gauss_solve(rows, rhs):
    """Independent exact Gaussian elimination for the test-side oracles."""
    n = len(rows)
    a = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        scale = a[col][col]
        a[col] = [v / scale for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def chain_bsccs(mdp, policy):
    """Bottom strongly connected components of the chain induced by a policy
    (one action index per state)."""
    n = len(mdp)
    succ = [
        sorted({t for t, _ in dist(mdp.actions[policy[s]])}) for s in range(n)
    ]
    index, low, on_stack = {}, {}, set()
    stack, sccs, counter = [], [], 0
    for root in range(n):
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            pushed = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    pushed = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if pushed:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    bottoms = []
    for comp in sccs:
        comp_set = set(comp)
        if all(t in comp_set for s in comp for t in succ[s]):
            bottoms.append(comp)
    return bottoms


def stationary_distribution(mdp, policy, bscc):
    """Exact stationary distribution of the policy chain on one bottom SCC.

    ``policy[s]`` is an action index, or a randomized choice given as
    (action index, probability) pairs, as in the ``ModeClass.choices`` of a
    strategy's ``as_fractions`` form."""
    pos = {s: i for i, s in enumerate(bscc)}
    k = len(bscc)
    rows = []
    rhs = []
    # pi (P - I) = 0 restricted to the class, replaced one row by sum-to-one.
    for j, s in enumerate(bscc):
        if j == 0:
            rows.append([_ONE] * k)
            rhs.append(_ONE)
            continue
        row = [_ZERO] * k
        row[pos[s]] -= 1
        for i, src in enumerate(bscc):
            choice = policy[src]
            for ai, q in ((choice, _ONE),) if isinstance(choice, int) else choice:
                for t, p in dist(mdp.actions[ai]):
                    if t == s:
                        row[i] += q * p
        rows.append(row)
        rhs.append(_ZERO)
    solved = gauss_solve(rows, rhs)
    return {s: solved[pos[s]] for s in bscc}


def md_strategy_satisfies(mdp, policy, cond):
    """Positive-probability satisfaction of the condition by an MD strategy:
    some bottom class meets every conjunct (limits exist there and equal the
    stationary average)."""
    for bscc in chain_bsccs(mdp, policy):
        if any(not (set(inf) & set(bscc)) for inf in cond.inf_sets):
            continue
        pi = stationary_distribution(mdp, policy, bscc)
        ok = True
        for bound in list(cond.mp_inf) + list(cond.mp_sup):
            value = sum(pi[s] * reward_of(cond, bound, s) for s in bscc)
            if not bound.check(value):
                ok = False
                break
        if ok:
            return True
    return False


def whole(mdp):
    """A strongly connected MDP as one component: every state and every
    action, in index order."""
    return Component(tuple(range(len(mdp))), tuple(range(len(mdp.actions))))


def reward_of(cond, bound, s):
    """The bound's reward at state ``s``, read at ``cond.at[s]`` when the
    condition has ``at``."""
    return bound.reward[s if cond.at is None else cond.at[s]]


def enumerate_md_strategies(mdp):
    return itertools.product(*[list(mdp.act[s]) for s in range(len(mdp))])


def chain_pipeline_probability(product, lifted_pairs):
    """Independent probability for a Markov-chain product: classify bottom
    SCCs by the pair conditions using exact stationary distributions, then
    solve the absorption system."""
    assert all(len(a) == 1 for a in product.act), "needs a Markov chain"
    policy = [product.act[s][0] for s in range(len(product))]
    bsccs = chain_bsccs(product, policy)
    accepting = []
    for bscc in bsccs:
        members = set(bscc)
        pi = stationary_distribution(product, policy, bscc)
        good = False
        for fin, cond in lifted_pairs:
            if set(fin) & members:
                continue
            if any(not (set(inf) & members) for inf in cond.inf_sets):
                continue
            ok = True
            for bound in list(cond.mp_inf) + list(cond.mp_sup):
                value = sum(pi[s] * reward_of(cond, bound, s) for s in bscc)
                if not bound.check(value):
                    ok = False
                    break
            if ok:
                good = True
                break
        if good:
            accepting.append(set(bscc))
    # Absorption probabilities into accepting classes.
    absorbed = set().union(*accepting) if accepting else set()
    rejected = set().union(*(set(b) for b in bsccs if set(b) not in accepting)) if bsccs else set()
    rejected -= absorbed
    transient = [s for s in range(len(product)) if s not in absorbed and s not in rejected]
    pos = {s: i for i, s in enumerate(transient)}
    rows, rhs = [], []
    for s in transient:
        row = [_ZERO] * len(transient)
        row[pos[s]] = _ONE
        b = _ZERO
        for t, p in dist(product.actions[policy[s]]):
            if t in absorbed:
                b += p
            elif t in pos:
                row[pos[t]] -= p
        rows.append(row)
        rhs.append(b)
    solved = gauss_solve(rows, rhs) if transient else []
    values = {}
    for s in range(len(product)):
        if s in absorbed:
            values[s] = _ONE
        elif s in pos:
            values[s] = solved[pos[s]]
        else:
            values[s] = _ZERO
    return values[product.init]


def margin_rewrite(system):
    """The margin system as it was once derived from the slack system: drop
    the slack column, then put ``-t`` on every bound row, with ``t`` the
    column after the flows.  ``t`` is left out when no row is a bound row
    (such a system was never solved)."""
    t = system.num_flows * len(system.component.actions)
    rows = []
    for coeffs, rel, rhs in system.rows:
        coeffs = {j: c for j, c in coeffs.items() if j != t}
        if rel == ">=":
            coeffs[t] = -_ONE
        rows.append((coeffs, rel, rhs))
    has_t = any(rel == ">=" for _, rel, _ in rows)
    num_vars = t + 1 if has_t else t
    return LinearSystem(
        system.mdp, system.component, system.cond, system.num_flows, num_vars, rows, system.bounds
    )


def decide_then_maximize_margin(mdp, cond):
    """The earlier witness rule as (accepted, witness) on a strongly
    connected MDP: the slack LP decides, then a second LP maximizing one
    margin shared by every mean-payoff row replaces the witness when it is
    optimal and its margin meets strictness."""
    if any(not (set(inf) & set(range(len(mdp)))) for inf in cond.inf_sets):
        return False, None
    system = build_lp(mdp, whole(mdp), cond, margin=False)
    sol = maximize_margin(system)
    if sol is None or (cond.strict() and sol.slack == 0):
        return False, None
    if not (cond.mp_inf or cond.mp_sup):
        return True, sol  # the margin is unbounded
    margin = margin_rewrite(rescan_build_lp(mdp, cond))
    n_actions = len(mdp.actions)
    t = system.num_flows * n_actions
    status, values, den = solve_lp(margin.num_vars, int_rows(margin.rows), {t: 1})
    if status != OPTIMAL or (cond.strict() and values[t] <= 0):
        return True, sol
    flows = tuple(
        tuple(values[i * n_actions : (i + 1) * n_actions])
        for i in range(system.num_flows)
    )
    return True, LpSolution(flows, values[t], den)


def component_names(mdp, component):
    """A component as (state names, action names), both in its own order."""
    return (
        tuple(mdp.states[s] for s in component.states),
        tuple(mdp.actions[ai].name for ai in component.actions),
    )


def assert_winners_hold_their_states(report):
    """``state_to_winner`` maps exactly the report's winning states, each
    to a winner whose component holds it."""
    strategy = report.strategy
    missed = strategy.state_to_winner.keys() ^ report.winning_states
    assert not missed, sorted(report.product.states[s] for s in missed)
    for s, w_idx in strategy.state_to_winner.items():
        assert s in strategy.winners[w_idx].component.states, report.product.states[s]


def pairwise_winning_union(product, lifted):
    """``winning_union`` deciding every (pair, component) afresh: one
    restriction and decomposition per distinct Fin set, one
    ``accepting_mec`` call per pair and component of that decomposition."""
    w_states: set = set()
    outcomes = []
    components_of: dict = {}
    for fin, cond in lifted:
        winners = []
        components = components_of.get(fin)
        if components is None:
            part = restrict(product, fin)
            components = [] if part is None else mec_decomposition(product, part)
            components_of[fin] = components
        for component in components:
            ok, sol = accepting_mec(product, component, cond)
            if ok:
                winners.append((component, sol))
                w_states.update(component.states)
        outcomes.append(winners)
    return frozenset(w_states), outcomes


def rescan_mec_decomposition(mdp, states=None):
    """MECs by iterated SCC pruning that rescans every state and action, in
    the ``component_names`` form of ``mec_decomposition``'s components:
    states in index order, actions in name order, MECs by least state name.
    The SCCs are split by mutual reachability, not by ``graph.sccs``."""
    cur_states = set(range(len(mdp))) if states is None else set(states)
    cur_actions = {
        ai
        for ai in range(len(mdp.actions))
        if mdp.actions[ai].source in cur_states
        and all(t in cur_states for t, _ in dist(mdp.actions[ai]))
    }
    while True:
        comp_of = {}
        for ci, comp in enumerate(mutual_reach_classes(mdp, cur_states, cur_actions)):
            for s in comp:
                comp_of[s] = ci
        removed_actions = {
            ai
            for ai in cur_actions
            if any(comp_of[t] != comp_of[mdp.actions[ai].source] for t, _ in dist(mdp.actions[ai]))
        }
        next_actions = cur_actions - removed_actions
        has_action = {mdp.actions[ai].source for ai in next_actions}
        next_states = {s for s in cur_states if s in has_action}
        next_actions = {
            ai
            for ai in next_actions
            if all(t in next_states for t, _ in dist(mdp.actions[ai]))
        }
        if next_states == cur_states and next_actions == cur_actions:
            break
        cur_states, cur_actions = next_states, next_actions
    mecs = []
    for comp in mutual_reach_classes(mdp, cur_states, cur_actions):
        comp_set = set(comp)
        internal = [ai for ai in cur_actions if mdp.actions[ai].source in comp_set]
        if internal:
            mecs.append(
                (
                    tuple(mdp.states[s] for s in comp),
                    tuple(sorted(mdp.actions[ai].name for ai in internal)),
                )
            )
    mecs.sort(key=lambda ec: min(ec[0]))
    return mecs


def mutual_reach_classes(mdp, states, actions):
    """The SCCs, each in index order, of the graph on ``states`` whose edges
    go from each of ``actions`` (targets inside ``states``) to its targets:
    a state's class is the states it reaches that reach it back, searched
    among the states no earlier class took."""
    succ = {s: set() for s in states}
    pred = {s: set() for s in states}
    for ai in actions:
        a = mdp.actions[ai]
        for t, _ in dist(a):
            succ[a.source].add(t)
            pred[t].add(a.source)
    left = set(states)
    classes = []
    for s in sorted(states):
        if s in left:
            comp = sorted(_closure(s, succ, left) & _closure(s, pred, left))
            left.difference_update(comp)
            classes.append(comp)
    return classes


def _closure(s, edges, within):
    """The states of ``within`` reachable from ``s`` along ``edges``."""
    seen = {s}
    stack = [s]
    while stack:
        for t in edges[stack.pop()]:
            if t in within and t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def rescan_restrict(mdp, removed):
    """Remove states and the actions touching them, pruning by rescans."""
    gone = {state_at(mdp, s) for s in removed}
    keep_states = set(range(len(mdp))) - gone
    keep_actions = {
        ai
        for ai, a in enumerate(mdp.actions)
        if a.source in keep_states and all(t in keep_states for t, _ in dist(a))
    }
    while True:
        has_action = {mdp.actions[ai].source for ai in keep_actions}
        dead = keep_states - has_action
        if not dead:
            break
        keep_states -= dead
        keep_actions = {
            ai
            for ai in keep_actions
            if all(t in keep_states for t, _ in dist(mdp.actions[ai]))
        }
    if not keep_states:
        return None
    order = sorted(keep_states)
    remap = {old: new for new, old in enumerate(order)}
    actions = [
        MdpAction(a.name, remap[a.source], weights_of([(remap[t], p) for t, p in dist(a)]))
        for a in (mdp.actions[ai] for ai in sorted(keep_actions))
    ]
    init = remap.get(mdp.init) if mdp.init is not None else None
    return Mdp([mdp.states[i] for i in order], actions, init)


def rescan_attractor_policy(mdp, targets):
    """Attractor layers found by scanning every state once per layer."""
    target_set = set(targets)
    distance = {t: 0 for t in target_set}
    policy = {}
    frontier = set(target_set)
    while frontier:
        nxt = set()
        for si in range(len(mdp)):
            if si in distance:
                continue
            best = None
            for ai in mdp.act[si]:
                if any(t in frontier for t, _ in dist(mdp.actions[ai])):
                    best = ai
                    break
            if best is not None:
                distance[si] = 1 + min(
                    distance[t] for t, _ in dist(mdp.actions[best]) if t in distance
                )
                policy[si] = best
                nxt.add(si)
        frontier = nxt
    return policy


def ring_mdp(rng, n):
    """A ring of n states plus random chords, shaped like the models of the
    benchmark's LP workload (so strongly connected), with atoms a and b."""
    probs = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))
    actions = []
    for k in range(n):
        nxt = (k + 1) % n
        q = rng.choice(probs)
        actions.append(MdpAction(f"r{k}", k, weights_of(sorted(((nxt, q), (k, 1 - q))))))
        if rng.random() < 0.6:
            t = rng.choice([j for j in range(n) if j not in (k, nxt)])
            q = rng.choice(probs)
            actions.append(MdpAction(f"c{k}", k, weights_of(sorted(((t, q), (nxt, 1 - q))))))
    valuation = [frozenset(x for x in ("a", "b") if rng.random() < 0.5) for _ in range(n)]
    return Mdp([f"s{k}" for k in range(n)], actions, 0), valuation


def assert_flow_row_form(mdp, component, cond):
    """Every row of both flow systems is ``==``, or ``>=`` with rhs >= 0: no
    row is flipped and no slack column has coefficient +1, so no slack could
    start basic, and each row starts on its own artificial, the basis marker
    with no column that ``solve_lp`` begins from."""
    systems = build_lp(mdp, component, cond), build_lp(mdp, component, cond, margin=False)
    for system in systems:
        for _, rel, rhs, den in system.rows:
            assert den >= 1 and (rel == EQ or (rel == GEQ and rhs >= 0)), (rel, rhs, den)


def int_rows(rows):
    """Fraction rows ``(coeffs, rel, rhs)`` as ``solve_lp``'s rows ``(nums,
    rel, rhs, den)``, each over the lcm of its own denominators."""
    out = []
    for coeffs, rel, rhs in rows:
        values = [Fraction(c) for c in coeffs.values()] + [Fraction(rhs)]
        den = math.lcm(*(v.denominator for v in values))
        nums = {j: int(v * den) for j, v in zip(coeffs, values)}
        out.append((nums, rel, int(values[-1] * den), den))
    return out


def flow_system_lp(system):
    """A flow system as ``maximize_margin`` passes it to ``solve_lp``:
    (num_vars, rows, objective, start)."""
    t = system.num_flows * len(system.component.actions)
    return system.num_vars, system.rows, {t: 1} if system.num_vars > t else {}, system.start


def block_pivots(start):
    """A ``BlockStart`` as raw ``(row, column)`` pivots in the LP: each kept
    row of its crash on its basic column, last row first, at every offset.
    On a flow block that pivots the balance rows, whose policy columns form
    a nonsingular M-matrix up to sign, before the sum row, so no pivot cell
    is zero."""
    kept = list(enumerate(start.crash.rows))[::-1]
    return [(r0 + i, c0 + b) for r0, c0 in start.offsets for i, (b, *_) in kept if b is not None]


def start_outcome(num_vars, rows, objective, start):
    """Assert that ``solve_lp`` from the start basis ``start`` returns what
    the plain solve returns, and that its start path returns what the
    Fraction oracle finds from the same basis crashed by raw pivots
    (``block_pivots``); name what became of the start: "no start"; the
    status found from it; or "tied" when its optimum was not provably unique
    and the LP was solved again.

    Without an objective every feasible vertex is optimal, and the start's
    is kept: then only the status must be the plain solve's, and the values
    must meet every row exactly, read as Fractions, with the Fraction
    oracle's status.  That outcome is "start vertex"."""
    got = solve_lp(num_vars, rows, objective, start)
    plain = solve_lp(num_vars, rows, objective)
    if objective or got[0] != OPTIMAL:
        assert got == plain
    else:
        assert plain[0] == OPTIMAL
        assert fraction_solve_lp(num_vars, fraction_rows(rows), {})[0] == OPTIMAL
        _, values, den = got
        assert all(v >= 0 for v in values) and den >= 1
        x = [Fraction(v, den) for v in values]
        for coeffs, rel, rhs in fraction_rows(rows):
            lhs = sum(c * x[j] for j, c in coeffs.items())
            assert lhs == rhs if rel == EQ else lhs >= rhs, (coeffs, rel, rhs)
    if start is None:
        return "no start"
    want = fraction_solve_lp(num_vars, fraction_rows(rows), objective, start=block_pivots(start))
    first = simplex._solve(num_vars, rows, objective, start)
    if first is None:
        # A tied optimum: the oracle's, found from the start, has the plain
        # solve's value.
        _, values, den = plain
        assert want[0] == OPTIMAL
        assert want[2] == sum(Fraction(c * values[j], den) for j, c in objective.items())
        return "tied"
    assert as_fractions(first) == want[:2]
    return "start vertex" if first[0] == OPTIMAL and not objective else first[0]


def start_flow(mdp, component):
    """The flow that a bound-free system of the component keeps, found
    without the simplex: the stationary distribution pi of its start policy,
    the attractor toward its first state s0 over its actions (each state
    takes its first action, in the component's order, into the previous
    layer) plus s0's first action.  One Fraction per action column: pi(s)
    on the policy's action at s, and 0 elsewhere."""
    states, actions = component
    pos = {s: i for i, s in enumerate(states)}
    sub_actions = []
    for a in (mdp.actions[ai] for ai in actions):
        den, weights = a.weights
        sub_actions.append(MdpAction(a.name, pos[a.source], (den, tuple((pos[t], w) for t, w in weights))))
    sub = Mdp([mdp.states[s] for s in states], sub_actions, 0)
    policy = rescan_attractor_policy(sub, {0})
    policy[0] = sub.act[0][0]
    policy = [policy[s] for s in range(len(sub))]
    (bscc,) = chain_bsccs(sub, policy)
    pi = stationary_distribution(sub, policy, bscc)
    return tuple(
        pi.get(a.source, _ZERO) if policy[a.source] == j else _ZERO for j, a in enumerate(sub.actions)
    )


def as_fractions(result):
    """The integers of the LP path back as the Fractions that the oracles
    compute with.

    A ``solve_lp`` result ``(status, values, den)`` becomes ``(status,
    values)``, to compare with ``fraction_solve_lp(...)[:2]``.  An
    ``LpSolution`` becomes ``(flows, slack)``.  A ``Strategy`` becomes the
    same strategy with each mode class's ``weight`` its flow mass and its
    ``choices`` (action, probability) pairs, which ``StrategyRunner`` and
    ``stationary_distribution`` read."""
    if isinstance(result, LpSolution):
        den = result.den
        flows = tuple(tuple(Fraction(v, den) for v in flow) for flow in result.flows)
        return flows, Fraction(result.slack, den)
    if isinstance(result, Strategy):
        modes = tuple(
            tuple(
                ModeClass(
                    cls.states,
                    Fraction(cls.weight, sum(c.weight for c in mode)),
                    {
                        s: tuple((ai, Fraction(w, den)) for ai, w in pairs)
                        for s, (den, pairs) in cls.choices.items()
                    },
                    cls.entry_policy,
                )
                for cls in mode
            )
            for mode in result.modes
        )
        return Strategy(modes, result.pilgrimage, result.cond, result.component, result.mdp)
    status, values, den = result
    return status, None if values is None else [Fraction(v, den) for v in values]


PLANNED_EPOCHS = 102_400  # the default schedule's first three epochs


def capped(cap):
    """``epoch_length`` with every epoch cut to at most ``cap`` steps, so a
    short run crosses many epochs; from t = cap.bit_length() on, 32**t > cap
    and no power is built."""
    return lambda t: cap if t >= cap.bit_length() else min(epoch_length(t), cap)


def assert_witness_keeps_fraction_formulas(strategy, sol, epochs=8):
    """The witness built from ``sol`` draws and splits its epochs as the
    Fraction formulas that its integer weights replaced: at each mode state
    its compiled step record takes its one action without a draw, or draws
    from the ``draw_table`` of the probabilities ``v / mass`` over the
    Fraction flows, through ``weights_of``, and every step record carries
    its action's successor table.  In the first epochs of the default and
    two capped schedules each class's share is ``int(planned * mass /
    total)`` of its Fraction flow mass, and in those of at most
    ``PLANNED_EPOCHS`` steps ``epoch_blocks`` plays the classes in the
    blocks of ``fraction_epoch_plan``, consecutive blocks of one class taken
    as one.  Returns the number of modes with more than one class."""
    mdp, component = strategy.mdp, strategy.component
    flows, _ = as_fractions(sol)
    multi = 0
    for flow, mode, records in zip(flows, strategy.modes, strategy.steps[1]):
        enabled = {}
        for ai, v in zip(component.actions, flow):
            if v > 0:
                enabled.setdefault(mdp.actions[ai].source, []).append((ai, v))
        masses = []
        for cls, (_, compile) in zip(mode, records):
            masses.append(_ZERO)
            for s in cls.states:
                mass = sum(v for _, v in enabled[s])
                probabilities = [(ai, v / mass) for ai, v in enabled[s]]
                record = compile(s)
                if len(probabilities) == 1:
                    steps = [record]
                    assert record[0] == probabilities[0][0]
                else:
                    choice, values, thresholds = record
                    steps = values
                    table = (tuple(step[0] for step in values), thresholds)
                    assert choice is None
                    assert table == draw_table(weights_of(probabilities))
                for ai, *successors in steps:
                    assert tuple(successors) == draw_table(mdp.actions[ai].weights)
                masses[-1] += mass
        weights = [cls.weight for cls in mode]
        total, int_total = sum(masses), sum(weights)
        for schedule in (epoch_length, capped(1), capped(7)):
            for t in range(epochs):
                planned = schedule(t)
                want = [int(planned * mass / total) for mass in masses]
                assert [planned * w // int_total for w in weights] == want
                if planned <= PLANNED_EPOCHS:
                    plan = merged_blocks(fraction_epoch_plan(planned, tuple(masses)))
                    assert merged_blocks(epoch_blocks(planned, weights)) == plan
        multi += len(mode) > 1
    return multi


def fraction_rows(rows):
    """``solve_lp``'s integer rows back as Fraction rows ``(coeffs, rel, rhs)``,
    keys in their order."""
    return [
        ({j: Fraction(c, den) for j, c in nums.items()}, rel, Fraction(rhs, den))
        for nums, rel, rhs, den in rows
    ]


def hull_accepts(mdp, cond):
    """Whether the strongly connected MDP meets the condition with
    probability 1, decided without the flow LP.

    The vertices of the flow polytope are the stationary distributions of MD
    strategies on one bottom class (Derman 1970), so the component is
    accepted exactly when it meets every Inf set and, for each flow block
    (every inf bound and sup bound i), some convex combination of the
    MD-BSCC reward vectors meets the block's bounds, strictly where a bound
    is strict.  Each block is one margin LP over the combination weights,
    with the margin on the strict rows alone, solved by ``fraction_solve_lp``.
    """
    if any(not (set(inf) & set(range(len(mdp)))) for inf in cond.inf_sets):
        return False
    bounds = list(cond.mp_inf) + list(cond.mp_sup)
    vectors = set()
    for policy in enumerate_md_strategies(mdp):
        for bscc in chain_bsccs(mdp, policy):
            pi = stationary_distribution(mdp, policy, bscc)
            vectors.add(
                tuple(sum(pi[s] * reward_of(cond, b, s) for s in bscc) for b in bounds)
            )
    vectors = sorted(vectors)
    n = len(vectors)
    blocks = [list(range(len(cond.mp_inf)))]
    if cond.mp_sup:
        blocks = [blocks[0] + [len(cond.mp_inf) + i] for i in range(len(cond.mp_sup))]
    for block in blocks:
        strict = any(bounds[k].cmp == GT for k in block)
        rows = [({v: _ONE for v in range(n)}, EQ, _ONE)]
        for k in block:
            coeffs = {v: vec[k] for v, vec in enumerate(vectors) if vec[k]}
            if bounds[k].cmp == GT:
                coeffs[n] = -_ONE
            rows.append((coeffs, GEQ, bounds[k].bound))
        num_vars = n + 1 if strict else n
        status, values, _ = fraction_solve_lp(num_vars, rows, {n: _ONE} if strict else {})
        if status != OPTIMAL or (strict and values[n] == 0):
            return False
    return True


def fraction_solve_lp(num_vars, rows, objective, reenter=False, start=()):
    """Two-phase Bland simplex on a dense tableau of Fractions, with the same
    pivot rules as ``freqsynth.simplex.solve_lp`` and its results as
    Fractions, plus the objective value: (status, values, value).  It also
    takes ``LEQ`` rows and negative right-hand sides, which ``solve_lp``
    refuses, flipping such a row's sign.

    The tableau keeps one artificial column per row, but phase one prices
    only the real columns, so an artificial that leaves never re-enters.
    ``reenter=True`` prices the artificial columns too: the textbook rule,
    under which phase one ends only when no column of either kind prices
    positive.

    ``start`` lists raw ``(row, column)`` pivots that crash the artificial
    basis in order, as ``block_pivots`` reads a ``BlockStart``; then every
    ``GEQ`` row still on its artificial whose value reads negative moves
    onto its surplus column, as in ``solve_lp``.  A zero pivot cell or a
    basic value still negative raises ``SimplexError``.  The optimum found
    from the start is returned, tied or not."""
    n_slack = sum(1 for _, rel, _ in rows if rel in (LEQ, GEQ))
    total = num_vars + n_slack
    tableau = []
    surplus = []  # (row, its surplus column) per GEQ row
    slack_idx = num_vars
    for coeffs, rel, rhs in rows:
        row = [_ZERO] * (total + 1)
        for j, c in coeffs.items():
            if not 0 <= j < num_vars:
                raise SimplexError(f"variable index {j} out of range")
            row[j] = Fraction(c)
        rhs = Fraction(rhs)
        if rel == LEQ:
            row[slack_idx] = _ONE
            slack_idx += 1
        elif rel == GEQ:
            row[slack_idx] = -_ONE
            surplus.append((len(tableau), slack_idx))
            slack_idx += 1
        elif rel != EQ:
            raise SimplexError(f"unknown relation {rel!r}")
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        row[total] = rhs
        tableau.append(row)

    m = len(tableau)
    for i, row in enumerate(tableau):
        row[total:total] = [_ZERO] * m
        row[total + i] = _ONE
    basis = list(range(total, total + m))
    for r, c in start:
        if not (0 <= r < m and 0 <= c < total):
            raise SimplexError(f"start pivot {(r, c)} out of range")
        _fraction_pivot(tableau, basis, r, c)
    if start:
        for r, c in surplus:
            if basis[r] >= total and tableau[r][-1] < 0:
                _fraction_pivot(tableau, basis, r, c)
        if any(row[-1] < 0 for row in tableau):
            raise SimplexError("start basis is not feasible")
    cost = [_ZERO] * (total + m + 1)
    for j in range(total, total + m):
        cost[j] = -_ONE
    _fraction_reduce_cost(cost, tableau, basis)
    _fraction_iterate(tableau, basis, cost, total + m if reenter else total)
    if cost[-1] != 0:
        return INFEASIBLE, None, None
    for i in range(m):
        if basis[i] >= total:
            pivot_col = next((j for j in range(total) if tableau[i][j] != 0), None)
            if pivot_col is not None:
                _fraction_pivot(tableau, basis, i, pivot_col)

    tableau = [row[:total] + row[-1:] for row, b in zip(tableau, basis) if b < total]
    basis = [b for b in basis if b < total]
    cost = [_ZERO] * (total + 1)
    for j, c in objective.items():
        cost[j] = Fraction(c)
    _fraction_reduce_cost(cost, tableau, basis)
    status = _fraction_iterate(tableau, basis, cost, total)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    values = [_ZERO] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            values[b] = tableau[i][-1]
    return OPTIMAL, values, -cost[-1]


def _fraction_reduce_cost(cost, tableau, basis):
    for i, b in enumerate(basis):
        if cost[b] != 0:
            f = cost[b]
            row = tableau[i]
            for j in range(len(cost)):
                cost[j] -= f * row[j]


def _fraction_iterate(tableau, basis, cost, limit):
    """Bland's rule over the columns below ``limit``."""
    while True:
        entering = None
        for j in range(limit):
            if cost[j] > 0:
                entering = j
                break
        if entering is None:
            return OPTIMAL
        leaving = None
        best = None
        for i, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            return UNBOUNDED
        _fraction_pivot(tableau, basis, leaving, entering)
        f = cost[entering]
        if f != 0:
            row = tableau[leaving]
            for j in range(len(cost)):
                cost[j] -= f * row[j]


def _fraction_pivot(tableau, basis, r, c):
    row = tableau[r]
    piv = row[c]
    if piv == 0:
        raise SimplexError("zero pivot")
    inv = _ONE / piv
    tableau[r] = row = [v * inv if v else v for v in row]
    support = [j for j, v in enumerate(row) if v]
    for other in tableau:
        f = other[c]
        if f != 0 and other is not row:
            for j in support:
                other[j] -= f * row[j]
    basis[r] = c


def rescan_build_lp(mdp, cond):
    """The slack flow system of a strongly connected MDP built with one scan
    over every action distribution per state and flow; rows and keys in the
    order of ``build_lp(mdp, whole(mdp), cond, margin=False)``."""
    n_flows = cond.num_flows()
    n_actions = len(mdp.actions)
    strict_rows = any(b.cmp == GT for b in cond.mp_inf + cond.mp_sup)
    num_vars = n_flows * n_actions + (1 if strict_rows else 0)
    slack_var = n_flows * n_actions if strict_rows else None

    def reward_row(flow, bound):
        coeffs = {}
        for ai, action in enumerate(mdp.actions):
            r = reward_of(cond, bound, action.source)
            if r:
                coeffs[flow * n_actions + ai] = Fraction(r)
        if bound.cmp == GT:
            coeffs[slack_var] = Fraction(-1)
        return coeffs

    rows = []
    for i in range(n_flows):
        base = i * n_actions
        rows.append(({base + ai: _ONE for ai in range(n_actions)}, "==", _ONE))
        for si in range(len(mdp)):
            coeffs = {}
            for ai, action in enumerate(mdp.actions):
                p = _ZERO
                for t, prob in dist(action):
                    if t == si:
                        p += prob
                if action.source == si:
                    p -= 1
                if p:
                    coeffs[base + ai] = p
            rows.append((coeffs, "==", _ZERO))
        for bound in cond.mp_inf:
            rows.append((reward_row(i, bound), ">=", Fraction(bound.bound)))
        if cond.mp_sup:
            rows.append((reward_row(i, cond.mp_sup[i]), ">=", Fraction(cond.mp_sup[i].bound)))
    bounds = cond.restricted([a.source for a in mdp.actions])
    return LinearSystem(mdp, whole(mdp), cond, n_flows, num_vars, rows, bounds)


def _dense_evaluate_policy(mdp, policy, target):
    """Reach probabilities of an MD policy from one dense exact solve."""
    variables = sorted(can_reach(mdp, target, set(policy)) - target)
    pos = {s: i for i, s in enumerate(variables)}
    rows = []
    rhs = []
    for s in variables:
        row = [_ZERO] * len(variables)
        row[pos[s]] = _ONE
        b = _ZERO
        for t, p in dist(mdp.actions[policy[s]]):
            if t in target:
                b += p
            elif t in pos:
                row[pos[t]] -= p
        rows.append(row)
        rhs.append(b)
    solved = gauss_solve(rows, rhs) if variables else []
    values = [_ZERO] * len(mdp)
    for s in target:
        values[s] = _ONE
    for s, i in pos.items():
        values[s] = solved[i]
    return values


def dense_max_reach(mdp, target_names):
    """Maximal reachability as ``freqsynth.synthesis.max_reach`` computed it
    before the sparse engine: policy iteration over dense solves, then
    index-order rescans until every state has a selector action, then a
    full evaluation of the selector."""
    n = len(mdp)
    target = {state_at(mdp, s) for s in target_names}
    zero = set(range(n)) - can_reach(mdp, target, range(len(mdp.actions)))

    policy = [mdp.act[s][0] for s in range(n)]
    values = _dense_evaluate_policy(mdp, policy, target)
    for _ in range(64 + 4 * n * max(len(a) for a in mdp.act)):
        improved = False
        for s in range(n):
            if s in target or s in zero:
                continue
            best_val = values[s]
            best_ai = None
            for ai in mdp.act[s]:
                backup = sum(p * values[t] for t, p in dist(mdp.actions[ai]))
                if backup > best_val:
                    best_val = backup
                    best_ai = ai
            if best_ai is not None:
                policy[s] = best_ai
                improved = True
        if not improved:
            break
        values = _dense_evaluate_policy(mdp, policy, target)
    else:
        raise MdpError("policy iteration failed to converge")

    selector = list(policy)
    assigned = set(target) | zero
    while True:
        added = False
        for s in range(n):
            if s in assigned:
                continue
            for ai in mdp.act[s]:
                action = mdp.actions[ai]
                backup = sum(p * values[t] for t, p in dist(action))
                if backup == values[s] and any(
                    t in assigned and (t in target or values[t] > 0)
                    for t, _ in dist(action)
                ):
                    selector[s] = ai
                    assigned.add(s)
                    added = True
                    break
        if not added:
            break
    if len(assigned) != n:
        raise MdpError("failed to extract a proper optimal selector")
    if _dense_evaluate_policy(mdp, selector, target) != values:
        raise MdpError("extracted selector does not realize the optimal values")
    value_map = {mdp.states[s]: values[s] for s in range(n)}
    selector_map = {mdp.states[s]: mdp.actions[selector[s]].name for s in range(n)}
    return value_map, selector_map


def reach_by_name(mdp, values, selector):
    """``max_reach``'s values and selector, per state index, as maps from
    state names to values and to action names, in state order."""
    return (
        {mdp.states[s]: values[s] for s in range(len(mdp))},
        {mdp.states[s]: mdp.actions[ai].name for s, ai in enumerate(selector)},
    )


def named_max_reach(mdp, target_names):
    """``max_reach`` with its target and its result named, as
    ``dense_max_reach`` takes and returns them."""
    return reach_by_name(mdp, *max_reach(mdp, {state_at(mdp, s) for s in target_names}))


def ruin_mdp(n, p, reflecting):
    """Gambler's-ruin line shaped like the benchmark's reach workload: x0 is
    broke (absorbing, or bouncing to x1 when reflecting), x{n-1} is the goal,
    and each interior state bets timidly (+-1) or boldly (+-2), winning with
    probability p."""
    last = n - 1
    to = 1 if reflecting else 0
    actions = [MdpAction("bounce" if reflecting else "stay0", 0, (1, ((to, 1),)))]
    for k in range(1, last):
        actions.append(MdpAction(f"timid{k}", k, weights_of(((k + 1, p), (k - 1, 1 - p)))))
        bold = ((min(k + 2, last), p), (max(k - 2, 0), 1 - p))
        actions.append(MdpAction(f"bold{k}", k, weights_of(bold)))
    actions.append(MdpAction(f"stay{last}", last, (1, ((last, 1),))))
    return Mdp([f"x{k}" for k in range(n)], actions, n // 2)


def ruin_valuation(mdp):
    """Labels of a ``ruin_mdp`` line as in the benchmark: x0 is ``broke``
    and the last state is ``goal``."""
    last = len(mdp) - 1
    return [
        frozenset({"broke"} if k == 0 else {"goal"} if k == last else ())
        for k in range(len(mdp))
    ]


def model_text(mdp, valuation):
    """The model file of an MDP and its labels, which ``parse_mdp`` reads back
    to the same states, actions and distributions."""
    lines = ["mdp", "states " + " ".join(mdp.states), f"init {mdp.states[mdp.init]}"]
    lines += [
        f"label {name} {' '.join(sorted(atoms))}"
        for name, atoms in zip(mdp.states, valuation)
        if atoms
    ]
    for a in mdp.actions:
        entries = " , ".join(f"{mdp.states[t]} {p}" for t, p in dist(a))
        lines.append(f"action {mdp.states[a.source]} {a.name} : {entries}")
    return "\n".join(lines) + "\n"


def plain_parse_mdp(text):
    """Reference reader of a model whose lines other than its action lines
    are well formed.  Each ``TARGET PROB`` entry is checked in order with
    ``parse_mdp``'s message texts, and every probability is converted and
    every line summed afresh (no memo); the MDP is built by the public
    ``Mdp(...)``, which checks every distribution again."""
    states, init, labels, actions = [], None, {}, []
    for lineno, line in enumerate(text.splitlines(), start=1):
        head, _, rest = line.partition(" ")
        if head == "states":
            states = rest.split()
        elif head == "init":
            init = states.index(rest.strip())
        elif head == "label":
            name, *atoms = rest.split()
            labels[name] = frozenset(atoms)
        elif head == "action":
            source_and_name, _, entries = rest.partition(":")
            source, name = source_and_name.split()
            values = []
            for entry in entries.split(","):
                fields = entry.split()
                if len(fields) != 2:
                    raise MdpError(f"line {lineno}: expected 'TARGET PROB' entries")
                target, prob_text = fields
                if target not in states:
                    raise MdpError(f"line {lineno}: unknown state {target!r}")
                if any(states[t] == target for t, _ in values):
                    raise MdpError(f"line {lineno}: duplicate target {target!r}")
                try:
                    prob = rational_literal(prob_text)
                except ValueError:
                    raise MdpError(f"line {lineno}: bad probability {prob_text!r}") from None
                if prob == 0:
                    raise MdpError(f"line {lineno}: probability of {target!r} must be positive")
                values.append((states.index(target), prob))
            total = sum(p for _, p in values)
            if total != 1:
                raise MdpError(f"line {lineno}: distribution sums to {total}, not 1")
            actions.append(MdpAction(name, states.index(source), weights_of(values)))
    return Mdp(states, actions, init), [labels.get(s, frozenset()) for s in states]


def random_lasso(seed, max_stem, max_loop, ap):
    """Seed-deterministic random lasso with the given shape bounds."""
    if max_loop < 1:
        raise LassoError("max_loop must be at least 1")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    names = sorted(ap)
    stem_len = rng.randint(0, max_stem)
    loop_len = rng.randint(1, max_loop)

    def rand_letter():
        return frozenset(a for a in names if rng.random() < 0.5)

    return Lasso(
        [rand_letter() for _ in range(stem_len)],
        [rand_letter() for _ in range(loop_len)],
    )


def freq_on_lasso(w, xi):
    """Exact limit frequency of positions satisfying the formula."""
    return _Eval(w)._loop_freq(xi)


def rec_truth(w, rec):
    """The recurrent formulas eventually always satisfied on the word:
    F-members with GF truth, G-members with FG truth, frequency members
    holding outright."""
    out = set()
    for phi in rec:
        if phi.kind == EVENTUALLY:
            holds = models(w, always(phi))
        elif phi.kind == ALWAYS:
            holds = models(w, eventually(phi))
        elif phi.kind == FREQ:
            holds = models(w, phi)
        else:
            raise FormulaError(f"{phi} is not a recurrent-class formula")
        if holds:
            out.add(phi)
    return out


def shift(w, n):
    """The suffix word starting at position n, again as a lasso."""
    s, l = len(w.stem), len(w.loop)
    if n <= s:
        return Lasso(w.stem[n:], w.loop)
    k = (n - s) % l
    return Lasso((), w.loop[k:] + w.loop[:k])


def _fold(w, n):
    """The folded position (stem positions plus one loop copy) of letter n."""
    s = len(w.stem)
    return n if n < s else s + (n - s) % len(w.loop)


def models_at(w, phi, n):
    """Truth of the formula on the suffix starting at position n."""
    return _Eval(w).holds(phi, _fold(w, n))


def models_boolfn(w, f, n=0):
    """Truth of a Boolean function over non-Boolean formulas on a suffix."""
    ev = _Eval(w)
    pos = _fold(w, n)
    true_vars = frozenset(
        uid for uid in f.variables() if ev.holds(Formula.by_uid(uid), pos)
    )
    return f.holds_under(true_vars)


def letterwise_build_lts(
    init_payload, successor, atoms, cap, is_terminal=None, what="transition system"
):
    """Breadth-first LTS construction with ``successor(payload, letter)``
    called once per letter of each row; the initial state counts against
    the cap."""
    if cap < 1:
        raise StateCapExceeded(what, cap)
    alphabet = powerset_alphabet(atoms)
    states = [init_payload]
    index = {init_payload: 0}
    delta: list = [None]
    queue = deque([0])
    while queue:
        q = queue.popleft()
        payload = states[q]
        if is_terminal is not None and is_terminal(payload):
            continue
        row = []
        for letter in alphabet:
            nxt = successor(payload, letter)
            target = index.get(nxt)
            if target is None:
                if len(states) >= cap:
                    raise StateCapExceeded(what, cap)
                target = len(states)
                index[nxt] = target
                states.append(nxt)
                delta.append(None)
                queue.append(target)
            row.append(target)
        delta[q] = row
    return Lts(atoms, alphabet, states, 0, delta)


def _letterwise_token_lts(slave, cap):
    def successor(tokens, letter):
        li = slave.letter_index[letter]
        moved = {slave.delta[q][li] for q in tokens if slave.delta[q] is not None}
        moved.add(slave.init)
        return frozenset(moved)

    return letterwise_build_lts(
        frozenset([slave.init]), successor, slave.atoms, cap, what="token LTS"
    )


def _letterwise_count_lts(slave, cap):
    size = len(slave)

    def successor(counts, letter):
        li = slave.letter_index[letter]
        nxt = [0] * size
        for q, c in enumerate(counts):
            if c and slave.delta[q] is not None:
                nxt[slave.delta[q][li]] += c
        nxt[slave.init] += 1
        if max(nxt) > size:
            raise FormulaError("token count exceeded the slave size bound")
        return tuple(nxt)

    init = tuple(1 if q == slave.init else 0 for q in range(size))
    return letterwise_build_lts(init, successor, slave.atoms, cap, what="counting LTS")


def letterwise_build_dgrma(phi, ap=None, cap=100_000):
    """``build_dgrma`` with one successor call per (state, letter) in every
    automaton and the per-payload pair construction."""
    atoms = set(atoms_of(phi)) | set(ap or ())
    master = letterwise_build_lts(
        formula_to_boolfn(phi),
        lambda f, letter: step(unfold(f), letter),
        atoms,
        cap,
        what="master LTS",
    )
    rec = rec_set(phi)
    slaves = []
    components = []
    for rho in rec:
        slave = letterwise_build_lts(
            formula_to_boolfn(rho.children[0]),
            step,
            atoms,
            cap,
            is_terminal=lambda f: rank(f) == 0,
            what="slave LTS",
        )
        slaves.append(slave)
        if rho.kind == FREQ:
            components.append(_letterwise_count_lts(slave, cap))
        else:
            components.append(_letterwise_token_lts(slave, cap))
    parts = [master] + components

    def successor(payload, letter):
        li = master.letter_index[letter]
        return tuple(parts[i].delta[payload[i]][li] for i in range(len(parts)))

    lts = letterwise_build_lts(
        tuple(p.init for p in parts), successor, atoms, cap, what="product automaton"
    )
    columns = [list(column) for column in zip(*lts.states)]
    pairs = letterwise_build_pairs(columns, master, rec, slaves, components)
    return Dgrma(lts, master, rec, slaves, components, columns, pairs)


def letterwise_build_pairs(columns, master, rec, slaves, components):
    """Acceptance pairs, deciding the master part state by state (memoized
    per key) and lifting every set through each product state's column
    entry; ``columns[k][q]`` is product state ``q``'s state in part ``k``."""
    n = len(rec)
    size = len(columns[0])
    all_states = frozenset(range(size))
    token_conj_cache: dict = {}
    pairs = []
    for mask in range(1 << n):
        chosen = [i for i in range(n) if mask >> i & 1]
        assumed = tuple(rec[i] for i in chosen)
        dropped = [rec[i] for i in range(n) if not mask >> i & 1]
        base = bf_and_many(formula_to_boolfn(rho) for rho in assumed)
        g_members = [i for i in chosen if rec[i].kind == ALWAYS]

        def token_conj(i, comp_state):
            key = (mask, i, comp_state)
            got = token_conj_cache.get(key)
            if got is None:
                tokens = components[i].states[comp_state]
                got = bf_and_many(
                    substitute_ff(slaves[i].states[q], dropped) for q in sorted(tokens)
                )
                token_conj_cache[key] = got
            return got

        fin = set()
        proved_cache: dict = {}
        key_columns = [columns[0]] + [columns[i + 1] for i in g_members]
        for q in range(size):
            key = tuple(column[q] for column in key_columns)
            proved = proved_cache.get(key)
            if proved is None:
                conj = base
                for i in g_members:
                    conj = bf_and(conj, token_conj(i, columns[i + 1][q]))
                goal = master.states[columns[0][q]]
                proved = all(goal.holds_under(m) for m in conj.models)
                proved_cache[key] = proved
            if not proved:
                fin.add(q)

        infs = []
        bounds: dict = {"inf": [], "sup": []}
        degenerate = False
        for i in chosen:
            rho = rec[i]
            column = columns[i + 1]
            if rho.kind == EVENTUALLY:
                good = buchi_accepting_sets(slaves[i], components[i], base)
                lifted = frozenset(q for q, s in enumerate(column) if s in good)
                if not lifted:
                    degenerate = True
                    break
                infs.append(lifted)
            elif rho.kind == ALWAYS:
                bad = cobuchi_rejecting_sets(slaves[i], components[i], base)
                fin.update(q for q, s in enumerate(column) if s in bad)
            else:
                rewards = mp_reward(slaves[i], components[i], base)
                cmp, p, ext = rho.bound
                bounds[ext].append(MpBound(cmp, p, tuple(rewards[s] for s in column)))
        if degenerate or frozenset(fin) == all_states:
            continue
        cond = GbmpCondition(tuple(infs), tuple(bounds["inf"]), tuple(bounds["sup"]))
        pairs.append(written_out_pair(size, assumed, fin, cond))
    return pairs


def written_out_pair(n, assumed, fin, cond):
    """A pair whose Fin set and condition's sets and reward tuples are
    written out over ``n`` automaton states, each viewed through the
    identity column so that the pipeline reads it as it reads
    ``build_dgrma``'s pairs."""
    ids = range(n)

    def view(bounds):
        return tuple(MpBound(b.cmp, b.bound, ColumnMap(ids, b.reward)) for b in bounds)

    return GrmpPair(
        assumed,
        ColumnSet(ids, frozenset(fin)),
        GbmpCondition(
            tuple(ColumnSet(ids, s) for s in cond.inf_sets),
            view(cond.mp_inf),
            view(cond.mp_sup),
        ),
    )


def proves(assumptions, goal) -> bool:
    """Propositional entailment over non-Boolean formulas.

    ``assumptions`` may mix Formula and BoolFn values; the conjunction of all
    of them must entail ``goal`` under every assignment, which for monotone
    functions reduces to checking the minimal models of the conjunction.
    """
    conj = bf_and_many(_as_boolfn(a) for a in assumptions)
    g = _as_boolfn(goal)
    return all(g.holds_under(m) for m in conj.models)


def _as_boolfn(x) -> BoolFn:
    return x if isinstance(x, BoolFn) else formula_to_boolfn(x)


def scan_lift_pair(pair, product, automaton_component):
    """``lift_pair`` that lifts every set and reward by scanning each
    product state's automaton component: the Fin set, the Inf sets and,
    per inf then sup bound, each product state's reward."""
    states = range(len(product))
    fin = frozenset(p for p in states if automaton_component[p] in pair.fin)
    infs = tuple(
        frozenset(p for p in states if automaton_component[p] in s)
        for s in pair.cond.inf_sets
    )
    rewards = tuple(
        tuple(b.reward[automaton_component[p]] for p in states)
        for b in pair.cond.mp_inf + pair.cond.mp_sup
    )
    return fin, infs, rewards


class FixedDraw:
    """An rng whose ``random()`` always returns one chosen float ``u``, and
    counts its calls; it raises ``ValueError`` when ``u`` is outside [0, 1),
    where no ``random()`` lands.  ``getrandbits(k)`` counts as the ``k //
    64`` draws that ``mdp.skip_draws`` skips with it, and raises unless
    ``k`` is a multiple of 64."""

    def __init__(self, u):
        self.u = u
        self.calls = 0

    def random(self):
        if not 0.0 <= self.u < 1.0:
            raise ValueError(f"FixedDraw value {self.u!r} is outside [0, 1)")
        self.calls += 1
        return self.u

    def getrandbits(self, k):
        if k % 64:
            raise ValueError(f"FixedDraw reads {k} bits, not a whole number of draws")
        self.calls += k // 64
        return 0


def int_draw_table(weights: tuple) -> tuple:
    """The integer sampling table of ``(den, ((value, w), ...))`` weights:
    the values, the last one repeated as the fallback, and the ceilings
    ``ceil(cum * 2**53 / den)`` of the cumulative weights ``cum``.  A draw
    ``k / 2**53`` lies below ``cum / den`` exactly when ``k`` is below the
    ceiling."""
    den, pairs = weights
    thresholds = []
    cum = 0
    for _, w in pairs:
        cum += w
        thresholds.append(-((-cum << 53) // den))
    values = tuple(v for v, _ in pairs)
    return values + values[-1:], tuple(thresholds)


def edge_draws(tables, offsets=(-1, 0)) -> list:
    """The draws ``(k + d) / 2**53`` next to every threshold ``k`` of the
    given ``int_draw_table``s, for each offset ``d``, that lie in [0, 1):
    by default ``(k - 1) / 2**53``, the largest draw below the threshold,
    and ``k / 2**53``, the least at or above it.  A float threshold, as
    ``freqsynth.mdp.draw_table`` stores, raises ``TypeError``."""
    edges = {k + d for _, thresholds in tables for k in thresholds for d in offsets}
    if not all(isinstance(k, int) for k in edges):
        raise TypeError("edge_draws reads integer thresholds (int_draw_table)")
    return sorted(k / 2**53 for k in edges if 0 <= k < 2**53)


def draw(table: tuple, rng) -> object:
    """One value from an ``int_draw_table``, with one ``rng.random()``: the
    first whose cumulative probability exceeds the draw, compared exactly."""
    values, thresholds = table
    return values[bisect_right(thresholds, int(rng.random() * 2.0**53))]


def assert_dyadic_draws_match(table, weights, rng, seeded=20):
    """``table``, a ``freqsynth.mdp.draw_table`` of ``weights`` or a compiled
    record's ``(values, thresholds)``, draws as the walks draw from it,
    ``values[bisect_right(thresholds, u)]``, the value that ``draw`` picks
    from ``int_draw_table(weights)``: at ``(T - 1) / 2**53``, ``T / 2**53``
    and ``(T + 1) / 2**53`` for each integer threshold ``T``, and at
    ``seeded`` draws of ``rng``.  Returns the number of draws checked."""
    values, thresholds = table
    oracle = int_draw_table(weights)
    assert values == oracle[0]
    draws = edge_draws([oracle], (-1, 0, 1)) + [rng.random() for _ in range(seeded)]
    for u in draws:
        assert values[bisect_right(thresholds, u)] == draw(oracle, FixedDraw(u)), (weights, u)
    return len(draws)


@cache
def fraction_epoch_plan(planned, masses):
    """One epoch of ``planned`` steps as (class index, steps) blocks, from
    the classes' Fraction flow masses: class j's share is ``int(planned *
    m_j / M)`` of the total mass M, and the first class takes what rounding
    leaves.  Round r = 1, 2, ... plays each class whose share is not used up
    for ``floor(R_r * m_j / M) - floor(R_(r-1) * m_j / M)`` steps, cut at
    what is left of its share, where ``R_r = r (r + 1) / 2``; a block of 0
    steps is left out.  A single class's blocks are consecutive, so they
    play as its whole share in one.  ``masses`` is a tuple, and each plan
    is kept: a capped runner plans the same short epochs over and over."""
    total = sum(masses)
    left = [int(planned * Fraction(m) / total) for m in masses]
    left[0] += planned - sum(left)
    blocks = []
    r = 0
    while any(left):
        r += 1
        for j, m in enumerate(masses):
            due = math.floor(Fraction(r * (r + 1), 2) * m / total) - math.floor(
                Fraction(r * (r - 1), 2) * m / total
            )
            steps = min(due, left[j])
            if steps > 0:
                left[j] -= steps
                blocks.append((j, steps))
    return tuple(blocks)


def merged_blocks(blocks):
    """``blocks`` with each run of consecutive blocks of one class joined."""
    merged = []
    for j, steps in blocks:
        if merged and merged[-1][0] == j:
            merged[-1] = (j, merged[-1][1] + steps)
        else:
            merged.append((j, steps))
    return merged


def fraction_sample(pairs, rng):
    """Draw a value from (value, Fraction probability) pairs with one random
    number, comparing each exact cumulative sum with the float draw."""
    u = rng.random()
    acc = _ZERO
    for value, p in pairs:
        acc += p
        if u < acc:
            return value
    return pairs[-1][0]


class StrategyRunner:
    """Mutable cursor executing a witness strategy under an epoch schedule."""

    def __init__(self, strategy, schedule, rng):
        self.strategy = strategy
        self.schedule = schedule
        self.rng = rng
        self.epoch = -1
        self.plan: list = []  # remaining (kind, payload) tasks of this epoch

    def begin_epoch(self):
        self.epoch += 1
        planned = self.schedule(self.epoch)
        mode = self.strategy.modes[self.epoch % len(self.strategy.modes)]
        self.plan = [("visit", i) for i in range(len(self.strategy.pilgrimage))]
        for j, share in fraction_epoch_plan(planned, tuple(c.weight for c in mode)):
            self.plan.append(("play", (mode[j], share)))

    def next_action(self, state: int) -> int:
        """Pick the action at the current state; advances internal phase."""
        while True:
            if not self.plan:
                self.begin_epoch()
                continue
            kind, payload = self.plan[0]
            if kind == "visit":
                target, policy = self.strategy.pilgrimage[payload]
                if state == target:
                    self.plan.pop(0)
                    continue
                return policy[state]
            cls, share = payload
            if share <= 0:
                self.plan.pop(0)
                continue
            self.plan[0] = (kind, (cls, share - 1))
            if state not in cls.states:
                return cls.entry_policy[state]
            choices = cls.choices[state]
            if len(choices) == 1:
                return choices[0][0]
            return fraction_sample(choices, self.rng)


def named_simulate_global(product, strategy, episodes, steps_per_episode, seed, schedule):
    """``simulate_global`` stepping the product one state at a time: every
    step looks the state up in ``state_to_winner``, reads each reward as a
    ``Fraction``, draws the successor with ``fraction_sample``, runs each
    winner's ``as_fractions`` form with ``StrategyRunner``, and the pooled
    sums are keyed by (winner, bound)."""
    rng = random.Random(seed)
    entered = 0
    pooled_sums: dict = {}
    pooled_steps: dict = {}
    for _ in range(episodes):
        state = product.init
        runner = None
        winner_idx = None
        for _ in range(steps_per_episode):
            name = product.states[state]
            if runner is None and state in strategy.state_to_winner:
                winner_idx = strategy.state_to_winner[state]
                runner = StrategyRunner(as_fractions(strategy.winners[winner_idx]), schedule, rng)
                entered += 1
            if runner is None:
                action = product.actions[strategy.reach[state]]
            else:
                winner = strategy.winners[winner_idx]
                cond = winner.cond
                for bi, bound in enumerate(list(cond.mp_inf) + list(cond.mp_sup)):
                    key = (winner_idx, bi)
                    pooled_sums[key] = pooled_sums.get(key, 0.0) + float(
                        reward_of(cond, bound, state)
                    )
                    pooled_steps[key] = pooled_steps.get(key, 0) + 1
                action = winner.mdp.actions[runner.next_action(state)]
            state = fraction_sample(dist(action), rng)

    mp_pooled = []
    for (w_idx, bi), total in sorted(pooled_sums.items()):
        cond = strategy.winners[w_idx].cond
        bounds = list(cond.mp_inf) + list(cond.mp_sup)
        kind = "inf" if bi < len(cond.mp_inf) else "sup"
        bound = bounds[bi]
        label = f"{kind}:{bound.cmp}{bound.bound}"
        mp_pooled.append((w_idx, label, total / pooled_steps[(w_idx, bi)]))
    return GlobalSimulation(episodes, steps_per_episode, seed, entered, mp_pooled)


def witness_walk(
    strategy: Strategy, schedule: Callable[[int], int], rng: random.Random, state: int
) -> Iterator[tuple]:
    """Run the witness from ``state`` forever, yielding (epoch, state, action
    index) per step; states and actions are those of ``strategy.mdp``, and
    ``state`` is in the strategy's component.

    Epoch t walks to each pilgrimage target in turn, then plays the classes
    of mode ``t % len(modes)`` in the ``epoch_blocks`` of
    ``schedule(t)`` steps; a block's steps outside its class follow
    the class's entry policy.  Each step reads one of ``strategy.steps``'
    records and draws from it inline: one ``random()`` for a randomized
    choice, then one for the successor, which is drawn before the step is
    yielded, so a caller that stops after n steps has used exactly n steps'
    draws.
    """
    random = rng.random
    pilgrimage, mode_steps = strategy.steps
    for epoch in count():
        k = epoch % len(mode_steps)
        weights = [c.weight for c in strategy.modes[k]]
        for target, (records, compile) in pilgrimage:
            while state != target:
                record = records[state]
                if record is None:
                    record = records[state] = compile(state)
                ai, values, thresholds = record
                at, state = state, values[bisect_right(thresholds, random())]
                yield epoch, at, ai
        for j, steps in epoch_blocks(schedule(epoch), weights):
            records, compile = mode_steps[k][j]
            for _ in range(steps):
                record = records[state]
                if record is None:
                    record = records[state] = compile(state)
                if record[0] is None:
                    _, values, thresholds = record
                    record = values[bisect_right(thresholds, random())]
                ai, values, thresholds = record
                at, state = state, values[bisect_right(thresholds, random())]
                yield epoch, at, ai


@dataclass
class SimulationStats:
    """Seed-deterministic statistics of one witness simulation."""

    steps: int
    seed: int
    action_counts: dict
    epochs: int
    epoch_steps: list  # steps actually spent in each epoch
    inf_visits_per_epoch: list  # one list per Inf set: visits in each epoch
    mp_final: list  # (label, final average)
    mp_max_prefix: list  # (label, max prefix average), for sup bounds
    mp_min_late: list  # (label, min prefix average over the final 80%)

    def to_text(self) -> str:
        lines = [f"steps: {self.steps}", f"seed: {self.seed}", f"epochs: {self.epochs}"]
        lines.append("epoch_steps: " + ",".join(str(v) for v in self.epoch_steps))
        for k, visits in enumerate(self.inf_visits_per_epoch):
            lines.append(
                f"inf_set_{k}_visits_per_epoch: "
                + ",".join(str(v) for v in visits)
            )
        for label, value in self.mp_final:
            lines.append(f"avg[{label}]: {value:.6f}")
        for label, value in self.mp_max_prefix:
            lines.append(f"max_prefix_avg[{label}]: {value:.6f}")
        for label, value in self.mp_min_late:
            lines.append(f"min_late_avg[{label}]: {value:.6f}")
        for name in sorted(self.action_counts):
            lines.append(f"action[{name}]: {self.action_counts[name]}")
        return "\n".join(lines) + "\n"


def simulate_strategy(
    strategy: Strategy,
    steps: int,
    seed: int,
) -> SimulationStats:
    """Run the witness for the given number of steps from a fixed seed,
    from the first state of its component.

    The steps are collected once, and the statistics are taken with C-level
    builtins.  Each running sum is added in step order, as a per-step loop
    adds it, so every average is that loop's float."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    cond, mdp, states = strategy.cond, strategy.mdp, strategy.component.states
    walk = witness_walk(strategy, epoch_length, random.Random(seed), states[0])
    walk = list(islice(walk, steps))
    epochs, visited, taken = (list(map(itemgetter(k), walk)) for k in range(3))
    epoch_counts = Counter(epochs)  # epochs run 0, 1, ... in order, none empty
    visits = []
    for inf_set in cond.inf_sets:
        inside = set(inf_set).intersection(states).__contains__
        hits = Counter(compress(epochs, map(inside, visited)))
        visits.append([hits[epoch] for epoch in epoch_counts])
    late_from = int(0.2 * steps)
    mp_final, mp_max_prefix, mp_min_late = [], [], []
    for kind, bounds in (("inf", cond.mp_inf), ("sup", cond.mp_sup)):
        for i, b in enumerate(bounds):
            label = f"{kind}{i}:{b.cmp}{b.bound}"
            vec = {s: float(reward_of(cond, b, s)) for s in states}
            sums = list(accumulate(map(vec.__getitem__, visited)))
            mp_final.append((label, sums[-1] / steps))
            if kind == "sup":
                mp_max_prefix.append((label, max(map(truediv, sums, count(1)))))
            else:
                late = map(truediv, sums[late_from:], count(late_from + 1))
                mp_min_late.append((label, min(late)))
    names = [action.name for action in mdp.actions]
    return SimulationStats(
        steps=steps,
        seed=seed,
        action_counts=dict(Counter(map(names.__getitem__, taken))),
        epochs=len(epoch_counts),
        epoch_steps=list(epoch_counts.values()),
        inf_visits_per_epoch=visits,
        mp_final=mp_final,
        mp_max_prefix=mp_max_prefix,
        mp_min_late=mp_min_late,
    )


class Hung(Exception):
    """Not an OSError or ValueError, so cli.main cannot turn it into exit 2."""


@contextmanager
def time_limit(seconds: int):
    """Raise ``Hung`` in the block once it has run for ``seconds``, so a
    call that loops forever fails its test instead of the suite."""

    def hung(signum, frame):
        raise Hung(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
