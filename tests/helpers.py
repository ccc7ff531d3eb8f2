"""Shared test utilities: seeded generators and independent oracles.

The oracles here (Markov-chain BSCC classification, deterministic-memoryless
strategy enumeration with exact stationary distributions) deliberately avoid
the package's LP/MEC analysis path so cross-validation is meaningful.  The
one exception, ``decide_then_maximize_margin``, is a differential oracle: it
keeps the earlier two-LP witness rule that the single-LP decision replaced.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from freqsynth.formula import (
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
    until,
)
from freqsynth.lts import StateCapExceeded
from freqsynth.dgrma import build_dgrma
from freqsynth.mdp import Mdp, MdpAction, mec_decomposition
from freqsynth.mecanalysis import LpSolution, build_lp, lp_feasible
from freqsynth.simplex import OPTIMAL, solve_lp

_ONE = Fraction(1)
_ZERO = Fraction(0)


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


def random_ufree_formula(rng, size, atoms):
    return random_fragment_formula(rng, size, atoms, under_g=True)


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


def random_mdp(rng, max_states, max_actions):
    n = rng.randint(1, max_states)
    actions = []
    for s in range(n):
        for k in range(rng.randint(1, max_actions)):
            n_targets = rng.randint(1, min(3, n))
            targets = sorted(rng.sample(range(n), n_targets))
            actions.append(MdpAction(f"a{s}_{k}", s, random_distribution(rng, targets)))
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
        actions.append(MdpAction(f"c{s}", s, random_distribution(rng, targets)))
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
        sorted({t for t, _ in mdp.actions[policy[s]].dist}) for s in range(n)
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
    """Exact stationary distribution of the policy chain on one bottom SCC."""
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
            for t, p in mdp.actions[policy[src]].dist:
                if t == s:
                    row[i] += p
        rows.append(row)
        rhs.append(_ZERO)
    solved = gauss_solve(rows, rhs)
    return {s: solved[pos[s]] for s in bscc}


def md_strategy_satisfies(mdp, policy, cond):
    """Positive-probability satisfaction of the condition by an MD strategy:
    some bottom class meets every conjunct (limits exist there and equal the
    stationary average)."""
    for bscc in chain_bsccs(mdp, policy):
        names = {mdp.states[s] for s in bscc}
        if any(not (set(inf) & names) for inf in cond.inf_sets):
            continue
        pi = stationary_distribution(mdp, policy, bscc)
        ok = True
        for bound in list(cond.mp_inf) + list(cond.mp_sup):
            value = sum(pi[s] * bound.reward[mdp.states[s]] for s in bscc)
            if not bound.check(value):
                ok = False
                break
        if ok:
            return True
    return False


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
        names = {product.states[s] for s in bscc}
        pi = stationary_distribution(product, policy, bscc)
        good = False
        for fin, cond in lifted_pairs:
            if set(fin) & names:
                continue
            if any(not (set(inf) & names) for inf in cond.inf_sets):
                continue
            ok = True
            for bound in list(cond.mp_inf) + list(cond.mp_sup):
                value = sum(pi[s] * bound.reward[product.states[s]] for s in bscc)
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
        for t, p in product.actions[policy[s]].dist:
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


def decide_then_maximize_margin(mdp, cond):
    """The earlier witness rule as (accepted, witness): the slack LP decides,
    then a second LP maximizing one margin shared by every mean-payoff row
    replaces the witness when it is optimal and its margin meets strictness."""
    names = set(mdp.states)
    if any(not (set(inf) & names) for inf in cond.inf_sets):
        return False, None
    system = build_lp(mdp, cond)
    sol = lp_feasible(system)
    if sol is None:
        return False, None
    n_actions = len(mdp.actions)
    margin_var = system.num_flows * n_actions
    rows = []
    for coeffs, rel, rhs in system.rows:
        coeffs = {j: c for j, c in coeffs.items() if j != system.slack_var}
        if rel == ">=":
            coeffs[margin_var] = -_ONE
        rows.append((coeffs, rel, rhs))
    status, values, _ = solve_lp(margin_var + 1, rows, {margin_var: _ONE})
    if status != OPTIMAL or (system.strict and values[margin_var] <= 0):
        return True, sol
    x = {
        (i, a.name): values[i * n_actions + ai]
        for i in range(system.num_flows)
        for ai, a in enumerate(mdp.actions)
        if values[i * n_actions + ai]
    }
    return True, LpSolution(x, values[margin_var])
