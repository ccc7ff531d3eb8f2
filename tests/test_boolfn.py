import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from freqsynth.boolfn import (
    FALSE,
    TRUE,
    bf_and,
    bf_or,
    formula_to_boolfn,
    rank,
    step,
    substitute_ff,
    unfold,
    var,
)
from freqsynth.formula import atom, eventually, always, parse_formula
from freqsynth.lasso import models

from helpers import models_boolfn, proves, random_fragment_formula, random_lasso


# A tiny expression language over 6 opaque variables, used to compare the
# antichain canonical form against plain truth tables.
def _eval_expr(expr, assignment):
    op = expr[0]
    if op == "var":
        return expr[1] in assignment
    if op == "and":
        return _eval_expr(expr[1], assignment) and _eval_expr(expr[2], assignment)
    return _eval_expr(expr[1], assignment) or _eval_expr(expr[2], assignment)


def _to_boolfn(expr, variables):
    op = expr[0]
    if op == "var":
        return var(variables[expr[1]])
    left = _to_boolfn(expr[1], variables)
    right = _to_boolfn(expr[2], variables)
    return bf_and(left, right) if op == "and" else bf_or(left, right)


# Bounded by leaf count: unbounded, two subexpressions per branch draw huge
# expressions whose canonical forms would dominate the run time.
_exprs = st.recursive(
    st.tuples(st.just("var"), st.integers(0, 5)),
    lambda sub: st.tuples(st.sampled_from(["and", "or"]), sub, sub),
    max_leaves=32,
)


@settings(max_examples=300, deadline=None)
@given(_exprs, _exprs)
def test_canonicalization_matches_truth_tables(e1, e2):
    variables = [atom(f"v{i}") for i in range(6)]
    f1, f2 = _to_boolfn(e1, variables), _to_boolfn(e2, variables)
    tables_equal = all(
        _eval_expr(e1, {i for i in range(6) if mask >> i & 1})
        == _eval_expr(e2, {i for i in range(6) if mask >> i & 1})
        for mask in range(64)
    )
    assert (f1 == f2) == tables_equal


@settings(max_examples=200, deadline=None)
@given(_exprs, st.integers(0, 63))
def test_holds_under_matches_direct_evaluation(expr, mask):
    variables = [atom(f"v{i}") for i in range(6)]
    f = _to_boolfn(expr, variables)
    assignment = {i for i in range(6) if mask >> i & 1}
    uids = frozenset(variables[i].uid for i in assignment)
    assert f.holds_under(uids) == _eval_expr(expr, assignment)


@settings(max_examples=300, deadline=None)
@given(_exprs, _exprs)
def test_implies_matches_brute_force_entailment(e1, e2):
    variables = [atom(f"v{i}") for i in range(6)]
    f, g = _to_boolfn(e1, variables), _to_boolfn(e2, variables)
    read = f.variables() | g.variables()
    free = [i for i in range(6) if variables[i].uid in read]
    assignments = (
        {i for k, i in enumerate(free) if mask >> k & 1}
        for mask in range(1 << len(free))
    )
    entailed = all(not _eval_expr(e1, a) or _eval_expr(e2, a) for a in assignments)
    assert f.implies(g) == entailed


def test_antichain_invariant():
    rng = random.Random(3)
    variables = [atom(f"v{i}") for i in range(6)]
    for _ in range(200):
        f = var(variables[0])
        for _ in range(6):
            g = var(variables[rng.randrange(6)])
            f = bf_and(f, g) if rng.random() < 0.5 else bf_or(f, g)
        for m in f.models:
            assert not any(other < m for other in f.models)


def test_proves_paper_examples():
    gfa = parse_formula("G F a")
    gb = parse_formula("G b")
    assert proves([gfa], bf_or(var(gfa), var(gb)))
    assert not proves([gfa], var(parse_formula("F a")))
    assert proves([], TRUE)
    assert not proves([], FALSE)


def test_proves_monotone_in_assumptions():
    rng = random.Random(17)
    pool = [random_fragment_formula(rng, rng.randint(1, 4), ["a", "b"]) for _ in range(8)]
    goals = [formula_to_boolfn(random_fragment_formula(rng, rng.randint(1, 4), ["a", "b"])) for _ in range(20)]
    for _ in range(200):
        base = rng.sample(pool, rng.randint(0, 3))
        extra = base + rng.sample(pool, rng.randint(0, 3))
        goal = rng.choice(goals)
        if proves(base, goal):
            assert proves(extra, goal)
    for phi in pool:
        assert proves([phi], formula_to_boolfn(phi))


def test_substitute_ff():
    a = atom("a")
    fa = eventually(a)
    expr = bf_or(var(a), var(fa))
    assert substitute_ff(expr, [a]) == var(fa)
    assert substitute_ff(TRUE, [a]) == TRUE
    assert substitute_ff(bf_and(var(a), var(atom("b"))), [a]) == FALSE


def test_unfold_rules():
    assert str(unfold(parse_formula("F a"))) == "a | (X F a)"
    assert str(unfold(parse_formula("G{>=1/2,inf} a"))) == "(X G{>=1/2,inf} a)"
    assert str(unfold(parse_formula("b U a"))) == "a | (b & (X (b U a)))"
    ga = parse_formula("G a")
    assert unfold(ga) == bf_and(var(atom("a")), var(parse_formula("X G a")))


def test_step_rules():
    u = unfold(parse_formula("b U a"))
    assert step(u, frozenset("b")) == formula_to_boolfn(parse_formula("b U a"))
    assert step(formula_to_boolfn(atom("a")), frozenset("a")) == TRUE
    assert step(formula_to_boolfn(parse_formula("!a")), frozenset("a")) == FALSE
    assert step(var(parse_formula("X a")), frozenset()) == formula_to_boolfn(atom("a"))


def test_step_and_unfold_distribute():
    rng = random.Random(23)
    for _ in range(150):
        f = formula_to_boolfn(random_fragment_formula(rng, rng.randint(1, 5), ["a", "b"]))
        g = formula_to_boolfn(random_fragment_formula(rng, rng.randint(1, 5), ["a", "b"]))
        letter = frozenset(x for x in ["a", "b"] if rng.random() < 0.5)
        assert step(bf_and(f, g), letter) == bf_and(step(f, letter), step(g, letter))
        assert step(bf_or(f, g), letter) == bf_or(step(f, letter), step(g, letter))
        assert unfold(bf_and(f, g)) == bf_and(unfold(f), unfold(g))


def test_unfolding_preserves_and_reflects_satisfaction():
    # One-step expansion then one letter agrees with the original formula.
    rng = random.Random(29)
    for _ in range(300):
        phi = random_fragment_formula(rng, rng.randint(1, 8), ["a", "b"])
        w = random_lasso(rng, 4, 4, ["a", "b"])
        stepped = step(unfold(phi), w.letter(0))
        assert models(w, phi) == models_boolfn(w, stepped, 1)


def test_rank_zero_iff_letter_fixed():
    rng = random.Random(37)
    letters = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
    for _ in range(200):
        f = formula_to_boolfn(random_fragment_formula(rng, rng.randint(1, 6), ["a", "b"]))
        fixed = all(step(f, l) == f for l in letters)
        assert fixed == (rank(f) == 0)
