import functools
import importlib.util
import random
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

import helpers
from freqsynth import mecanalysis, simplex
from freqsynth.formula import parse_formula, parse_rational
from freqsynth.mdp import parse_mdp
from freqsynth.mecanalysis import GbmpCondition, MpBound, accepting_mec, build_lp
from freqsynth.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from freqsynth.synthesis import synthesize
from helpers import (
    assert_flow_row_form,
    fraction_rows,
    fraction_solve_lp,
    int_rows,
    margin_rewrite,
    rescan_build_lp,
    ring_mdp,
)


def test_basic_maximization():
    status, x, value = solve_lp(
        2,
        int_rows([({0: Fr(1), 1: Fr(2)}, "<=", Fr(4)), ({0: Fr(1)}, "<=", Fr(3))]),
        {0: Fr(1), 1: Fr(1)},
    )
    assert status == OPTIMAL
    assert value == Fr(7, 2)
    assert x == [Fr(3), Fr(1, 2)]


def test_infeasible_and_unbounded():
    status, _, _ = solve_lp(
        1, int_rows([({0: Fr(1)}, ">=", Fr(2)), ({0: Fr(1)}, "<=", Fr(1))]), {0: Fr(1)}
    )
    assert status == INFEASIBLE
    status, _, _ = solve_lp(1, int_rows([({0: Fr(1)}, ">=", Fr(1))]), {0: Fr(1)})
    assert status == UNBOUNDED


def test_equalities_and_minimization():
    # Minimizing x0 + x1 is maximizing its negation.
    status, x, value = solve_lp(
        2,
        int_rows(
            [
                ({0: Fr(1), 1: Fr(1)}, "==", Fr(3)),
                ({0: Fr(1), 1: Fr(-1)}, ">=", Fr(1)),
            ]
        ),
        {0: Fr(-1), 1: Fr(-1)},
    )
    assert status == OPTIMAL and value == Fr(-3)


def test_beale_cycling_example_terminates():
    rows = [
        ({0: Fr(1, 4), 1: Fr(-60), 2: Fr(-1, 25), 3: Fr(9)}, "<=", Fr(0)),
        ({0: Fr(1, 2), 1: Fr(-90), 2: Fr(-1, 50), 3: Fr(3)}, "<=", Fr(0)),
        ({2: Fr(1)}, "<=", Fr(1)),
    ]
    status, _, value = solve_lp(
        4, int_rows(rows), {0: Fr(3, 4), 1: Fr(-150), 2: Fr(1, 50), 3: Fr(-6)}
    )
    assert status == OPTIMAL and value == Fr(1, 20)


def test_solutions_satisfy_constraints_exactly():
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = {
                j: Fr(rng.randint(-3, 3)) for j in range(n) if rng.random() < 0.8
            }
            rel = rng.choice(["<=", ">=", "=="])
            rows.append((coeffs, rel, Fr(rng.randint(-2, 4))))
        rows.append(({j: Fr(1) for j in range(n)}, "<=", Fr(10)))  # keep bounded
        objective = {j: Fr(rng.randint(-2, 2)) for j in range(n)}
        status, x, value = solve_lp(n, int_rows(rows), objective)
        # A row over a multiple of its denominator, and the objective as
        # ints, give the same result.
        scaled = [
            ({j: 6 * c for j, c in nums.items()}, rel, 6 * rhs, 6 * den)
            for nums, rel, rhs, den in int_rows(rows)
        ]
        int_objective = {j: int(c) for j, c in objective.items()}
        assert solve_lp(n, scaled, int_objective) == (status, x, value)
        if status != OPTIMAL:
            continue
        assert all(v >= 0 for v in x)
        for coeffs, rel, rhs in rows:
            lhs = sum(c * x[j] for j, c in coeffs.items())
            if rel == "<=":
                assert lhs <= rhs
            elif rel == ">=":
                assert lhs >= rhs
            else:
                assert lhs == rhs
        assert value == sum(c * x[j] for j, c in objective.items())


def test_malformed_rows_raise():
    for rows, message in (
        ([({0: 1}, "<=", 1, 0)], "row denominator 0 is not positive"),
        ([({0: 1}, "<=", 1, -2)], "row denominator -2 is not positive"),
        ([({1: 1}, "<=", 1, 1)], "variable index 1 out of range"),
        ([({0: 1}, "<", 1, 1)], "unknown relation '<'"),
    ):
        with pytest.raises(simplex.SimplexError, match=f"^{message}$"):
            solve_lp(1, rows, {0: 1})


def test_negative_rhs_normalization():
    status, x, _ = solve_lp(1, int_rows([({0: Fr(-1)}, "<=", Fr(-2))]), {0: Fr(-1)})
    assert status == OPTIMAL and x[0] == Fr(2)


def test_bland_tie_break_decides_the_vertex():
    # The flow LPs' row form: == rows and >= rows with rhs >= 0.  Phase one
    # enters x0, and both rows tie in its ratio test (1/2 == 1/2); Bland's
    # rule lets the row of the smaller basic index (row 0's artificial)
    # leave.  Both (0, 0, 1) and (0, 1, 0) are optimal, and the other
    # leaving row ends at the second.
    rows = [
        ({0: Fr(2), 1: Fr(1), 2: Fr(1)}, "==", Fr(1)),
        ({0: Fr(2), 1: Fr(2), 2: Fr(1)}, ">=", Fr(1)),
    ]
    status, x, value = solve_lp(3, int_rows(rows), {0: Fr(-1)})
    assert (status, x, value) == (OPTIMAL, [Fr(0), Fr(0), Fr(1)], Fr(0))


def test_redundant_rows_leave_before_phase_two(monkeypatch):
    # A duplicated == row keeps its artificial basic at 0 through phase one
    # and is zero in every real column; phase two runs without it.
    sizes = []
    real_iterate = simplex._iterate
    monkeypatch.setattr(
        simplex, "_iterate", lambda t, b, c: sizes.append(len(t)) or real_iterate(t, b, c)
    )
    rng = random.Random(19)
    dropped = 0
    for _ in range(200):
        n, rows, objective = _random_lp(rng)
        eqs = [row for row in rows if row[1] == "=="]
        if not eqs:
            continue
        want = solve_lp(n, int_rows(rows), objective)
        doubled = rows + [rng.choice(eqs)]
        sizes.clear()
        got = solve_lp(n, int_rows(doubled), objective)
        assert got == want == fraction_solve_lp(n, doubled, objective)
        if got[0] != INFEASIBLE:
            assert sizes[1] < sizes[0] == len(rows) + 1
            dropped += 1
    assert dropped >= 30


def _counted(fn, columns, ties=None):
    """Wrap a pivot function to record each pivot's column and, given a
    Fraction tableau, each pivot whose column ties for the minimum ratio."""

    def pivot(tableau, basis, r, c):
        columns.append(c)
        if ties is not None:
            ratios = [row[-1] / row[c] for row in tableau if row[c] > 0]
            if ratios and ratios.count(min(ratios)) > 1:
                ties.append(c)
        return fn(tableau, basis, r, c)

    return pivot


def _assert_same_as_oracle(num_vars, rows, objective, ties=None, int_form=None):
    """``solve_lp`` on ``int_form`` (by default ``int_rows(rows)``) pivots as
    the Fraction oracle does on the Fraction rows ``rows``."""
    fast, slow = [], []
    if int_form is None:
        int_form = int_rows(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_pivot", _counted(simplex._pivot, fast))
        mp.setattr(helpers, "_fraction_pivot", _counted(helpers._fraction_pivot, slow, ties))
        got = solve_lp(num_vars, int_form, objective)
        want = fraction_solve_lp(num_vars, rows, objective)
    assert got == want
    assert fast == slow  # the same entering column on every pivot
    return got[0]


def _random_lp(rng):
    n = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = {
            j: Fr(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 6]))
            for j in range(n)
            if rng.random() < 0.7
        }
        rel = rng.choice(["<=", "<=", ">=", "=="])
        rhs = Fr(rng.randint(-2, 5), rng.choice([1, 2, 3])) if rng.random() < 0.7 else Fr(0)
        rows.append((coeffs, rel, rhs))
    if rng.random() < 0.5:
        rows.append(({j: Fr(1) for j in range(n)}, "<=", Fr(rng.randint(1, 6))))
    objective = {
        j: Fr(rng.randint(-3, 3), rng.choice([1, 2])) for j in range(n) if rng.random() < 0.8
    }
    if rng.random() >= 0.6:  # a minimization: maximize the negated objective
        objective = {j: -c for j, c in objective.items()}
    return n, rows, objective


# Row reduction bounds for the oracle tests: the module's own, 0 (every
# updated row is reduced) and a length no denominator reaches (no updated row
# is reduced).  The two extra bounds run on every fourth LP.
REDUCE_BOUNDS = pytest.mark.parametrize(
    "bits, step",
    [
        pytest.param(None, 1, id="default"),
        pytest.param(0, 4, id="reduce-always"),
        pytest.param(1 << 20, 4, id="reduce-never"),
    ],
)


def _set_reduce_bits(monkeypatch, bits):
    if bits is not None:
        monkeypatch.setattr(simplex, "_REDUCE_BITS", bits)


@REDUCE_BOUNDS
def test_integer_tableau_matches_fraction_oracle_on_random_lps(monkeypatch, bits, step):
    _set_reduce_bits(monkeypatch, bits)
    rng = random.Random(2024)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    ties = []
    for i in range(2000):
        lp = _random_lp(rng)
        if i % step == 0:
            statuses[_assert_same_as_oracle(*lp, ties=ties)] += 1
    assert min(statuses.values()) >= 200 // step, statuses
    assert len(ties) >= 100 // step  # degenerate pivots where Bland's tie-break decides


def _flow_lp(mdp, cond, margin=True):
    """A flow system as ``maximize_margin`` solves it: (num_vars, the
    independently built Fraction rows, objective, ``build_lp``'s rows)."""
    system = build_lp(mdp, cond, margin)
    slack = rescan_build_lp(mdp, cond)
    oracle = margin_rewrite(slack) if margin else slack
    t = system.num_flows * len(mdp.actions)
    objective = {t: Fr(1)} if system.num_vars > t else {}
    return system.num_vars, oracle.rows, objective, system.rows


@functools.cache
def _ring_flow_lps():
    """Every LP that accepting_mec solves on 16 seeded 10-14-state rings."""
    lps = []

    def recording(mdp, cond, margin=True):
        lps.append(_flow_lp(mdp, cond, margin))
        return build_lp(mdp, cond, margin)

    rng = random.Random(77)
    for _ in range(16):
        mdp, valuation = ring_mdp(rng, rng.randint(10, 14))
        rewards = {
            x: {s: Fr(int(x in valuation[k])) for k, s in enumerate(mdp.states)}
            for x in ("a", "b")
        }

        def bound(x):
            cmp = rng.choice([">=", ">"])
            return MpBound(cmp, Fr(rng.randint(0, 5), rng.choice([4, 5, 10])), rewards[x])

        cond = GbmpCondition(
            mp_inf=tuple(bound(rng.choice("ab")) for _ in range(rng.randint(0, 2))),
            mp_sup=tuple(bound(rng.choice("ab")) for _ in range(rng.randint(0, 2))),
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mecanalysis, "build_lp", recording)
            accepting_mec(mdp, cond)
    return lps


@REDUCE_BOUNDS
def test_integer_tableau_matches_fraction_oracle_on_flow_lps(monkeypatch, bits, step):
    lps = _ring_flow_lps()
    assert len(lps) >= 16
    assert any(len(rows) >= 28 for _, rows, _, _ in lps)
    _set_reduce_bits(monkeypatch, bits)
    for num_vars, rows, objective, int_form in lps[::step]:
        _assert_same_as_oracle(num_vars, rows, objective, int_form=int_form)


def test_a_large_flow_lp_reduces_rows_as_they_grow(monkeypatch):
    # The margin LP of a 40-state ring outgrows the default bound by itself,
    # so _eliminate reduces updated rows; pivots and result stay the oracle's.
    mdp, valuation = ring_mdp(random.Random(0), 40)
    rewards = {
        x: {s: Fr(int(x in valuation[k])) for k, s in enumerate(mdp.states)} for x in "ab"
    }
    cond = GbmpCondition(
        mp_inf=(MpBound(">=", Fr(1, 2), rewards["a"]),),
        mp_sup=(MpBound(">", Fr(1, 3), rewards["b"]),),
    )
    lp = _flow_lp(mdp, cond)
    assert lp[2] == {lp[0] - 1: 1}  # the margin t is the last variable

    reductions = []
    eliminating = []
    real_eliminate, real_reduced = simplex._eliminate, simplex._reduced

    def eliminate(*args):
        eliminating.append(True)
        try:
            return real_eliminate(*args)
        finally:
            eliminating.pop()

    def reduced(nums, den):
        if eliminating:
            reductions.append(den.bit_length())
        return real_reduced(nums, den)

    monkeypatch.setattr(simplex, "_eliminate", eliminate)
    monkeypatch.setattr(simplex, "_reduced", reduced)
    _assert_same_as_oracle(*lp[:3], int_form=lp[3])
    assert reductions
    assert min(reductions) > simplex._REDUCE_BITS


def test_flow_lp_rows_start_on_their_own_artificials():
    # The rings and conditions of the flow-LP oracle test above.
    rng = random.Random(77)
    for _ in range(16):
        mdp, valuation = ring_mdp(rng, rng.randint(10, 14))
        rewards = {
            x: {s: Fr(int(x in valuation[k])) for k, s in enumerate(mdp.states)}
            for x in ("a", "b")
        }

        def bound(x):
            cmp = rng.choice([">=", ">"])
            return MpBound(cmp, Fr(rng.randint(0, 5), rng.choice([4, 5, 10])), rewards[x])

        cond = GbmpCondition(
            mp_inf=tuple(bound(rng.choice("ab")) for _ in range(rng.randint(0, 2))),
            mp_sup=tuple(bound(rng.choice("ab")) for _ in range(rng.randint(0, 2))),
        )
        assert_flow_row_form(mdp, cond)


def _reentry_rule(num_vars, rows, objective):
    """The oracle under the rule that lets a left artificial re-enter: its
    result, its pivot count, and whether an artificial re-entered (a pivot
    column past the real ones, which only phase one has)."""
    columns = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(helpers, "_fraction_pivot", _counted(helpers._fraction_pivot, columns))
        got = fraction_solve_lp(num_vars, rows, objective, reenter=True)
    total = num_vars + sum(1 for _, rel, _ in rows if rel != "==")
    return got, len(columns), any(c >= total for c in columns)


def _redundant_lps(rng, count):
    """Random LPs with one more ``==`` row, an integer combination of two of
    their ``==`` rows, as (num_vars, rows, objective, integer rows)."""
    lps = []
    while len(lps) < count:
        n, rows, objective = _random_lp(rng)
        eqs = [row for row in rows if row[1] == "=="]
        if len(eqs) < 2:
            continue
        (ca, _, ra), (cb, _, rb) = rng.sample(eqs, 2)
        ka, kb = rng.choice([-2, -1, 1, 2, 3]), rng.choice([-2, -1, 1, 2])
        combined = {j: ka * ca.get(j, 0) + kb * cb.get(j, 0) for j in sorted({*ca, *cb})}
        rows.append((combined, "==", ka * ra + kb * rb))
        lps.append((n, rows, objective, int_rows(rows)))
    return lps


def test_artificials_that_never_reenter_change_no_result():
    # Phase one prices only real columns.  Under the rule that prices the
    # artificials too, one re-enters on some feasible LPs at phase-one
    # objective 0 and on some infeasible ones; either way the result is
    # the same.
    rng = random.Random(2024)
    pools = {
        "random": [(*lp, int_rows(lp[1])) for lp in (_random_lp(rng) for _ in range(2000))],
        "redundant": _redundant_lps(random.Random(5), 1000),
        "flow": _ring_flow_lps(),
    }
    reentered = {"feasible": 0, "infeasible": 0}
    for name, lps in pools.items():
        for num_vars, rows, objective, int_form in lps:
            want, _, reentry = _reentry_rule(num_vars, rows, objective)
            assert solve_lp(num_vars, int_form, objective) == want, name
            if reentry:
                reentered["infeasible" if want[0] == INFEASIBLE else "feasible"] += 1
    assert reentered["feasible"] >= 10 and reentered["infeasible"] >= 100, reentered


BENCH = Path(__file__).resolve().parents[1] / "bench"


@functools.cache
def _corpus_lps():
    """The distinct LPs that ``synthesize`` solves on the benchmark corpus:
    every ``translate_wide`` instance, and two of the six initial states of
    every ``lp_mec`` cell (``reach_ruin`` solves one LP with one pivot)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve annotations there
    spec.loader.exec_module(workloads)
    lps = {}
    real_solve = simplex.solve_lp

    def recording(num_vars, rows, objective):
        key = (num_vars, repr(rows), repr(objective))
        lps.setdefault(key, (num_vars, rows, objective))
        return real_solve(num_vars, rows, objective)

    instances = workloads.corpus("lp_mec")[::3] + workloads.corpus("translate_wide")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "solve_lp", recording)
        for inst in instances:
            mdp, valuation = parse_mdp(inst.model)
            synthesize(mdp, valuation, parse_formula(inst.formula), parse_rational(inst.threshold))
    return list(lps.values())


def test_infeasible_corpus_solves_stop_earlier():
    # On the flow LPs of the benchmark corpus an artificial re-enters only
    # in a phase one that ends with a nonzero objective: never re-entering
    # saves pivots on some infeasible solves, and on no solve costs one.
    lps = _corpus_lps()
    assert len(lps) >= 80
    fewer = feasible = 0
    for num_vars, rows, objective in lps:
        columns = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simplex, "_pivot", _counted(simplex._pivot, columns))
            got = solve_lp(num_vars, rows, objective)
        want, pivots, _ = _reentry_rule(num_vars, fraction_rows(rows), objective)
        assert got == want
        if got[0] == INFEASIBLE:
            assert len(columns) <= pivots
            fewer += len(columns) < pivots
        else:
            assert len(columns) == pivots
            feasible += 1
    assert fewer >= 10 and feasible >= 30, (fewer, feasible)
