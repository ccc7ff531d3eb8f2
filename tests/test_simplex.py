import functools
import importlib.util
import random
import re
import sys
from collections import Counter
from fractions import Fraction as Fr
from pathlib import Path

import pytest

import helpers
from freqsynth import simplex, synthesis
from freqsynth.formula import parse_formula, parse_rational
from freqsynth.mdp import parse_mdp
from freqsynth.dgrma import GbmpCondition, MpBound
from freqsynth.mecanalysis import build_lp
from freqsynth.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from freqsynth.synthesis import accepting_mec, synthesize
from helpers import (
    as_fractions,
    assert_flow_row_form,
    fraction_rows,
    flow_system_lp,
    fraction_solve_lp,
    int_rows,
    margin_rewrite,
    rescan_build_lp,
    ring_mdp,
    start_outcome,
    whole,
)


def test_basic_maximization():
    # x0 + 2 x1 <= 4 and x0 <= 3, written with the slack columns x2 and x3.
    leq = int_rows([({0: Fr(1), 1: Fr(2)}, "<=", Fr(4)), ({0: Fr(1)}, "<=", Fr(3))])
    with pytest.raises(simplex.SimplexError, match="^relation '<=' is not == or >=$"):
        solve_lp(2, leq, {0: 1, 1: 1})
    rows = [({0: 1, 1: 2, 2: 1}, "==", 4, 1), ({0: 1, 3: 1}, "==", 3, 1)]
    result = solve_lp(4, rows, {0: 1, 1: 1})
    assert result == (OPTIMAL, [6, 1, 0, 0], 2)
    assert as_fractions(result) == (OPTIMAL, [Fr(3), Fr(1, 2), Fr(0), Fr(0)])


def test_infeasible_and_unbounded():
    # x0 >= 2 and x0 + x1 == 1, with x1 the slack of x0 <= 1.
    rows = [({0: 1}, ">=", 2, 1), ({0: 1, 1: 1}, "==", 1, 1)]
    assert solve_lp(2, rows, {0: 1}) == (INFEASIBLE, None, None)
    assert solve_lp(1, [({0: 1}, ">=", 1, 1)], {0: 1}) == (UNBOUNDED, None, None)


def test_equalities_and_minimization():
    # Minimizing x0 + x1 is maximizing its negation.
    rows = [
        ({0: Fr(1), 1: Fr(1)}, "==", Fr(3)),
        ({0: Fr(1), 1: Fr(-1)}, ">=", Fr(1)),
    ]
    objective = {0: -1, 1: -1}
    status, x = as_fractions(solve_lp(2, int_rows(rows), objective))
    want = fraction_solve_lp(2, rows, objective)
    assert (status, x) == want[:2] and status == OPTIMAL
    assert want[2] == -(x[0] + x[1]) == Fr(-3) and x[0] - x[1] >= 1


def test_beale_cycling_example_terminates():
    # Beale's <= rows with the slack columns x4, x5 and x6, and his
    # objective times 100; the optimum is 100 * 1/20.
    rows = [
        ({0: Fr(1, 4), 1: Fr(-60), 2: Fr(-1, 25), 3: Fr(9), 4: Fr(1)}, "==", Fr(0)),
        ({0: Fr(1, 2), 1: Fr(-90), 2: Fr(-1, 50), 3: Fr(3), 5: Fr(1)}, "==", Fr(0)),
        ({2: Fr(1), 6: Fr(1)}, "==", Fr(1)),
    ]
    objective = {0: 75, 1: -15000, 2: 2, 3: -600}
    status, x = as_fractions(solve_lp(7, int_rows(rows), objective))
    assert status == OPTIMAL and sum(c * x[j] for j, c in objective.items()) == 5


def _contract_rows(num_vars, rows):
    """Fraction rows with any relation and sign of rhs as the same
    polytope in ``solve_lp``'s form: a row with a negative rhs is negated,
    and a ``<=`` row becomes an ``==`` row with a slack column of its own,
    numbered from ``num_vars`` on.  Returns (number of columns, rows)."""
    out = []
    for coeffs, rel, rhs in rows:
        if rhs < 0:
            coeffs, rhs = {j: -c for j, c in coeffs.items()}, -rhs
            rel = {"<=": ">=", ">=": "<="}.get(rel, rel)
        if rel == "<=":
            coeffs, rel = {**coeffs, num_vars: Fr(1)}, "=="
            num_vars += 1
        out.append((coeffs, rel, rhs))
    return num_vars, out


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
        objective = {j: rng.randint(-2, 2) for j in range(n)}
        cols, contract = _contract_rows(n, rows)
        result = solve_lp(cols, int_rows(contract), objective)
        # A row over a multiple of its denominator gives the same result.
        scaled = [
            ({j: 6 * c for j, c in nums.items()}, rel, 6 * rhs, 6 * den)
            for nums, rel, rhs, den in int_rows(contract)
        ]
        assert solve_lp(cols, scaled, objective) == result
        want = fraction_solve_lp(cols, contract, objective)
        status, x = as_fractions(result)
        assert (status, x) == want[:2]
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
        assert want[2] == sum(c * x[j] for j, c in objective.items())


def test_malformed_rows_raise():
    for rows, objective, message in (
        ([({0: 1}, ">=", 1, 0)], {0: 1}, "row denominator 0 is not positive"),
        ([({0: 1}, ">=", 1, -2)], {0: 1}, "row denominator -2 is not positive"),
        ([({1: 1}, ">=", 1, 1)], {0: 1}, "variable index 1 out of range"),
        ([({0: 1}, ">=", 1, 1)], {1: 1}, "variable index 1 out of range"),
        ([({0: 1}, "<", 1, 1)], {0: 1}, "relation '<' is not == or >="),
        ([({0: 1}, "<=", 1, 1)], {0: 1}, "relation '<=' is not == or >="),
        ([({0: 1}, ">=", 1, 1)], {0: Fr(1, 2)}, "objective weight Fraction(1, 2) is not an int"),
        ([({0: 1}, ">=", 1, 1)], {0: Fr(1)}, "objective weight Fraction(1, 1) is not an int"),
    ):
        with pytest.raises(simplex.SimplexError, match=f"^{re.escape(message)}$"):
            solve_lp(1, rows, objective)


def test_negative_rhs_rows_raise():
    # The flow LPs' rows never have a negative rhs, so the solver flips no
    # row: -x0 <= -2 is the caller's to write as x0 >= 2.
    for rel in ("==", ">="):
        with pytest.raises(simplex.SimplexError, match="^right-hand side -2 is negative$"):
            solve_lp(1, [({0: -1}, rel, -2, 1)], {0: -1})
    assert solve_lp(1, [({0: 1}, ">=", 2, 1)], {0: -1}) == (OPTIMAL, [2], 1)


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
    assert solve_lp(3, int_rows(rows), {0: -1}) == (OPTIMAL, [0, 0, 1], 1)


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
        assert got == want
        assert as_fractions(got) == fraction_solve_lp(n, doubled, objective)[:2]
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
    assert as_fractions(got) == want[:2]
    assert fast == slow  # the same entering column on every pivot
    return got[0]


def _random_lp(rng):
    """A random LP in ``solve_lp``'s row form, as (number of columns,
    Fraction rows, int objective): rows drawn with any relation and sign of
    rhs, in the form of ``_contract_rows``, and an objective over the drawn
    columns alone, with weights drawn in halves and doubled."""
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
        j: rng.randint(-3, 3) * 2 // rng.choice([1, 2]) for j in range(n) if rng.random() < 0.8
    }
    if rng.random() >= 0.6:  # a minimization: maximize the negated objective
        objective = {j: -c for j, c in objective.items()}
    return (*_contract_rows(n, rows), objective)


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
    system = build_lp(mdp, whole(mdp), cond, margin)
    slack = rescan_build_lp(mdp, cond)
    oracle = margin_rewrite(slack) if margin else slack
    t = system.num_flows * len(mdp.actions)
    objective = {t: 1} if system.num_vars > t else {}
    return system.num_vars, oracle.rows, objective, system.rows


def _ring_instances():
    """16 seeded 10-14-state rings, each with a condition of up to two
    inferior and two superior bounds on the atoms a and b."""
    instances = []
    rng = random.Random(77)
    for _ in range(16):
        mdp, valuation = ring_mdp(rng, rng.randint(10, 14))
        rewards = {
            x: tuple(Fr(int(x in labels)) for labels in valuation)
            for x in ("a", "b")
        }

        def bound(x):
            cmp = rng.choice([">=", ">"])
            return MpBound(cmp, Fr(rng.randint(0, 5), rng.choice([4, 5, 10])), rewards[x])

        cond = GbmpCondition(
            mp_inf=tuple(bound(rng.choice("ab")) for _ in range(rng.randint(0, 2))),
            mp_sup=tuple(bound(rng.choice("ab")) for _ in range(rng.randint(0, 2))),
        )
        instances.append((mdp, cond))
    return instances


@functools.cache
def _ring_flow_lps():
    """Every LP that accepting_mec solves on the rings of _ring_instances."""
    lps = []

    def recording(mdp, component, cond, margin=True, blocks=None):
        lps.append(_flow_lp(mdp, cond, margin))
        return build_lp(mdp, component, cond, margin, blocks)

    for mdp, cond in _ring_instances():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthesis, "build_lp", recording)
            accepting_mec(mdp, whole(mdp), cond)
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
        x: tuple(Fr(int(x in labels)) for labels in valuation) for x in "ab"
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
    for mdp, cond in _ring_instances():
        assert_flow_row_form(mdp, whole(mdp), cond)


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
        if ka * ra + kb * rb < 0:  # the combination with the opposite sign
            ka, kb = -ka, -kb
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
            assert as_fractions(solve_lp(num_vars, int_form, objective)) == want[:2], name
            if reentry:
                reentered["infeasible" if want[0] == INFEASIBLE else "feasible"] += 1
    assert reentered["feasible"] >= 10 and reentered["infeasible"] >= 100, reentered


BENCH = Path(__file__).resolve().parents[1] / "bench"


@functools.cache
def _corpus_lps(workload, step=1):
    """The distinct LPs that ``synthesize`` solves on every ``step``-th
    instance of a benchmark workload's corpus, as (num_vars, rows,
    objective, start)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve annotations there
    spec.loader.exec_module(workloads)
    lps = {}
    real_solve = simplex.solve_lp

    def recording(num_vars, rows, objective, start=None):
        key = (num_vars, repr(rows), repr(objective))
        lps.setdefault(key, (num_vars, rows, objective, start))
        return real_solve(num_vars, rows, objective, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "solve_lp", recording)
        for inst in workloads.corpus(workload)[::step]:
            mdp, valuation = parse_mdp(inst.model)
            synthesize(mdp, valuation, parse_formula(inst.formula), parse_rational(inst.threshold))
    return list(lps.values())


def test_infeasible_corpus_solves_stop_earlier():
    # On the flow LPs of the benchmark corpus an artificial re-enters only
    # in a phase one that ends with a nonzero objective: never re-entering
    # saves pivots on some infeasible solves, and on no solve costs one.  The
    # LPs of every translate_wide instance, and of two of the six initial
    # states of every lp_mec cell (reach_ruin solves one LP with one pivot),
    # each solved from the all-artificial basis.
    lps = _corpus_lps("lp_mec", 3) + _corpus_lps("translate_wide")
    assert len(lps) >= 80
    fewer = feasible = 0
    for num_vars, rows, objective, _ in lps:
        columns = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simplex, "_pivot", _counted(simplex._pivot, columns))
            got = solve_lp(num_vars, rows, objective)
        want, pivots, _ = _reentry_rule(num_vars, fraction_rows(rows), objective)
        assert as_fractions(got) == want[:2]
        if got[0] == INFEASIBLE:
            assert len(columns) <= pivots
            fewer += len(columns) < pivots
        else:
            assert len(columns) == pivots
            feasible += 1
    assert fewer >= 10 and feasible >= 30, (fewer, feasible)


def _random_block_lp(rng):
    """A random LP with one ``==`` block, at a random row and column offset,
    whose kept crash is feasible by construction, and only ``>=`` rows
    outside the block: (num_vars, rows, objective, start).

    The block's rhs is B x for a random x >= 0 on the pivot columns (a row
    whose rhs reads negative is negated), so the crash's basic values are x
    and the rows that no pivot takes read 0.  A draw whose crash meets a
    zero pivot cell is drawn again.  The pivots go last row first, the order
    in which ``block_pivots`` reads them back."""
    n = rng.randint(2, 6)
    width = rng.randint(1, n)
    c0 = rng.randint(0, n - width)
    k = rng.randint(1, 4)
    while True:
        block = [
            {j: Fr(rng.randint(-4, 4), rng.choice([1, 2, 3])) for j in range(width) if rng.random() < 0.7}
            for _ in range(k)
        ]
        taken = rng.randint(1, min(k, width))
        pivots = list(zip(sorted(rng.sample(range(k), taken), reverse=True), rng.sample(range(width), taken)))
        x = {c: Fr(rng.randint(0, 3), rng.choice([1, 2])) for _, c in pivots}
        local = []
        for coeffs in block:
            rhs = sum(coeffs.get(c, 0) * v for c, v in x.items())
            sign = -1 if rhs < 0 else 1
            local.append(({j: sign * v for j, v in coeffs.items()}, "==", sign * rhs))
        try:
            crash = simplex.Crash(int_rows(local), pivots, width)
        except simplex.SimplexError:
            continue
        break
    others = []
    for _ in range(rng.randint(0, 4)):
        coeffs = {j: Fr(rng.randint(-4, 4), rng.choice([1, 2])) for j in range(n) if rng.random() < 0.6}
        others.append((coeffs, ">=", Fr(rng.randint(0, 4), rng.choice([1, 2]))))
    r0 = rng.randint(0, len(others))
    shifted = [({c0 + j: v for j, v in coeffs.items()}, rel, rhs) for coeffs, rel, rhs in local]
    rows = int_rows(others[:r0] + shifted + others[r0:])
    objective = {}
    if rng.random() < 0.8:
        objective = {j: rng.randint(-3, 3) for j in range(n) if rng.random() < 0.8}
    return n, rows, objective, simplex.BlockStart(crash, ((r0, c0),))


def test_random_start_pivots_change_no_result():
    # A block start with a feasible crash gives the plain solve's result:
    # infeasible and unbounded LPs are found from the start as such, and a
    # tied optimum is solved again from the all-artificial basis.  Before
    # any solve again, the start path returns what the Fraction oracle finds
    # from the same basis crashed by raw pivots.  Without an objective the
    # start's vertex is kept: it has the plain solve's status and meets
    # every row.
    rng = random.Random(51)
    outcomes = Counter(start_outcome(*_random_block_lp(rng)) for _ in range(1500))
    kinds = ("tied", OPTIMAL, INFEASIBLE, UNBOUNDED, "start vertex")
    assert min(outcomes[kind] for kind in kinds) >= 50, outcomes


def test_start_pivots_out_of_range_raise():
    rows = [({0: 1, 1: 1}, "==", 1, 1), ({0: 1}, "==", 1, 1)]
    for pivot in ((2, 0), (0, 2), (-1, 0), (0, -1)):
        with pytest.raises(simplex.SimplexError, match=re.escape(f"start pivot {pivot} out")):
            simplex.Crash(rows, [pivot], 2)
    # The block's two rows and two columns fit at (0, 0) and (1, 1) among
    # three rows and three columns (a surplus column counts), nowhere else.
    crash = simplex.Crash(rows, [(0, 0)], 2)
    lp = [*rows, ({0: 1, 2: 1}, ">=", 1, 1)]
    for offset in ((0, 0), (1, 1)):
        assert solve_lp(3, lp, {}, simplex.BlockStart(crash, (offset,)))[0] == OPTIMAL
    for offset in ((2, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(simplex.SimplexError, match=re.escape(f"block at {offset} out of range")):
            solve_lp(3, lp, {}, simplex.BlockStart(crash, (offset,)))


def test_a_crash_on_a_zero_pivot_cell_raises():
    # A pivot cell can be zero from the start, or once an earlier pivot has
    # cleared it.
    twice = [({0: 1, 1: 1}, "==", 1, 1), ({0: 2, 1: 2}, "==", 2, 1)]
    for rows, pivots in (
        ([({0: 1}, "==", 1, 1)], [(0, 1)]),
        (twice, [(0, 0), (1, 1)]),
        (twice, [(1, 0), (0, 0)]),
    ):
        with pytest.raises(simplex.SimplexError, match="^zero pivot$"):
            simplex.Crash(rows, pivots, 2)


def test_an_infeasible_kept_crash_raises():
    # x0 + x1 == 1 and x0 + 2 x1 == 3 crash to x0 = -1 and x1 = 2.  The
    # LP is infeasible, but the start is at fault and says so.
    rows = [({0: 1, 1: 1}, "==", 1, 1), ({0: 1, 1: 2}, "==", 3, 1)]
    crash = simplex.Crash(rows, ((0, 0), (1, 1)), 2)
    assert [row[2] for row in crash.rows] == [-1, 2]
    assert solve_lp(2, rows, {})[0] == INFEASIBLE
    for objective in ({}, {0: 1}):
        with pytest.raises(simplex.SimplexError, match="^start basis is not feasible$"):
            solve_lp(2, rows, objective, simplex.BlockStart(crash, ((0, 0),)))


def test_start_basis_changes_no_ring_flow_lp_result():
    # Both systems of every ring have a start basis.  Those with an objective
    # come back from it unless their optimum is tied; those without keep its
    # vertex.
    outcomes = Counter(
        start_outcome(*flow_system_lp(build_lp(mdp, whole(mdp), cond, margin)))
        for mdp, cond in _ring_instances()
        for margin in (True, False)
    )
    assert "no start" not in outcomes and outcomes["start vertex"] >= 3, outcomes
    assert outcomes[OPTIMAL] >= 10, outcomes


def test_start_basis_changes_no_corpus_result():
    # lp_mec's flow LPs have unique optima, so they come back from the start
    # path; translate_wide's tied optima are solved again, and its
    # bound-free systems, like reach_ruin's one, keep the start's vertex.
    lp_mec = Counter(start_outcome(*lp) for lp in _corpus_lps("lp_mec"))
    assert lp_mec[OPTIMAL] + lp_mec[INFEASIBLE] >= 100, lp_mec
    wide = Counter(start_outcome(*lp) for lp in _corpus_lps("translate_wide"))
    assert wide["tied"] >= 10 and wide["start vertex"] >= 5, wide
    assert Counter(start_outcome(*lp) for lp in _corpus_lps("reach_ruin")) == {"start vertex": 1}


def test_a_crash_rejects_a_greater_equal_row():
    # A >= row's surplus column lies outside the block's columns, so an LP
    # could not copy the crashed row in.
    with pytest.raises(simplex.SimplexError, match="^block row relation '>=' is not ==$"):
        simplex.Crash([({0: 1, 1: 1}, "==", 1, 1), ({0: 1}, ">=", 0, 1)], ((0, 0),), 2)


def test_a_crash_rejects_an_entry_outside_its_columns():
    with pytest.raises(simplex.SimplexError, match="^variable index 2 out of range$"):
        simplex.Crash([({0: 1, 2: 1}, "==", 1, 1)], ((0, 0),), 2)
