import math
import random
from fractions import Fraction as Fr
from itertools import count, islice

import pytest

import freqsynth.mdp
import freqsynth.mecanalysis
from freqsynth import simplex
from freqsynth.dgrma import GbmpCondition, MpBound
from freqsynth.graph import Component, mec_decomposition
from freqsynth.mdp import Mdp, MdpAction, draw_table, parse_mdp, weights_of
from freqsynth.mecanalysis import (
    LinearSystem,
    LpSolution,
    ModeClass,
    Strategy,
    WitnessRun,
    _verify_solution,
    build_lp,
    build_witness_strategy,
    epoch_blocks,
    epoch_length,
    maximize_margin,
)
from freqsynth.simplex import SimplexError
from freqsynth.synthesis import GlobalStrategy, accepting_mec, simulate_global

from helpers import (
    FixedDraw,
    StrategyRunner,
    action_at,
    as_fractions,
    assert_dyadic_draws_match,
    assert_flow_row_form,
    capped,
    dist,
    draw,
    edge_draws,
    enumerate_md_strategies,
    fraction_rows,
    fraction_sample,
    int_draw_table,
    margin_rewrite,
    md_strategy_satisfies,
    random_mdp,
    random_strongly_connected_mdp,
    rescan_build_lp,
    simulate_strategy,
    time_limit,
    whole,
    witness_walk,
)


def _single_loop():
    mdp, _ = parse_mdp("mdp\nstates s\ninit s\naction s alpha : s 1\n")
    return mdp


def _alternating():
    mdp, _ = parse_mdp(
        "mdp\nstates s t\ninit s\n"
        "action s a_st : t 1\naction t b_ts : s 1\naction t b_tt : t 1\n"
    )
    return mdp


def test_forced_self_loop_feasibility():
    mdp = _single_loop()
    feasible = GbmpCondition(mp_inf=(MpBound(">=", Fr(1), (Fr(1),)),))
    sol = maximize_margin(build_lp(mdp, whole(mdp), feasible, margin=False))
    assert sol == LpSolution(((1,),), 0, 1)
    impossible = GbmpCondition(mp_inf=(MpBound(">=", Fr(2), (Fr(1),)),))
    assert maximize_margin(build_lp(mdp, whole(mdp), impossible, margin=False)) is None
    assert maximize_margin(build_lp(mdp, whole(mdp), impossible)) is None


def test_alternating_cycle_flow():
    mdp = _alternating()
    q = (Fr(1), Fr(0))
    cond = GbmpCondition(mp_sup=(MpBound(">=", Fr(1, 2), q),))
    sol = maximize_margin(build_lp(mdp, whole(mdp), cond, margin=False))
    assert sol is not None
    # One flow over the actions a_st, b_ts, b_tt, in that order.
    assert sol == LpSolution(((1, 1, 0),), 0, 2)
    assert as_fractions(sol) == (((Fr(1, 2), Fr(1, 2), 0),), 0)


def test_flow_block_shapes():
    mdp = _alternating()
    q = (Fr(1), Fr(0))
    cond = GbmpCondition(
        mp_inf=(MpBound(">=", Fr(0), q),),
        mp_sup=(MpBound(">=", Fr(0), q), MpBound(">=", Fr(1, 2), q)),
    )
    system = build_lp(mdp, whole(mdp), cond, margin=False)
    assert system.num_flows == 2
    assert system.num_vars == 2 * len(mdp.actions)
    # Per flow: one normalization row, one balance row per state, one row per
    # inferior bound, and exactly one superior row.
    assert len(system.rows) == 2 * (1 + len(mdp) + 1 + 1)
    # The margin system adds one column, shared by every bound row.
    margin = build_lp(mdp, whole(mdp), cond)
    assert margin.num_vars == 2 * len(mdp.actions) + 1
    assert len(margin.rows) == len(system.rows)
    degenerate = build_lp(mdp, whole(mdp), GbmpCondition(mp_inf=(MpBound(">=", Fr(0), q),)))
    assert degenerate.num_flows == 1


def test_strict_bounds_need_positive_slack():
    mdp = _alternating()
    q = (Fr(1), Fr(0))
    boundary = GbmpCondition(mp_sup=(MpBound(">", Fr(1, 2), q),))
    assert maximize_margin(build_lp(mdp, whole(mdp), boundary, margin=False)).slack == 0
    assert accepting_mec(mdp, whole(mdp), boundary) == (False, None)
    below = GbmpCondition(mp_sup=(MpBound(">", Fr(1, 3), q),))
    sol = maximize_margin(build_lp(mdp, whole(mdp), below, margin=False))
    assert sol is not None and sol.slack > 0
    ok, sol = accepting_mec(mdp, whole(mdp), below)
    assert ok and sol.slack > 0


def test_build_lp_puts_t_on_bound_rows():
    # t, the column after the flows, is on every bound row of the margin
    # system and on the strict rows alone of the slack system; it is left
    # out when no row has it.
    mdp = _alternating()
    q = (Fr(1), Fr(0))
    t = len(mdp.actions)
    mixed = GbmpCondition(mp_inf=(MpBound(">=", Fr(1, 2), q), MpBound(">", Fr(1, 3), q)))
    plain = GbmpCondition(mp_inf=(MpBound(">=", Fr(1, 2), q),))
    assert mixed.strict() and not plain.strict()

    def t_coeffs(system):
        return [c.get(t) for c, rel, _ in fraction_rows(system.rows) if rel == ">="]

    margin = build_lp(mdp, whole(mdp), mixed)
    slack = build_lp(mdp, whole(mdp), mixed, margin=False)
    assert t_coeffs(margin) == [-1, -1] and margin.num_vars == t + 1
    assert t_coeffs(slack) == [None, -1] and slack.num_vars == t + 1
    assert all(t not in c for c, rel, *_ in margin.rows + slack.rows if rel == "==")
    assert build_lp(mdp, whole(mdp), plain).num_vars == t + 1
    assert build_lp(mdp, whole(mdp), plain, margin=False).num_vars == t
    assert build_lp(mdp, whole(mdp), GbmpCondition()).num_vars == t
    assert maximize_margin(build_lp(mdp, whole(mdp), GbmpCondition())).slack == 0


def test_mixed_strict_bounds_fall_back_to_slack_lp():
    # ">= 1/2" caps the shared margin at 0, yet "> 1/3" holds with slack 1/6
    # when the frequency of s is exactly 1/2.
    mdp = _alternating()
    q = (Fr(1), Fr(0))
    cond = GbmpCondition(mp_inf=(MpBound(">=", Fr(1, 2), q), MpBound(">", Fr(1, 3), q)))
    assert maximize_margin(build_lp(mdp, whole(mdp), cond)).slack == 0
    ok, sol = accepting_mec(mdp, whole(mdp), cond)
    assert ok
    flows, slack = as_fractions(sol)
    assert slack == Fr(1, 6)
    assert flows[0][action_at(mdp, "a_st")] == Fr(1, 2)


def test_accepting_mec_inf_set_check():
    mdp = _alternating()
    cond = GbmpCondition(inf_sets=(frozenset({2}),))  # no state of the MDP
    assert accepting_mec(mdp, whole(mdp), cond) == (False, None)
    ok, sol = accepting_mec(mdp, whole(mdp), GbmpCondition(inf_sets=(frozenset({1}),)))
    assert ok and sol is not None


def test_lp_independent_of_initial_state():
    from freqsynth.mdp import Mdp

    mdp = _alternating()
    cond = GbmpCondition(mp_sup=(MpBound(">=", Fr(1, 2), (Fr(1), Fr(0))),))
    rows_from_s = build_lp(mdp, whole(mdp), cond).rows
    shifted = Mdp(mdp.states, mdp.actions, 1)
    rows_from_t = build_lp(shifted, whole(shifted), cond).rows
    assert rows_from_s == rows_from_t


def test_lp_vs_md_strategy_oracle_small():
    # Smaller-scale version of the acceptance criterion: LP infeasibility
    # must imply no deterministic memoryless strategy works.
    rng = random.Random(71)
    checked = 0
    for _ in range(60):
        mdp = random_strongly_connected_mdp(rng, 4, 3)
        cond = _random_condition(rng, mdp)
        ok, _ = accepting_mec(mdp, whole(mdp), cond)
        if ok:
            continue
        checked += 1
        for policy in enumerate_md_strategies(mdp):
            assert not md_strategy_satisfies(mdp, list(policy), cond)
    assert checked > 5


def _random_condition(rng, mdp):
    def reward():
        return tuple(Fr(rng.randint(0, 4), 4) for _ in mdp.states)

    def bound():
        return Fr(rng.randint(0, 8), 8)

    mp_inf = tuple(
        MpBound(rng.choice([">=", ">"]), bound(), reward())
        for _ in range(rng.randint(0, 2))
    )
    mp_sup = tuple(
        MpBound(rng.choice([">=", ">"]), bound(), reward())
        for _ in range(rng.randint(0, 2))
    )
    inf_sets = ()
    if rng.random() < 0.5:
        inf_sets = (frozenset(rng.sample(range(len(mdp)), rng.randint(1, len(mdp)))),)
    return GbmpCondition(inf_sets, mp_inf, mp_sup)


def _typed_rows(rows):
    return [(repr(list(c.items())), rel, rhs) for c, rel, rhs in rows]


def test_build_lp_matches_rescan_builder():
    rng = random.Random(303)
    cancelled = 0
    for _ in range(300):
        mdp = random_mdp(rng, 6, 3)
        cond = _random_condition(rng, mdp)
        # Int rows over a positive int denominator whose values are the
        # Fraction rows, with the same key order, and the same columns: the
        # slack system against the rescan builder, the margin system against
        # the rewrite of the slack system it replaced.
        slack = rescan_build_lp(mdp, cond)
        for got, want in (
            (build_lp(mdp, whole(mdp), cond, margin=False), slack),
            (build_lp(mdp, whole(mdp), cond), margin_rewrite(slack)),
        ):
            for nums, _, rhs, den in got.rows:
                assert all(type(v) is int for v in (*nums.values(), rhs, den)) and den >= 1
            assert _typed_rows(fraction_rows(got.rows)) == _typed_rows(want.rows)
            assert (got.num_flows, got.num_vars) == (want.num_flows, want.num_vars)
        assert_flow_row_form(mdp, whole(mdp), cond)
        cancelled += any(dist(a) == ((a.source, 1),) for a in mdp.actions)
    assert cancelled >= 30  # sure self-loops, whose balance entry cancels


def test_no_bounds_condition_is_one_plain_solve(monkeypatch):
    # Without bounds the margin system has no t column: it is the plain
    # flow system, solved once from the attractor policy's start basis with
    # no objective.  The start's vertex is kept, so the witness flow sits on
    # the start's columns, one action per state.
    calls = []
    real_solve = simplex.solve_lp
    monkeypatch.setattr(
        simplex, "solve_lp", lambda *args: calls.append(args) or real_solve(*args)
    )
    rng = random.Random(404)
    for _ in range(40):
        mdp = random_strongly_connected_mdp(rng, 5, 3)
        cond = GbmpCondition(inf_sets=(frozenset(rng.sample(range(len(mdp)), 1)),))
        calls.clear()
        ok, sol = accepting_mec(mdp, whole(mdp), cond)
        plain = build_lp(mdp, whole(mdp), cond, margin=False)
        assert plain.num_vars == len(mdp.actions) and len(plain.start) == len(mdp)
        assert calls == [(plain.num_vars, plain.rows, {}, plain.start)]
        assert (ok, sol) == (True, maximize_margin(plain))
        columns = {j for _, j in plain.start}
        assert all(j in columns for j, v in enumerate(sol.flows[0]) if v)


def test_strongly_connected_mec_drops_a_dependent_balance_row(monkeypatch):
    # The balance rows of a strongly connected MDP sum to zero, so one row
    # is always redundant; phase two runs without it and the MEC is still
    # accepted with a verified solution.
    sizes = []
    real_iterate = simplex._iterate
    monkeypatch.setattr(
        simplex, "_iterate", lambda t, b, c: sizes.append(len(t)) or real_iterate(t, b, c)
    )
    mdp = _alternating()
    cond = GbmpCondition(mp_inf=(MpBound(">=", Fr(1, 2), (Fr(1), Fr(0))),))
    system = build_lp(mdp, whole(mdp), cond)
    balance = fraction_rows(system.rows[1 : 1 + len(mdp.states)])
    total = {}
    for coeffs, _, _ in balance:
        for j, c in coeffs.items():
            total[j] = total.get(j, 0) + c
    assert not any(total.values())
    ok, sol = accepting_mec(mdp, whole(mdp), cond)
    assert ok
    _verify_solution(system, sol)
    assert sizes[1] < sizes[0] == len(system.rows)


def test_verify_solution_rejects_tampered_solutions():
    mdp, _ = parse_mdp(
        "mdp\nstates s t\ninit s\naction s ss : s 1\naction s st : t 1\n"
        "action t tt : t 1\naction t ts : s 1\n"
    )
    q = (Fr(1), Fr(0))
    inf_system = build_lp(mdp, whole(mdp), GbmpCondition(mp_inf=(MpBound(">=", Fr(1, 2), q),)))
    sup_system = build_lp(mdp, whole(mdp), GbmpCondition(mp_sup=(MpBound(">=", Fr(1, 2), q),)))
    sol = maximize_margin(inf_system)
    assert sol is not None
    _verify_solution(sup_system, sol)
    doubled = LpSolution(tuple(tuple(2 * v for v in f) for f in sol.flows), sol.slack, sol.den)
    with pytest.raises(SimplexError, match="^flow 0 sums to 2$"):
        _verify_solution(inf_system, doubled)
    # Flows over the actions ss, st, tt, ts, in that order.
    leaking = LpSolution(((1, 1, 0, 0),), 0, 2)
    with pytest.raises(SimplexError, match="unbalanced at s"):
        _verify_solution(inf_system, leaking)
    stuck_in_t = LpSolution(((0, 0, 1, 0),), 0, 1)
    with pytest.raises(SimplexError, match="inferior bound"):
        _verify_solution(inf_system, stuck_in_t)
    with pytest.raises(SimplexError, match="superior bound"):
        _verify_solution(sup_system, stuck_in_t)
    # Strict bounds are checked strictly: frequency 1/2 of s misses "> 1/2".
    cycling = LpSolution(((0, 3, 0, 3),), 0, 6)  # any common denominator
    _verify_solution(inf_system, cycling)
    strict = build_lp(mdp, whole(mdp), GbmpCondition(mp_inf=(MpBound(">", Fr(1, 2), q),)))
    with pytest.raises(SimplexError, match="inferior bound"):
        _verify_solution(strict, cycling)


def test_verify_solution_reads_the_systems_bounds(monkeypatch):
    # build_lp reads the condition at the action sources once and keeps it
    # as LinearSystem.bounds; solving and checking the system read it there.
    mdp, _ = parse_mdp(
        "mdp\nstates s t\ninit s\naction s ss : s 1\naction s st : t 1\n"
        "action t tt : t 1\naction t ts : s 1\n"
    )
    cond = GbmpCondition(mp_inf=(MpBound(">=", Fr(1, 2), (Fr(1), Fr(0))),))
    system = build_lp(mdp, whole(mdp), cond)
    assert system.bounds == cond.restricted([0, 0, 1, 1]) == (((">=", 2, 1, (2, 2, 0, 0)),), ())
    calls = []
    restricted = GbmpCondition.restricted

    def counted(c, states):
        calls.append(states)
        return restricted(c, states)

    monkeypatch.setattr(GbmpCondition, "restricted", counted)
    sol = maximize_margin(system)
    assert sol is not None and calls == []
    # A bound the rows do not carry (frequency of t at least 1) fails the check.
    tampered = LinearSystem(
        system.mdp,
        system.component,
        system.cond,
        system.num_flows,
        system.num_vars,
        system.rows,
        (((">=", 1, 1, (0, 0, 1, 1)),), ()),
        system.start,
    )
    with pytest.raises(SimplexError, match="flow 0 violates inferior bound 0"):
        _verify_solution(tampered, sol)


def test_a_perturbed_vertex_fails_the_row_it_breaks(monkeypatch):
    # maximize_margin checks whatever vertex the simplex returns.  Flow 1
    # moved off balance, or onto a state that misses a bound, raises with
    # the flow and the state or bound index of the row it breaks.
    mdp, _ = parse_mdp(
        "mdp\nstates s t\ninit s\naction s ss : s 1\naction s st : t 1\n"
        "action t tt : t 1\naction t ts : s 1\n"
    )
    in_s, in_t = (Fr(1), Fr(0)), (Fr(0), Fr(1))
    cond = GbmpCondition(
        mp_inf=(MpBound(">=", Fr(0), in_s), MpBound(">=", Fr(1, 4), in_s)),
        mp_sup=(MpBound(">=", Fr(1, 2), in_s), MpBound(">=", Fr(1, 2), in_t)),
    )
    system = build_lp(mdp, whole(mdp), cond)
    assert maximize_margin(system) is not None
    real_solve = simplex.solve_lp
    # Flow 1 over the actions ss, st, tt, ts, in that order; each sums to 1.
    for flow1, message in (
        ((Fr(1, 4), Fr(1, 2), Fr(1, 4), 0), "flow 1 unbalanced at s"),
        ((0, 0, 1, 0), "flow 1 violates inferior bound 1"),
        ((1, 0, 0, 0), "flow 1 violates superior bound 1"),
    ):

        def perturbed(*args, flow1=flow1):
            status, values, den = real_solve(*args)
            values = [4 * v for v in values]  # over 4 * den, a multiple of 4
            values[4:8] = (int(4 * den * v) for v in flow1)
            return status, values, 4 * den

        monkeypatch.setattr(simplex, "solve_lp", perturbed)
        with pytest.raises(SimplexError, match=f"^{message}$"):
            maximize_margin(system)


def test_witness_single_action_deterministic():
    mdp = _single_loop()
    cond = GbmpCondition(mp_inf=(MpBound(">=", Fr(1), (Fr(1),)),))
    ok, sol = accepting_mec(mdp, whole(mdp), cond)
    strat = build_witness_strategy(mdp, whole(mdp), sol, cond)
    assert len(strat.modes) == 1
    classes = strat.modes[0]
    assert len(classes) == 1
    assert classes[0].choices[0] == (1, ((0, 1),))


def test_witness_simulation_alternating():
    mdp = _alternating()
    q = (Fr(1), Fr(0))
    cond = GbmpCondition(
        inf_sets=(frozenset({1}),),
        mp_sup=(MpBound(">=", Fr(1, 2), q),),
    )
    ok, sol = accepting_mec(mdp, whole(mdp), cond)
    assert ok
    strat = build_witness_strategy(mdp, whole(mdp), sol, cond)
    stats = simulate_strategy(strat, 100_000, seed=2024)
    label, max_prefix = stats.mp_max_prefix[0]
    assert max_prefix >= 0.5 - 0.05
    # Every epoch walks through the Inf set at least once.
    for visits in stats.inf_visits_per_epoch:
        assert all(v >= 1 for v in visits)
    # Empirical action frequency close to the exact flow.
    total = sum(stats.action_counts.values())
    assert abs(stats.action_counts["a_st"] / total - 0.5) < 0.05


def test_simulation_determinism():
    mdp = _alternating()
    cond = GbmpCondition(mp_sup=(MpBound(">=", Fr(1, 2), (Fr(1), Fr(0))),))
    _, sol = accepting_mec(mdp, whole(mdp), cond)
    strat = build_witness_strategy(mdp, whole(mdp), sol, cond)
    a = simulate_strategy(strat, 5_000, seed=5).to_text()
    b = simulate_strategy(strat, 5_000, seed=5).to_text()
    assert a == b
    c = simulate_strategy(strat, 5_000, seed=6).to_text()
    assert a != c


HUB = (
    "mdp\nstates h x y\ninit h\n"
    "action h hx : x 1\naction h hy : y 1/3 , h 2/3\n"
    "action x xh : h 1\naction y yh : h 1\n"
)

HUB_DUMP = (
    "steps: 5000\nseed: 11\nepochs: 3\nepoch_steps: 100,3200,1700\n"
    "avg[inf0:>=1/5]: 0.200600\navg[inf1:>=1/7]: 0.151000\n"
    "min_late_avg[inf0:>=1/5]: 0.190087\nmin_late_avg[inf1:>=1/7]: 0.148295\n"
    "action[hx]: 1004\naction[hy]: 2238\naction[xh]: 1003\naction[yh]: 755\n"
)


def _hub_witness(text=HUB):
    """The hub must split its visits between x and y, so the witness draws
    between hx and hy there; the witness is built on the MEC that
    ``mec_decomposition`` finds, whose actions are in name order."""
    mdp, _ = parse_mdp(text)
    (component,) = mec_decomposition(mdp)
    cond = GbmpCondition(mp_inf=(
        MpBound(">=", Fr(1, 5), (Fr(0), Fr(1), Fr(0))),
        MpBound(">=", Fr(1, 7), (Fr(0), Fr(0), Fr(1))),
    ))
    _, sol = accepting_mec(mdp, component, cond)
    return mdp, build_witness_strategy(mdp, component, sol, cond)


def test_witness_choice_draws_keep_the_fraction_sampler_output():
    # The hub's choices are hx and hy with 43/136 and 93/136, written as
    # flows over the solution's denominator; the dump is the one the
    # Fraction sampler gave.
    mdp, strat = _hub_witness()
    assert as_fractions(strat).modes[0][0].choices[0] == ((0, Fr(43, 136)), (1, Fr(93, 136)))
    assert simulate_strategy(strat, 5_000, seed=11).to_text() == HUB_DUMP


def test_witness_choices_follow_the_component_action_order():
    # The same hub with its actions listed in another order: hx and hy are
    # actions 3 and 1 of the MDP, but the component keeps name order, so the
    # LP, the choices at h and every draw are the ones above.
    mdp, strat = _hub_witness(
        "mdp\nstates h x y\ninit h\n"
        "action y yh : h 1\naction h hy : y 1/3 , h 2/3\n"
        "action x xh : h 1\naction h hx : x 1\n"
    )
    assert strat.component.actions == (3, 1, 2, 0)
    assert as_fractions(strat).modes[0][0].choices[0] == ((3, Fr(43, 136)), (1, Fr(93, 136)))
    assert simulate_strategy(strat, 5_000, seed=11).to_text() == HUB_DUMP


def _mixing_witness():
    """Two lim-inf bounds that only a mixture of the s0 and s1 loops meets:
    the one mode has the classes {s0} (mass 9/20) and {s1} (mass 11/20)."""
    mdp, _ = parse_mdp(
        "mdp\nstates s0 s1 s2\ninit s0\n"
        "action s0 go : s0 1/2 , s1 1/2\naction s0 stay0 : s0 1\n"
        "action s1 stay1 : s1 1\naction s1 leave : s0 4/7 , s2 3/7\n"
        "action s2 mix : s0 1/4 , s1 1/2 , s2 1/4\n"
    )
    cond = GbmpCondition(mp_inf=(
        MpBound(">=", Fr(1, 2), (Fr(0), Fr(1), Fr(0))),
        MpBound(">=", Fr(2, 5), (Fr(1), Fr(0), Fr(0))),
    ))
    _, sol = accepting_mec(mdp, whole(mdp), cond)
    return mdp, build_witness_strategy(mdp, whole(mdp), sol, cond)


def test_a_mixing_witness_interleaves_its_classes():
    # The walk alternates between the two loops in rounds of about r * 9/20
    # and r * 11/20 steps, so every running average of the last epoch stays
    # near the mixture; in one block per class, the a-average would end
    # near 0.15.
    mdp, strat = _mixing_witness()
    assert [sorted(c.states) for c in strat.modes[0]] == [[0], [1]]
    weights = [c.weight for c in strat.modes[0]]
    assert [Fr(w, sum(weights)) for w in weights] == [Fr(9, 20), Fr(11, 20)]
    stats = simulate_strategy(strat, 400_000, seed=7)
    assert stats.epoch_steps[:3] == [100, 3_200, 102_400]
    for (label, value), bound in zip(stats.mp_min_late, (0.5, 0.4)):
        assert value >= bound - 0.05, (label, value)
    steps = list(islice(witness_walk(strat, epoch_length, random.Random(7), 0), 3_300))
    switches = sum({a[1], b[1]} == {0, 1} for a, b in zip(steps, steps[1:]))
    assert switches >= 50


class _CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``random()`` calls."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


def test_witness_walk_matches_the_runner_oracle():
    # The walk takes the task-list runner's steps, with the runner drawing
    # choices and successors by Fraction sums, and leaves its RNG where the
    # runner's is: one draw per successor plus one per choice draw.
    # Most random witnesses are one deterministic mode; keep those that
    # draw choices or switch modes.
    rng = random.Random(1515)
    cases = [_hub_witness() + (0,), _mixing_witness() + (2,)]
    while len(cases) < 18:
        mdp = random_strongly_connected_mdp(rng, 5, 3)
        cond = _random_condition(rng, mdp)
        ok, sol = accepting_mec(mdp, whole(mdp), cond)
        if not ok:
            continue
        strat = build_witness_strategy(mdp, whole(mdp), sol, cond)
        choices = [c for mode in strat.modes for cls in mode for _, c in cls.choices.values()]
        if len(strat.modes) >= 2 or max(map(len, choices)) >= 2:
            cases.append((mdp, strat, rng.randrange(len(mdp))))
    steps = 2000
    choice_draws = two_modes = pilgrimages = two_classes = 0
    for k, (mdp, strat, start) in enumerate(cases):
        for schedule in (epoch_length, capped(1), capped(7)):
            ours, oracle = random.Random(k), _CountingRandom(k)
            runner = StrategyRunner(as_fractions(strat), schedule, oracle)
            walk = witness_walk(strat, schedule, ours, start)
            state = start
            visited = False
            for got in islice(walk, steps):
                ai = runner.next_action(state)
                visited |= runner.plan[0][0] == "visit"
                assert got == (runner.epoch, state, ai), (k, schedule)
                state = fraction_sample(dist(mdp.actions[ai]), oracle)
            assert ours.random() == oracle.random(), (k, schedule)
            choice_draws += oracle.calls > steps + 1
            two_modes += len(strat.modes) >= 2 and runner.epoch >= 1
            two_classes += max(map(len, strat.modes)) >= 2
            pilgrimages += visited
    assert min(choice_draws, two_modes, pilgrimages) >= 10 and two_classes >= 3


def _witness_tables(strat):
    """The integer oracle of every draw table a walk of the witness reads:
    the successor table of each component action and the table of each
    randomized choice."""
    actions = strat.mdp.actions
    tables = [int_draw_table(actions[ai].weights) for ai in strat.component.actions]
    for mode in strat.modes:
        for cls in mode:
            tables += [int_draw_table(c) for c in cls.choices.values() if len(c[1]) > 1]
    return tables


def test_walk_draws_at_threshold_edges_match_the_runner():
    # Every draw of a run is one fixed value next to an integer threshold k
    # of a successor or choice table's oracle: (k - 1) / 2**53 stays on the
    # value whose cumulative weight k closes and k / 2**53, the dyadic
    # threshold itself, moves past it, as the runner's Fraction sums decide.
    # Seeded draws almost never land there.  After each step both have
    # drawn equally often.
    rng = random.Random(4242)
    cases = [_hub_witness() + (0,), _mixing_witness() + (2,)]
    while len(cases) < 7:
        mdp = random_strongly_connected_mdp(rng, 4, 3)
        cond = _random_condition(rng, mdp)
        ok, sol = accepting_mec(mdp, whole(mdp), cond)
        if not ok:
            continue
        strat = build_witness_strategy(mdp, whole(mdp), sol, cond)
        if len(_witness_tables(strat)) > len(strat.component.actions):
            cases.append((mdp, strat, rng.randrange(len(mdp))))
    on_edge = {"choice": 0, "successor": 0}
    for k, (mdp, strat, start) in enumerate(cases):
        for u in edge_draws(_witness_tables(strat)):
            for schedule in (capped(1), capped(7)):
                ours, oracle = FixedDraw(u), FixedDraw(u)
                runner = StrategyRunner(as_fractions(strat), schedule, oracle)
                walk = witness_walk(strat, schedule, ours, start)
                state = start
                for got in islice(walk, 120):
                    ai = runner.next_action(state)
                    assert got == (runner.epoch, state, ai), (k, u, schedule)
                    kind, task = runner.plan[0]
                    choices = task[0].choices.get(state, ()) if kind == "play" else ()
                    if len(choices) > 1:
                        on_edge["choice"] += u * 2**53 in int_draw_table(weights_of(choices))[1]
                    table = int_draw_table(mdp.actions[ai].weights)
                    on_edge["successor"] += u * 2**53 in table[1]
                    state = fraction_sample(dist(mdp.actions[ai]), oracle)
                    assert ours.calls == oracle.calls, (k, u, schedule)
    assert min(on_edge.values()) >= 100, on_edge


def _plan_ends(strat, schedule, states):
    """Where the walk that visits ``states`` ends a pilgrimage leg of at
    least one step, an epoch block and an epoch, as sets of step indices
    inside the walk: a leg to target T ends at the next step at T, and the
    ``epoch_blocks`` of the epoch follow the last leg."""
    ends = {"pilgrimage": set(), "block": set(), "epoch": set()}
    i, n = 0, len(states)
    for epoch in count():
        for target, _ in strat.pilgrimage:
            if i < n and states[i] != target:
                while i < n and states[i] != target:
                    i += 1
                ends["pilgrimage"].add(i)
        weights = [c.weight for c in strat.modes[epoch % len(strat.modes)]]
        for _, steps in epoch_blocks(schedule(epoch), weights):
            i += steps
            ends["block"].add(i)
        ends["epoch"].add(i)
        if i >= n:
            return {kind: {e for e in cut if e < n} for kind, cut in ends.items()}


def test_witness_run_takes_the_reference_walk_in_any_chunks():
    # Joined, the run's chunks are the states of the per-step reference
    # walk, and after each chunk both have drawn equally often.  Chunks are
    # cut at half the ends of pilgrimage legs, epoch blocks and epochs, so
    # the other half fall inside a chunk, one step before or after some of
    # those ends (chunks of 1 among them), and at random steps; the draws
    # are seeded, or every draw is one value next to a threshold of the
    # witness's successor and choice tables.
    rng = random.Random(2626)
    cases = [_hub_witness() + (0,), _mixing_witness() + (2,)]
    while len(cases) < 12:
        mdp = random_strongly_connected_mdp(rng, 5, 3)
        cond = _random_condition(rng, mdp)
        ok, sol = accepting_mec(mdp, whole(mdp), cond)
        if not ok:
            continue
        strat = build_witness_strategy(mdp, whole(mdp), sol, cond)
        choices = [c for mode in strat.modes for cls in mode for _, c in cls.choices.values()]
        if strat.pilgrimage or len(strat.modes) >= 2 or max(map(len, choices)) >= 2:
            cases.append((mdp, strat, rng.randrange(len(mdp))))
    cut_at = dict.fromkeys(("pilgrimage", "block", "epoch"), 0)
    inside = dict.fromkeys(cut_at, 0)
    ones = 0
    for k, (mdp, strat, start) in enumerate(cases):
        edges = edge_draws(_witness_tables(strat))
        rngs = [lambda: random.Random(k)]
        rngs += [lambda u=u: FixedDraw(u) for u in rng.sample(edges, min(3, len(edges)))]
        schedules = ((epoch_length, 3_500), (capped(1), 300), (capped(7), 600))
        for schedule, steps in schedules:
            for new_rng in rngs:
                walked = list(islice(witness_walk(strat, schedule, new_rng(), start), steps))
                ends = _plan_ends(strat, schedule, [s for _, s, _ in walked])
                turns = {i for i in range(1, steps) if walked[i][0] != walked[i - 1][0]}
                assert ends["epoch"] == turns, (k, schedule)
                every = sorted(set().union(*ends.values()))
                cuts = set(rng.sample(every, len(every) // 2))
                cuts |= set(rng.sample(range(1, steps), 10))
                cuts |= {e + d for e in rng.sample(sorted(cuts), len(cuts) // 3) for d in (-1, 1)}
                cuts = sorted(c for c in cuts if 0 < c < steps) + [steps]
                ours, theirs = new_rng(), new_rng()
                run = WitnessRun(strat, schedule, ours, start)
                walk = witness_walk(strat, schedule, theirs, start)
                at = 0
                for cut in cuts:
                    want = [s for _, s, _ in islice(walk, cut - at)]
                    assert run.take(cut - at) == want, (k, schedule, at, cut)
                    if isinstance(ours, FixedDraw):
                        assert ours.calls == theirs.calls, (k, schedule, cut)
                    else:
                        assert ours.getstate() == theirs.getstate(), (k, schedule, cut)
                    ones += cut - at == 1
                    for kind, cut_ends in ends.items():
                        cut_at[kind] += cut in cut_ends
                        inside[kind] += any(at < e < cut for e in cut_ends)
                    at = cut
    assert min(cut_at.values()) >= 500 and min(inside.values()) >= 100 and ones >= 500, (
        cut_at, inside, ones)


def test_simulation_builds_each_table_once(monkeypatch):
    # A long run reads compiled records: it builds one successor table per
    # action it takes and one choice table per choice state it draws at,
    # none per step, per epoch or per episode.  The first episode alone
    # touches every action and the choice at h.
    mdp, strat = _hub_witness()
    _, twin = _hub_witness()
    touched = list(islice(witness_walk(twin, epoch_length, random.Random(5), mdp.init), 25_000))
    visited = {s for _, s, _ in touched}
    choice_states = sum(
        len(c[1]) > 1 and s in visited
        for mode in twin.modes
        for cls in mode
        for s, c in cls.choices.items()
    )
    bound = len({ai for _, _, ai in touched}) + choice_states
    built = []

    def counting_draw_table(weights):
        built.append(weights)
        return draw_table(weights)

    monkeypatch.setattr(freqsynth.mdp, "draw_table", counting_draw_table)
    monkeypatch.setattr(freqsynth.mecanalysis, "draw_table", counting_draw_table)
    reach = [acts[0] for acts in mdp.act]
    glob = GlobalStrategy(reach, [strat], dict.fromkeys(strat.component.states, 0))
    simulate_global(mdp, glob, 4, 25_000, 5)
    assert choice_states == 1 and bound == 5
    assert 0 < len(built) <= bound


def test_epoch_lengths():
    assert [epoch_length(t) for t in range(3)] == [100, 3_200, 102_400]
    # 60,000 one-step epochs: a schedule that builds 32**t for every epoch t
    # takes about half a minute; ``capped`` builds none past its cap.
    mdp, strat = _hub_witness()
    run = WitnessRun(strat, capped(1), random.Random(1), 0)
    with time_limit(10):
        assert len(run.take(60_000)) == 60_000
    with pytest.raises(ValueError):
        mdp = _single_loop()
        cond = GbmpCondition(mp_inf=(MpBound(">=", Fr(1), (Fr(1),)),))
        _, sol = accepting_mec(mdp, whole(mdp), cond)
        simulate_strategy(build_witness_strategy(mdp, whole(mdp), sol, cond), 0, seed=1)


def _random_weights(rng):
    """``(den, ((value, w), ...))`` integer weights with small, huge or
    power-of-two denominators, not always the least one; one in eight sums
    to less than ``den``, so the last-value fallback runs."""
    n = rng.randint(1, 5)
    kind = rng.randrange(3)
    if kind == 0:
        weights = [rng.randint(1, 7) for _ in range(n)]
    elif kind == 1:
        weights = [rng.randint(1, 10**20) for _ in range(n)]
    else:
        weights = [2 ** rng.randint(0, 60) for _ in range(n)]
    total = sum(weights)
    if kind == 2:
        total = 1 << total.bit_length()  # cumulative sums land on k / 2**53 or finer
        weights[-1] += total - sum(weights)
    if rng.randrange(8) == 0:
        total += rng.randint(1, total)
    return total, tuple(enumerate(weights))


def test_integer_sampler_matches_fraction_oracle():
    # The integer oracle is built from integer weights; the Fraction oracle
    # compares exact Fraction sums of the same probabilities with the float
    # draw.
    rng = random.Random(5309)
    fixed = [(2, ((0, 1), (1, 1))), (4, ((0, 1), (1, 1), (2, 2)))]
    for case in range(400):
        weights = fixed[case] if case < len(fixed) else _random_weights(rng)
        den = weights[0]
        pairs = tuple((v, Fr(w, den)) for v, w in weights[1])
        table = int_draw_table(weights)
        assert table == int_draw_table(weights_of(pairs))  # any common denominator
        seed = rng.randrange(2**32)
        ours, oracle = random.Random(seed), random.Random(seed)
        for _ in range(100):
            assert draw(table, ours) == fraction_sample(pairs, oracle)
            assert ours.random() == oracle.random()
        # Draws next to each cumulative sum's threshold, on it when the sum
        # is a multiple of 2**-53.
        acc = Fr(0)
        for _, p in pairs:
            acc += p
            edge = acc * 2**53
            for k in {math.floor(edge) - 1, math.floor(edge), math.ceil(edge), math.ceil(edge) + 1}:
                if 0 <= k < 2**53:
                    u = k / 2**53
                    assert draw(table, FixedDraw(u)) == fraction_sample(pairs, FixedDraw(u))


def _extreme_weights(rng):
    """``(den, ((i, w), ...))`` integer weights over values 0..n-1: ``den``
    up to 2**70, a power of 3 or a power of 2, and cut points drawn
    uniformly or within ``den >> 53`` of 0 or of ``den``, so that many
    probabilities lie within 2**-53 of 0 or of 1.  One in eight sums to
    less than ``den``."""
    kind = rng.randrange(3)
    den = (rng.randint(1, 2**70), 3 ** rng.randint(1, 44), 2 ** rng.randint(0, 70))[kind]
    near = max(1, den >> 53)
    cuts = set()
    for _ in range(rng.randint(0, 4)):
        cut = (rng.randint(1, den), rng.randint(1, near), den - rng.randint(1, near))[rng.randrange(3)]
        if 0 < cut < den:
            cuts.add(cut)
    bounds = [0, *sorted(cuts), den]
    pairs = tuple(enumerate(b - a for a, b in zip(bounds, bounds[1:])))
    if rng.randrange(8) == 0:
        den += rng.randint(1, den)
    return den, pairs


def _second_state(strat, u):
    """The second state of the run of ``strat`` from state 0 with every
    draw ``u``."""
    return WitnessRun(strat, epoch_length, FixedDraw(u), 0).take(2)[1]


def _draw_sites(weights):
    """The run's three draws over ``weights``' values: a function of ``u``
    that runs each site with every draw ``u`` and returns what it drew.

    The MDP is a star: state s has the action ``a`` that moves to ``t_i``
    with weight ``w_i`` and the sure actions ``c_i`` to ``t_i``, and each
    ``t_i`` returns to s.  The pilgrimage to ``t_0`` and the class that
    takes ``a`` at s draw the successor of ``a``; the class that chooses
    ``c_i`` with weight ``w_i`` draws the choice.  The MDP needs weights
    that sum to ``den``; otherwise only the choice runs."""
    den, pairs = weights
    n = len(pairs)
    sites = []
    whole_den = sum(w for _, w in pairs) == den
    if whole_den:
        actions = [MdpAction("a", 0, (den, tuple((1 + i, w) for i, w in pairs)))]
    else:
        actions = [MdpAction("a", 0, (1, ((1, 1),)))]
    actions += [MdpAction(f"c{i}", 0, (1, ((1 + i, 1),))) for i in range(n)]
    actions += [MdpAction(f"b{i}", 1 + i, (1, ((0, 1),))) for i in range(n)]
    mdp = Mdp(["s"] + [f"t{i}" for i in range(n)], actions, 0)
    back = {1 + i: (1, ((1 + n + i, 1),)) for i in range(n)}

    def strategy(choice, pilgrimage=()):
        cls = ModeClass(frozenset(range(n + 1)), 1, {0: choice, **back}, {})
        component = Component(tuple(range(n + 1)), tuple(range(len(actions))))
        return Strategy(((cls,),), pilgrimage, GbmpCondition(), component, mdp)

    if whole_den:
        policy = {0: 0, **{1 + i: 1 + n + i for i in range(n)}}
        for strat in (strategy((1, ((0, 1),)), ((1, policy),)), strategy((1, ((0, 1),)))):
            sites.append(lambda u, strat=strat: _second_state(strat, u) - 1)
    choice = strategy((den, tuple((1 + i, w) for i, w in pairs)))
    sites.append(lambda u: _second_state(choice, u) - 1)
    return sites


def test_dyadic_draws_match_the_integer_oracle():
    # Every dyadic table draws the value that the integer table's reference
    # sampler draws, next to and on each threshold T (at (T - 1) / 2**53,
    # T / 2**53 and (T + 1) / 2**53) and at seeded draws: from the table,
    # and through the walk's pilgrimage, class and choice draws.  The
    # weights have denominators up to 2**70 and powers of 3, and many
    # probabilities within 2**-53 of 0 or of 1.
    rng = random.Random(3737)
    cases = [(2, ((0, 1), (1, 1))), (3, ((0, 1), (1, 2))), (2**70, ((0, 1), (1, 2**70 - 1)))]
    cases += [_extreme_weights(rng) for _ in range(2_400)] + [_random_weights(rng) for _ in range(400)]
    near = {"0": 0, "1": 0, "walked": 0, "fallback": 0}
    for weights in cases:
        den, pairs = weights
        table = draw_table(weights)
        oracle = int_draw_table(weights)
        assert table == (oracle[0], tuple(t * 2.0**-53 for t in oracle[1]))
        assert_dyadic_draws_match(table, weights, rng, seeded=5)
        if all(v == i for i, (v, _) in enumerate(pairs)):
            sites = _draw_sites(weights)
            for u in edge_draws([oracle], (-1, 0, 1)) + [rng.random() for _ in range(5)]:
                want = draw(oracle, FixedDraw(u))
                assert [site(u) for site in sites] == [want] * len(sites), (weights, u)
            near["walked"] += len(sites) == 3
        near["0"] += any(w << 53 <= den for _, w in pairs)
        near["1"] += any((den - w) << 53 <= den for _, w in pairs) and len(pairs) > 1
        near["fallback"] += sum(w for _, w in pairs) < den
    assert min(near.values()) >= 200 and near["walked"] >= 2_000, near
