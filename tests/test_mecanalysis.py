import random
from fractions import Fraction as Fr

import pytest

from freqsynth.mdp import parse_mdp
from freqsynth.mecanalysis import (
    EpochSchedule,
    GbmpCondition,
    MpBound,
    accepting_mec,
    build_lp,
    build_witness_strategy,
    lp_feasible,
    maximize_margin,
    simulate_strategy,
)

from helpers import (
    enumerate_md_strategies,
    md_strategy_satisfies,
    random_strongly_connected_mdp,
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
    feasible = GbmpCondition(mp_inf=(MpBound(">=", Fr(1), {"s": Fr(1)}),))
    sol = lp_feasible(build_lp(mdp, feasible))
    assert sol is not None and sol.flow(0, "alpha") == 1
    impossible = GbmpCondition(mp_inf=(MpBound(">=", Fr(2), {"s": Fr(1)}),))
    assert lp_feasible(build_lp(mdp, impossible)) is None


def test_alternating_cycle_flow():
    mdp = _alternating()
    q = {"s": Fr(1), "t": Fr(0)}
    cond = GbmpCondition(mp_sup=(MpBound(">=", Fr(1, 2), q),))
    sol = lp_feasible(build_lp(mdp, cond))
    assert sol is not None
    assert sol.flow(0, "a_st") == Fr(1, 2)
    assert sol.flow(0, "b_ts") == Fr(1, 2)
    assert sol.flow(0, "b_tt") == 0


def test_flow_block_shapes():
    mdp = _alternating()
    q = {"s": Fr(1), "t": Fr(0)}
    cond = GbmpCondition(
        mp_inf=(MpBound(">=", Fr(0), q),),
        mp_sup=(MpBound(">=", Fr(0), q), MpBound(">=", Fr(1, 2), q)),
    )
    system = build_lp(mdp, cond)
    assert system.num_flows == 2
    assert system.num_vars == 2 * len(mdp.actions)
    # Per flow: one normalization row, one balance row per state, one row per
    # inferior bound, and exactly one superior row.
    assert len(system.rows) == 2 * (1 + len(mdp) + 1 + 1)
    degenerate = build_lp(mdp, GbmpCondition(mp_inf=(MpBound(">=", Fr(0), q),)))
    assert degenerate.num_flows == 1


def test_strict_bounds_need_positive_slack():
    mdp = _alternating()
    q = {"s": Fr(1), "t": Fr(0)}
    boundary = GbmpCondition(mp_sup=(MpBound(">", Fr(1, 2), q),))
    assert lp_feasible(build_lp(mdp, boundary)) is None
    below = GbmpCondition(mp_sup=(MpBound(">", Fr(1, 3), q),))
    sol = lp_feasible(build_lp(mdp, below))
    assert sol is not None and sol.slack > 0


def test_mixed_strict_bounds_fall_back_to_slack_lp():
    # ">= 1/2" caps the shared margin at 0, yet "> 1/3" holds with slack 1/6
    # when the frequency of s is exactly 1/2.
    mdp = _alternating()
    q = {"s": Fr(1), "t": Fr(0)}
    cond = GbmpCondition(mp_inf=(MpBound(">=", Fr(1, 2), q), MpBound(">", Fr(1, 3), q)))
    assert maximize_margin(build_lp(mdp, cond)).slack == 0
    ok, sol = accepting_mec(mdp, cond)
    assert ok
    assert sol.slack == Fr(1, 6)
    assert sol.flow(0, "a_st") == Fr(1, 2)


def test_accepting_mec_inf_set_check():
    mdp = _alternating()
    cond = GbmpCondition(inf_sets=(frozenset({"nowhere"}),))
    assert accepting_mec(mdp, cond) == (False, None)
    ok, sol = accepting_mec(
        mdp, GbmpCondition(inf_sets=(frozenset({"t"}),))
    )
    assert ok and sol is not None


def test_lp_dump_is_readable():
    mdp = _single_loop()
    cond = GbmpCondition(mp_inf=(MpBound(">=", Fr(1), {"s": Fr(1)}),))
    text = build_lp(mdp, cond).dump()
    assert "x[1,alpha]" in text and ">= 1" in text


def test_lp_independent_of_initial_state():
    from freqsynth.mdp import Mdp

    mdp = _alternating()
    cond = GbmpCondition(mp_sup=(MpBound(">=", Fr(1, 2), {"s": Fr(1), "t": Fr(0)}),))
    rows_from_s = build_lp(mdp, cond).rows
    shifted = Mdp(mdp.states, mdp.actions, 1)
    rows_from_t = build_lp(shifted, cond).rows
    assert rows_from_s == rows_from_t


def test_lp_vs_md_strategy_oracle_small():
    # Smaller-scale version of the acceptance criterion: LP infeasibility
    # must imply no deterministic memoryless strategy works.
    rng = random.Random(71)
    checked = 0
    for _ in range(60):
        mdp = random_strongly_connected_mdp(rng, 4, 3)
        cond = _random_condition(rng, mdp)
        ok, _ = accepting_mec(mdp, cond)
        if ok:
            continue
        checked += 1
        for policy in enumerate_md_strategies(mdp):
            assert not md_strategy_satisfies(mdp, list(policy), cond)
    assert checked > 5


def _random_condition(rng, mdp):
    def reward():
        return {s: Fr(rng.randint(0, 4), 4) for s in mdp.states}

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
        inf_sets = (frozenset(rng.sample(mdp.states, rng.randint(1, len(mdp)))),)
    return GbmpCondition(inf_sets, mp_inf, mp_sup)


def test_witness_single_action_deterministic():
    mdp = _single_loop()
    cond = GbmpCondition(mp_inf=(MpBound(">=", Fr(1), {"s": Fr(1)}),))
    ok, sol = accepting_mec(mdp, cond)
    strat = build_witness_strategy(mdp, sol, cond)
    assert len(strat.modes) == 1
    classes = strat.modes[0].classes
    assert len(classes) == 1
    ((ai, p),) = classes[0].choices[0]
    assert p == 1


def test_witness_simulation_alternating():
    mdp = _alternating()
    q = {"s": Fr(1), "t": Fr(0)}
    cond = GbmpCondition(
        inf_sets=(frozenset({"t"}),),
        mp_sup=(MpBound(">=", Fr(1, 2), q),),
    )
    ok, sol = accepting_mec(mdp, cond)
    assert ok
    strat = build_witness_strategy(mdp, sol, cond)
    stats = simulate_strategy(mdp, strat, 100_000, seed=2024)
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
    cond = GbmpCondition(mp_sup=(MpBound(">=", Fr(1, 2), {"s": Fr(1), "t": Fr(0)}),))
    _, sol = accepting_mec(mdp, cond)
    strat = build_witness_strategy(mdp, sol, cond)
    a = simulate_strategy(mdp, strat, 5_000, seed=5).to_text()
    b = simulate_strategy(mdp, strat, 5_000, seed=5).to_text()
    assert a == b
    c = simulate_strategy(mdp, strat, 5_000, seed=6).to_text()
    assert a != c


def test_schedule_cap():
    sched = EpochSchedule(base=10, ratio=2, cap=25)
    assert [sched.length(t) for t in range(4)] == [10, 20, 25, 25]
    with pytest.raises(ValueError):
        mdp = _single_loop()
        cond = GbmpCondition(mp_inf=(MpBound(">=", Fr(1), {"s": Fr(1)}),))
        _, sol = accepting_mec(mdp, cond)
        simulate_strategy(mdp, build_witness_strategy(mdp, sol, cond), 0, seed=1)
