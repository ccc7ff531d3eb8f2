"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and scale is pinned here.
"""

import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as Fr

import pytest

from freqsynth import synthesis
from freqsynth.boolfn import step, unfold
from freqsynth.dgrma import GbmpCondition, MpBound, accepts_lasso, build_dgrma, rec_set, run_cycle
from freqsynth.formula import always, eventually, parse_formula, tt
from freqsynth.lasso import models
from freqsynth.mdp import Mdp, parse_mdp, product_mdp
from freqsynth.mecanalysis import build_lp, build_witness_strategy
from freqsynth.simplex import OPTIMAL, SimplexError
from freqsynth.slave import (
    assumption_conj,
    buchi_accepting_sets,
    build_count_lts,
    build_master,
    build_slave_lts,
    build_token_lts,
    cobuchi_rejecting_sets,
    mp_reward,
)
from freqsynth.synthesis import accepting_mec, lift_pair, max_reach, synthesize, winning_union

from helpers import (
    as_fractions,
    assert_witness_keeps_fraction_formulas,
    chain_bsccs,
    chain_pipeline_probability,
    corpus_formulas,
    decide_then_maximize_margin,
    enumerate_md_strategies,
    flow_system_lp,
    freq_on_lasso,
    hull_accepts,
    md_strategy_satisfies,
    models_boolfn,
    random_fragment_formula,
    random_lasso,
    random_markov_chain,
    random_strongly_connected_mdp,
    random_ufree_formula,
    rec_truth,
    simulate_strategy,
    start_outcome,
    state_at,
    stationary_distribution,
    whole,
)


def _report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_translation_equivalence():
    started = time.time()
    formulas = corpus_formulas()
    assert len(formulas) >= 25
    mismatches = 0
    checks = 0
    for k, phi in enumerate(formulas):
        aut = build_dgrma(phi, cap=50_000)
        atoms = sorted(aut.lts.atoms) or ["a"]
        rng = random.Random(10_000 + k)
        for _ in range(500):
            w = random_lasso(rng, 6, 6, atoms)
            checks += 1
            if accepts_lasso(aut, w) != models(w, phi):
                mismatches += 1
    elapsed = time.time() - started
    assert mismatches == 0
    assert elapsed < 300
    _report(
        "criterion 1 (translation equivalence)",
        f"{len(formulas)} formulas x 500 lassos = {checks} checks, "
        f"0 mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_unfolding_lemma():
    rng = random.Random(220_000)
    failures = 0
    for _ in range(10_000):
        phi = random_fragment_formula(rng, rng.randint(1, 9), ["a", "b", "c"])
        w = random_lasso(rng, 5, 5, ["a", "b", "c"])
        lhs = models(w, phi)
        rhs = models_boolfn(w, step(unfold(phi), w.letter(0)), 1)
        if lhs != rhs:
            failures += 1
    assert failures == 0
    _report("criterion 2 (unfolding lemma)", "10000 pairs, 0 failures")


def test_criterion_3_master_local_correctness():
    failures = 0
    checks = 0
    for k, phi in enumerate(corpus_formulas()):
        master = build_master(phi)
        rng = random.Random(330_000 + k)
        for _ in range(60):
            w = random_lasso(rng, 6, 6, sorted(master.atoms | {"a", "b", "c"}))
            expected = models(w, phi)
            q = master.init
            for n in range(len(w.stem) + 3 * len(w.loop) + 1):
                checks += 1
                if models_boolfn(w, master.states[q], n) != expected:
                    failures += 1
                q = master.successor(q, w.letter(n))
    assert failures == 0
    _report(
        "criterion 3 (master local correctness)",
        f"{checks} position checks, 0 failures",
    )


def test_criterion_4_slave_correctness():
    rng = random.Random(440_000)
    trials = 0
    failures = 0
    while trials < 2_000:
        xi = random_ufree_formula(rng, rng.randint(1, 7), ["a", "b"])
        slave = build_slave_lts(xi, ap={"a", "b"})
        token = build_token_lts(slave)
        count = build_count_lts(slave)
        rec = rec_set(xi)
        for _ in range(4):
            w = random_lasso(rng, 5, 5, ["a", "b"])
            R = assumption_conj(rec_truth(w, rec))
            trials += 1
            _, tcycle = run_cycle(token, w)
            buchi = bool(frozenset(tcycle) & buchi_accepting_sets(slave, token, R))
            if buchi != models(w, always(eventually(xi))):
                failures += 1
            cobuchi = not (
                frozenset(tcycle) & cobuchi_rejecting_sets(slave, token, R)
            )
            if cobuchi != models(w, eventually(always(xi))):
                failures += 1
            rewards = mp_reward(slave, count, R)
            _, ccycle = run_cycle(count, w)
            avg = Fr(sum(rewards[q] for q in ccycle), len(ccycle))
            if avg != freq_on_lasso(w, xi):
                failures += 1
    assert failures == 0
    _report(
        "criterion 4 (slave correctness)",
        f"{trials} trials x 3 equivalences, 0 failures",
    )


def _random_instances():
    """Criterion 5/6 instance pool: strongly connected MDPs and conditions."""
    rng = random.Random(550_000)
    instances = []
    for _ in range(200):
        mdp = random_strongly_connected_mdp(rng, 4, 3)

        def reward():
            return tuple(Fr(rng.randint(0, 8), 8) for _ in mdp.states)

        mp_inf = tuple(
            MpBound(rng.choice([">=", ">"]), Fr(rng.randint(0, 8), 8), reward())
            for _ in range(rng.randint(0, 2))
        )
        mp_sup = tuple(
            MpBound(rng.choice([">=", ">"]), Fr(rng.randint(0, 8), 8), reward())
            for _ in range(rng.randint(0, 2))
        )
        inf_sets = ()
        if rng.random() < 0.5:
            inf_sets = (
                frozenset(rng.sample(range(len(mdp)), rng.randint(1, len(mdp)))),
            )
        instances.append((mdp, GbmpCondition(inf_sets, mp_inf, mp_sup)))
    return instances


@pytest.fixture(scope="module")
def instance_pool():
    return _random_instances()


def _mixing_instances():
    """Strongly connected MDPs with one inf and two sup bounds, each on or
    just below a mixture of the reward vectors of two MD-strategy BSCCs, so
    that some are met only by mixing recurrent classes."""
    rng = random.Random(551_000)
    instances = []
    for _ in range(200):
        mdp = random_strongly_connected_mdp(rng, 4, 3)
        rewards = [tuple(Fr(rng.randint(0, 4), 4) for _ in mdp.states) for _ in range(3)]
        policies = list(enumerate_md_strategies(mdp))
        vertices = []
        for _ in range(2):
            policy = rng.choice(policies)
            bscc = rng.choice(chain_bsccs(mdp, policy))
            pi = stationary_distribution(mdp, policy, bscc)
            vertices.append([sum(pi[s] * r[s] for s in bscc) for r in rewards])
        weight = Fr(rng.randint(1, 3), 4)
        bounds = [
            MpBound(
                rng.choice([">=", ">"]),
                max(weight * u + (1 - weight) * v - Fr(rng.randint(0, 1), 20), Fr(0)),
                r,
            )
            for u, v, r in zip(*vertices, rewards)
        ]
        instances.append((mdp, GbmpCondition((), tuple(bounds[:1]), tuple(bounds[1:]))))
    return instances


def _check_against_hull(instances):
    """Assert that every verdict is the hull oracle's; returns the numbers
    of rejections and of acceptances that no MD strategy witnesses."""
    rejected = mixed = 0
    for idx, (mdp, cond) in enumerate(instances):
        ok, _ = accepting_mec(mdp, whole(mdp), cond)
        assert ok == hull_accepts(mdp, cond), idx
        rejected += not ok
        mixed += ok and not any(
            md_strategy_satisfies(mdp, list(policy), cond)
            for policy in enumerate_md_strategies(mdp)
        )
    return rejected, mixed


def test_criterion_5_lp_vs_md_oracle(instance_pool):
    # The verdict equals the hull oracle's both ways, so no MD strategy
    # satisfies a rejected condition.
    rejected, mixed = _check_against_hull(instance_pool)
    assert 0 < rejected < len(instance_pool)
    _report(
        "criterion 5 (LP vs MD-BSCC hull oracle)",
        f"{len(instance_pool)} instances, {rejected} rejections, "
        f"{mixed} acceptances without an MD witness, 0 mismatches",
    )


@pytest.fixture(scope="module")
def mixing_pool():
    return _mixing_instances()


def test_criterion_5_hull_oracle_on_mixed_bounds(mixing_pool):
    rejected, mixed = _check_against_hull(mixing_pool)
    assert 0 < rejected < len(mixing_pool)
    assert mixed > 0
    _report(
        "criterion 5 (LP vs hull oracle, mixed bounds)",
        f"{len(mixing_pool)} instances, {rejected} rejections, "
        f"{mixed} acceptances without an MD witness, 0 mismatches",
    )


def test_start_basis_changes_no_flow_lp_result(instance_pool, mixing_pool):
    # Both flow systems of every instance solve from their start basis.  One
    # with an objective comes back with the plain solve's result.  One
    # without (no bound, or a slack system with no strict bound) keeps the
    # start's vertex, which meets every row exactly, with the plain solve's
    # status.
    for pool in (instance_pool, mixing_pool):
        outcomes = Counter(
            start_outcome(*flow_system_lp(build_lp(mdp, whole(mdp), cond, margin)))
            for mdp, cond in pool
            for margin in (True, False)
        )
        assert "no start" not in outcomes and outcomes["start vertex"] >= 30, outcomes
        assert outcomes[OPTIMAL] >= 30, outcomes


def test_verify_solution_checks_bounds_against_the_condition(mixing_pool, monkeypatch):
    # A build_lp that compares inf bounds with 0 in every flow block after
    # the first lets flow 1 miss the inferior bound; the check reads the
    # condition's rewards, not the faulty row, and names the flow and bound.
    def mutant(mdp, component, cond, margin=True):
        system = real_build_lp(mdp, component, cond, margin)
        block = len(system.rows) // system.num_flows
        for r in range(block, len(system.rows)):
            if 0 <= r % block - 1 - len(mdp) < len(cond.mp_inf):
                nums, rel, _, den = system.rows[r]
                system.rows[r] = nums, rel, 0, den
        return system

    real_build_lp = synthesis.build_lp
    monkeypatch.setattr(synthesis, "build_lp", mutant)
    raised = 0
    for mdp, cond in mixing_pool:
        try:
            accepting_mec(mdp, whole(mdp), cond)
        except SimplexError as exc:
            assert str(exc) == "flow 1 violates inferior bound 0"
            raised += 1
    assert raised > 0


def test_witness_classes_mix_to_the_flow_rewards(instance_pool, mixing_pool):
    # Each mode's classes, weighted by their flow mass and read at their
    # exact stationary distributions under ``choices``, give every bound
    # the reward of the flow the mode was built from.
    modes = 0
    for idx, (mdp, cond) in enumerate(instance_pool + mixing_pool):
        ok, sol = accepting_mec(mdp, whole(mdp), cond)
        if not ok:
            continue
        strat = build_witness_strategy(mdp, whole(mdp), sol, cond)
        assert all(sum(cls.weight for cls in mode) == sol.den for mode in strat.modes), idx
        flows, _ = as_fractions(sol)
        for flow, mode in zip(flows, as_fractions(strat).modes):
            pis = [
                stationary_distribution(mdp, cls.choices, sorted(cls.states))
                for cls in mode
            ]
            for bound in cond.mp_inf + cond.mp_sup:
                reward = bound.reward
                own = sum(v * reward[a.source] for v, a in zip(flow, mdp.actions))
                mixed = sum(
                    cls.weight * sum(p * reward[s] for s, p in pi.items())
                    for cls, pi in zip(mode, pis)
                )
                assert mixed == own, idx
            modes += 1
    assert modes > 0


def test_witness_draws_and_shares_keep_the_fraction_formulas(instance_pool, mixing_pool):
    # Choices and class weights over the solution's denominator give every
    # draw table and epoch share of the Fraction flows, multi-class modes
    # included.
    witnesses = multi = 0
    for mdp, cond in instance_pool + mixing_pool:
        ok, sol = accepting_mec(mdp, whole(mdp), cond)
        if ok:
            strat = build_witness_strategy(mdp, whole(mdp), sol, cond)
            multi += assert_witness_keeps_fraction_formulas(strat, sol)
            witnesses += 1
    assert witnesses >= 200 and multi >= 10, (witnesses, multi)


def test_one_lp_witness_matches_decide_then_margin(instance_pool):
    """The single-LP decision returns the verdict and the witness flows of
    the earlier sequence: decide with the slack LP, then re-solve for the
    largest shared margin and keep it unless a strict bound leaves it at 0."""
    accepted = 0
    for idx, (mdp, cond) in enumerate(instance_pool):
        expected = decide_then_maximize_margin(mdp, cond)
        assert accepting_mec(mdp, whole(mdp), cond) == expected, idx
        accepted += expected[0]
    assert 0 < accepted < len(instance_pool)


REALIZATION_TOLERANCE = 0.05


def _check_realization(instances, seed):
    """Simulate the witness of every accepted instance for 1e5 steps from
    ``seed + idx``: each lim-inf bound's late running average and each
    lim-sup bound's best running average come within the tolerance of the
    bound, and every complete epoch visits each Inf set.  Returns the
    numbers of witnesses simulated and of those with a mode of more than
    one class."""
    tol = REALIZATION_TOLERANCE
    simulated = mixing = 0
    for idx, (mdp, cond) in enumerate(instances):
        ok, witness = accepting_mec(mdp, whole(mdp), cond)
        if not ok:
            continue
        simulated += 1
        strat = build_witness_strategy(mdp, whole(mdp), witness, cond)
        mixing += max(map(len, strat.modes)) > 1
        stats = simulate_strategy(strat, 100_000, seed=seed + idx)
        for (label, value), bound in zip(stats.mp_min_late, cond.mp_inf):
            assert value >= float(bound.bound) - tol, (idx, label, value)
        for (label, value), bound in zip(stats.mp_max_prefix, cond.mp_sup):
            assert value >= float(bound.bound) - tol, (idx, label, value)
        for visits in stats.inf_visits_per_epoch:
            complete = visits if stats.epoch_steps[-1] >= 50 else visits[:-1]
            assert all(v >= 1 for v in complete), (idx, visits)
    return simulated, mixing


def test_criterion_6_witness_realization(instance_pool):
    simulated, _ = _check_realization(instance_pool, 660_000)
    assert simulated > 0
    _report(
        "criterion 6 (witness realization)",
        f"{simulated} accepting instances simulated at 1e5 steps, "
        f"all bounds within {REALIZATION_TOLERANCE}",
    )


def test_criterion_6_witness_realization_on_mixed_bounds(mixing_pool):
    # The pool's bounds sit on or just below mixtures of two MD-strategy
    # classes, so some witnesses must interleave the classes of a mode.
    simulated, mixing = _check_realization(mixing_pool, 661_000)
    assert simulated > 0 and mixing > 0
    _report(
        "criterion 6 (witness realization, mixed bounds)",
        f"{simulated} accepting instances simulated at 1e5 steps, "
        f"{mixing} with a multi-class mode, all bounds within {REALIZATION_TOLERANCE}",
    )


def test_criterion_7_markov_chain_cross_validation():
    rng = random.Random(770_000)
    formulas = [phi for phi in corpus_formulas() if phi.kind not in ("tt", "ff")][:10]
    mismatches = 0
    combos = 0
    for _ in range(20):
        chain, valuation = random_markov_chain(rng, 6)
        for phi in formulas:
            combos += 1
            report = synthesize(chain, valuation, phi, Fr(1, 2))
            product, comp = product_mdp(chain, valuation, report.automaton.lts)
            lifted = [lift_pair(p, comp) for p in report.automaton.pairs]
            if report.probability != chain_pipeline_probability(product, lifted):
                mismatches += 1
    assert mismatches == 0
    _report(
        "criterion 7 (Markov-chain cross-validation)",
        f"20 chains x {len(formulas)} formulas = {combos} rounds, 0 mismatches",
    )


def test_criterion_8_qualitative_dichotomy():
    rng = random.Random(880_000)
    checked = 0
    for _ in range(25):
        mdp = random_strongly_connected_mdp(rng, 4, 3)
        reward = tuple(Fr(rng.randint(0, 4), 4) for _ in mdp.states)
        cond = GbmpCondition(
            inf_sets=(frozenset({rng.choice(range(len(mdp)))}),),
            mp_inf=(
                MpBound(rng.choice([">=", ">"]), Fr(rng.randint(0, 4), 4), reward),
            ),
        )
        answers = set()
        for init in range(len(mdp)):
            shifted = Mdp(mdp.states, mdp.actions, init)
            valuation = [frozenset() for _ in mdp.states]
            aut = build_dgrma(tt())
            product, comp = product_mdp(shifted, valuation, aut.lts)
            # The MDP state of each product state, where its rewards are read.
            model_state = [state_at(mdp, name.split("@")[0]) for name in product.states]
            lifted_cond = GbmpCondition(
                inf_sets=tuple(
                    frozenset(p for p, s in enumerate(model_state) if s in inf)
                    for inf in cond.inf_sets
                ),
                mp_inf=cond.mp_inf,
                at=model_state,
            )
            w_states, _ = winning_union(product, [(frozenset(), lifted_cond)])
            if w_states:
                values, _ = max_reach(product, w_states)
                answers.add(values[product.init])
            else:
                answers.add(Fr(0))
        checked += 1
        assert len(answers) == 1
        assert answers.pop() in (Fr(0), Fr(1))
    _report(
        "criterion 8 (qualitative dichotomy)",
        f"{checked} strongly connected instances, all initial states agree on 0/1",
    )


def test_criterion_9_determinism(tmp_path):
    model = tmp_path / "m.mdp"
    model.write_text(
        "mdp\nstates s0 s1\ninit s0\nlabel s0 a\n"
        "action s0 go : s0 1/2 , s1 1/2\naction s1 stay : s1 1\n"
    )

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "freqsynth.cli", *args],
            capture_output=True,
            text=True,
        )
        return proc.stdout

    dot1, dot2 = tmp_path / "d1.dot", tmp_path / "d2.dot"
    synth = [
        "synth", "--model", str(model), "--formula", "G{>=1/2,inf} a | F !a",
        "--threshold", "1/2",
    ]
    out1 = run(*synth, "--dot", str(dot1))
    out2 = run(*synth, "--dot", str(dot2))
    assert out1 == out2
    assert dot1.read_bytes() == dot2.read_bytes()

    aut = ["automaton", "--formula", "G(X a | G X b)"]
    assert run(*aut) == run(*aut)

    sim = [
        "simulate", "--model", str(model), "--formula", "F G !a",
        "--steps", "20000", "--seed", "17", "--episodes", "2",
    ]
    assert run(*sim) == run(*sim)
    _report(
        "criterion 9 (determinism)",
        "byte-identical reports, DOT files and simulation dumps on reruns",
    )
