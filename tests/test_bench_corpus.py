"""The benchmark corpus through the analysis layers: the index components
of every pair's restriction against the rescan oracles, the number of LP
solves, pivots and tie re-solves per corpus, and its witnesses and draw
tables against the Fraction formulas and the integer draw oracle.  The
corpus comes from ``bench/workloads.py``, which imports nothing from
freqsynth; nothing under bench/ is written.  The workloads' ring builder
also makes larger ladder rings, on which the bound-free flow system's
pivots are counted and the simulation bytes of bound-free witnesses are
checked against witnesses solved without a start."""

import json
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from freqsynth import cli, simplex, synthesis
from freqsynth.dgrma import build_dgrma
from freqsynth.formula import parse_formula, parse_rational
from freqsynth.graph import mec_decomposition, restrict
from freqsynth.mdp import Mdp, MdpAction, parse_mdp, product_mdp, weights_of
from freqsynth.synthesis import lift_pair, simulate_global, synthesize

from helpers import (
    as_fractions,
    assert_dyadic_draws_match,
    assert_winners_hold_their_states,
    assert_witness_keeps_fraction_formulas,
    component_names,
    rescan_mec_decomposition,
    rescan_restrict,
    ring_mdp,
    start_flow,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# ``simplex.solve_lp`` calls per corpus, each run in a fresh process.  A
# decision key that misses a memo or refutation hit (the same restricted
# rewards keyed apart, say) solves more.
SOLVES = {"lp_mec": 144, "reach_ruin": 90, "translate_wide": 87}
# ``simplex._pivot`` calls in the same runs.  Each translate_wide component
# is decided against several pairs; its start crash is made once per call,
# when its block is built, and every LP copies it in; with a crash per LP it
# reads 1450.  lp_mec and reach_ruin solve one LP per component.
PIVOTS = {"lp_mec": 2917, "reach_ruin": 90, "translate_wide": 880}
# ``simplex._solve`` runs in the same runs: one per solve, plus one for each
# tied optimum, which ``solve_lp`` solves again from the artificial basis
# (18 of translate_wide's 87 LPs).  A change to the tie rate shows here.
RUNS = {"lp_mec": 144, "reach_ruin": 90, "translate_wide": 105}

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run, workloads

cli = run.load_freqsynth()
from freqsynth import simplex
from freqsynth.formula import parse_formula, parse_rational
from freqsynth.mdp import parse_mdp
from freqsynth.synthesis import synthesize

calls, pivots, runs = [], [], []
real_solve, real_pivot, real_run = simplex.solve_lp, simplex._pivot, simplex._solve
simplex.solve_lp = lambda *args: calls.append(1) or real_solve(*args)
simplex._pivot = lambda *args: pivots.append(1) or real_pivot(*args)
simplex._solve = lambda *args: runs.append(1) or real_run(*args)
for inst in workloads.corpus(sys.argv[2]):
    mdp, valuation = parse_mdp(inst.model)
    synthesize(mdp, valuation, parse_formula(inst.formula), parse_rational(inst.threshold))
print(json.dumps([len(calls), len(pivots), len(runs)]))
"""


def test_index_components_match_the_rescan_oracles_on_the_corpus():
    # Per corpus instance and distinct Fin set, the components of the
    # restricted product, mapped to names, are the MECs of the rescanned
    # sub-MDP: the same states, actions in name order, MECs by least name.
    instances = fins = components = 0
    for name in workloads.WORKLOADS:
        for inst in workloads.corpus(name):
            mdp, valuation = parse_mdp(inst.model)
            aut = build_dgrma(parse_formula(inst.formula))
            product, automaton_component = product_mdp(mdp, valuation, aut.lts)
            seen = set()
            for pair in aut.pairs:
                fin, _ = lift_pair(pair, automaton_component)
                if fin in seen:
                    continue
                seen.add(fin)
                part = restrict(product, fin)
                got = [] if part is None else mec_decomposition(product, part)
                sub = rescan_restrict(product, [product.states[s] for s in fin])
                want = [] if sub is None else rescan_mec_decomposition(sub)
                assert [component_names(product, c) for c in got] == want, inst.key
                components += len(got)
            fins += len(seen)
            instances += 1
    assert instances == 264
    assert fins > instances and components > instances


def test_lp_solves_per_corpus_stay_pinned(tmp_path):
    for name, solves in SOLVES.items():
        proc = subprocess.run(
            [sys.executable, "-B", "-c", SCRIPT, str(BENCH), name],
            capture_output=True,
            text=True,
            timeout=600,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [solves, PIVOTS[name], RUNS[name]], name


def test_one_pass_over_a_plan_translates_each_formula_once(tmp_path, capsys):
    # The benchmark's warm-up runs each formula once so that no timed call
    # translates; that holds only if the kept automata cover every formula
    # of a plan, whose calls alternate formulas.
    for name, formulas in (("lp_mec", 4), ("reach_ruin", 2), ("translate_wide", 1)):
        plan = workloads.plan(name, 1, workloads.calls(name, 96))
        build_dgrma.cache_clear()
        for inst in plan:
            path = tmp_path / f"{inst.key.replace('/', '-')}.mdp"
            path.write_text(inst.model, encoding="utf-8")
            argv = ["synth", "--model", str(path), "--formula", inst.formula,
                    "--threshold", inst.threshold]
            assert cli.main(argv) in (0, 1), inst.key
        capsys.readouterr()
        assert len({inst.formula for inst in plan}) == formulas, name
        assert build_dgrma.cache_info().misses == formulas, name


@cache
def _corpus_reports() -> list:
    """The report of every corpus instance that has a strategy."""
    reports = []
    for name in workloads.WORKLOADS:
        for inst in workloads.corpus(name):
            mdp, valuation = parse_mdp(inst.model)
            report = synthesize(
                mdp, valuation, parse_formula(inst.formula), parse_rational(inst.threshold)
            )
            if report.strategy is not None:
                reports.append(report)
    return reports


def test_corpus_witnesses_keep_the_fraction_formulas():
    # Every witness of the corpus, against the solution it was built from:
    # the first winner on its component, in pair order; each winning state
    # maps to a winner that holds it.
    witnesses = 0
    for report in _corpus_reports():
        assert_winners_hold_their_states(report)
        sols = {}
        for winners in report.outcomes:
            for component, sol in winners:
                sols.setdefault(component, sol)
        for strategy in report.strategy.winners:
            assert_witness_keeps_fraction_formulas(strategy, sols[strategy.component])
            witnesses += 1
    assert witnesses == 214


def test_corpus_draws_match_the_integer_oracle():
    # Every table that simulating the corpus can read, its witnesses'
    # successor and compiled choice tables and its reachability selectors'
    # successor tables, draws what the integer table's reference sampler
    # draws on and next to each threshold and at seeded draws.
    rng = random.Random(3838)
    witnesses = tables = choices = 0
    for report in _corpus_reports():
        actions, strategy = report.product.actions, report.strategy
        taken = {ai for ai in strategy.reach if ai is not None}
        for witness in strategy.winners:
            taken.update(witness.component.actions)
            for mode, mode_steps in zip(witness.modes, witness.steps[1]):
                for cls, (_, compile) in zip(mode, mode_steps):
                    for s, weights in cls.choices.items():
                        if len(weights[1]) > 1:
                            _, values, thresholds = compile(s)
                            table = (tuple(record[0] for record in values), thresholds)
                            assert_dyadic_draws_match(table, weights, rng)
                            choices += 1
            witnesses += 1
        for ai in sorted(taken):
            assert_dyadic_draws_match(actions[ai].table, actions[ai].weights, rng)
            tables += 1
    # No corpus witness draws a choice; the walks' own tests cover those.
    assert (witnesses, choices) == (214, 0) and tables > 5_000, (witnesses, tables, choices)


def test_flow_blocks_live_for_one_call(monkeypatch):
    # A translate_wide instance decides its components against several
    # pairs.  Within one call they share each component's start crash, so
    # the call makes fewer pivots than with a crash per LP; nothing is kept
    # between calls, so a second call makes as many pivots as the first.
    pivots = []
    real_pivot, real_decide = simplex._pivot, synthesis.accepting_mec
    monkeypatch.setattr(simplex, "_pivot", lambda *args: pivots.append(1) or real_pivot(*args))
    inst = workloads.corpus("translate_wide")[0]
    mdp, valuation = parse_mdp(inst.model)
    phi, threshold = parse_formula(inst.formula), parse_rational(inst.threshold)
    counts = []
    for _ in range(2):
        pivots.clear()
        synthesize(mdp, valuation, phi, threshold)
        counts.append(len(pivots))
    monkeypatch.setattr(synthesis, "accepting_mec", lambda m, c, cond, blocks: real_decide(m, c, cond))
    pivots.clear()
    synthesize(mdp, valuation, phi, threshold)
    assert counts[0] == counts[1] < len(pivots), (counts, len(pivots))


def test_bound_free_corpus_systems_keep_the_start_policys_stationary_flow(monkeypatch):
    # A flow system without bounds has no objective, and its solution is
    # the start's vertex: the stationary flow of the component's
    # attractor-plus-first-action policy, found by the chain oracles without
    # the simplex.
    solved = []
    real_maximize = synthesis.maximize_margin

    def recording(system):
        solved.append((system, real_maximize(system)))
        return solved[-1][1]

    monkeypatch.setattr(synthesis, "maximize_margin", recording)
    free = {}
    for name in ("reach_ruin", "translate_wide"):
        solved.clear()
        for inst in workloads.corpus(name):
            mdp, valuation = parse_mdp(inst.model)
            synthesize(mdp, valuation, parse_formula(inst.formula), parse_rational(inst.threshold))
        free[name] = 0
        for system, sol in solved:
            if not (system.cond.mp_inf or system.cond.mp_sup):
                assert as_fractions(sol) == ((start_flow(system.mdp, system.component),), 0)
                free[name] += 1
    assert min(free.values()) >= 9, free


def _ladder_ring(n: int) -> tuple:
    """The ``ladder/n`` ring: ``workloads.ring_model`` of n states started at
    its first, with labels over a and b drawn as ``lp_mec_instance`` draws
    them, parsed."""
    rng = workloads._rng(f"ladder/{n}")
    labels = [[x for x in ("a", "b") if rng.random() < 0.5] for _ in range(n)]
    return parse_mdp(workloads.ring_model(n, 0, rng, labels.__getitem__, "s"))


def test_bound_free_ladder_ring_takes_one_pivot_per_state(monkeypatch):
    # G F a on the 120-state ladder ring is one plain flow system, solved
    # once.  The attractor start reaches a vertex in one pivot per state,
    # and with no objective that vertex is kept.  Solved from the artificial
    # basis, the same system takes 1506 Bland pivots, nearly all in phase one.
    calls, pivots = [], []
    real_solve, real_pivot = simplex.solve_lp, simplex._pivot
    monkeypatch.setattr(simplex, "solve_lp", lambda *args: calls.append(1) or real_solve(*args))
    monkeypatch.setattr(simplex, "_pivot", lambda *args: pivots.append(1) or real_pivot(*args))
    mdp, valuation = _ladder_ring(120)
    report = synthesize(mdp, valuation, parse_formula("G F a"), Fraction(1))
    assert report.probability == 1
    assert (len(calls), len(pivots)) == (1, len(report.product))


def _two_rings(rng, n: int) -> tuple:
    """A coin flip at s enters one of two ``ring_mdp`` rings of n states:
    ring a keeps only its a labels and ring b only its b labels."""
    states, actions, valuation = ["s"], [], [frozenset()]
    for x in ("a", "b"):
        ring, labels = ring_mdp(rng, n)
        base = len(states)
        states += [f"{x}{k}" for k in range(n)]
        for action in ring.actions:
            den, weights = action.weights
            shifted = (den, tuple((base + t, w) for t, w in weights))
            actions.append(MdpAction(x + action.name, base + action.source, shifted))
        valuation += [atoms & {x} for atoms in labels]
    go = MdpAction("go", 0, weights_of(((1, Fraction(1, 2)), (1 + n, Fraction(1, 2)))))
    return Mdp(states, [go, *actions], 0), valuation


def _bound_free_witnesses(report) -> list:
    return [
        witness.modes
        for witness in report.strategy.winners
        if not (witness.cond.mp_inf or witness.cond.mp_sup)
    ]


START_VERTEX_SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:]
import test_bench_corpus
print(*test_bench_corpus.start_vertex_counts())
"""


def start_vertex_counts() -> tuple:
    """The cases of ``test_start_vertex_changes_no_simulation_bytes``, each
    synthesized and simulated with ``simplex.solve_lp`` as it is and without
    a start, with every per-case assertion; returns how many cases moved
    their bound-free witnesses and how many share the episodes' draws with
    a bounded winner."""
    wide = {inst.key: inst for inst in workloads.corpus("translate_wide")}
    cases = [
        (_ladder_ring(n), formula)
        for n in (20, 40)
        for formula in ("G F a", "G F a & G F b", "G F a | G{>=2/5,inf} b")
    ]
    cases += [(_two_rings(random.Random(n), n), "G F a | G{>=2/5,inf} b") for n in (6, 10)]
    cases += [
        (parse_mdp(wide[key].model), wide[key].formula)
        for key in ("translate_wide/0/1", "translate_wide/4/2", "translate_wide/4/3")
    ]
    real_solve = simplex.solve_lp
    moved = shared = 0
    try:
        for (mdp, valuation), formula in cases:
            runs = []
            for solve in (real_solve, lambda n, rows, objective, start=None: real_solve(n, rows, objective)):
                simplex.solve_lp = solve
                report = synthesize(mdp, valuation, parse_formula(formula), Fraction(1, 2))
                sim = simulate_global(report.product, report.strategy, 30, 200, 3)
                runs.append((report.to_text() + sim.to_text(), _bound_free_witnesses(report)))
            (text, free), (plain_text, plain_free) = runs
            assert text == plain_text, formula
            assert free and len(free) == len(plain_free), formula
            for modes in free + plain_free:
                for mode in modes:
                    assert len(mode) == 1, formula
                    assert all(len(pairs) == 1 for _, pairs in mode[0].choices.values())
            moved += free != plain_free
            shared += len(free) < len(report.strategy.winners) and "pooled_avg" in text
    finally:
        simplex.solve_lp = real_solve
    return moved, shared


def test_start_vertex_changes_no_simulation_bytes(tmp_path):
    # A bound-free system keeps its start's vertex, where the artificial
    # basis may reach another.  Both are one closed class with one action
    # per state, so every step draws once, and a bound-free winner prints no
    # average.  So the report and 30 episodes' simulation are the bytes of
    # witnesses solved without a start, also where a bound-free winner and a
    # bounded one share the episodes' draws (the two rings, and
    # translate_wide's formula, whose pairs have bounds or none).
    #
    # The cases run in a fresh interpreter: `&`/`|` operands keep the order
    # in which their formulas were first built, and on the 20-state ring a
    # `G{>=2/5,inf} b` parsed earlier in the process moves the bounded pair
    # first, and with it the witness and the simulation's averages.
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-B", "-c", START_VERTEX_SCRIPT, str(tests), str(tests.parent / "src")],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    moved, shared = map(int, proc.stdout.split())
    assert moved >= 8 and shared == 2, (moved, shared)
