"""The benchmark corpus through the analysis layers: the index components
of every pair's restriction against the rescan oracles, and the number of
LP solves per corpus.  The corpus comes from ``bench/workloads.py``, which
imports nothing from freqsynth; nothing under bench/ is written."""

import json
import subprocess
import sys
from pathlib import Path

from freqsynth.dgrma import build_dgrma
from freqsynth.formula import parse_formula, parse_rational
from freqsynth.mdp import mec_decomposition, parse_mdp, product_mdp, restrict
from freqsynth.synthesis import lift_pair, synthesize

from helpers import (
    assert_witness_keeps_fraction_formulas,
    component_names,
    rescan_mec_decomposition,
    rescan_restrict,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# ``simplex.solve_lp`` calls per corpus, each run in a fresh process.  A
# decision key that misses a memo or refutation hit (the same restricted
# rewards keyed apart, say) solves more.
SOLVES = {"lp_mec": 144, "reach_ruin": 90, "translate_wide": 87}

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run, workloads

cli = run.load_freqsynth()
from freqsynth import simplex
from freqsynth.formula import parse_formula, parse_rational
from freqsynth.mdp import parse_mdp
from freqsynth.synthesis import synthesize

calls = []
real_solve = simplex.solve_lp
simplex.solve_lp = lambda *args: calls.append(1) or real_solve(*args)
for inst in workloads.corpus(sys.argv[2]):
    mdp, valuation = parse_mdp(inst.model)
    synthesize(mdp, valuation, parse_formula(inst.formula), parse_rational(inst.threshold))
print(json.dumps(len(calls)))
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
        assert json.loads(proc.stdout.splitlines()[-1]) == solves, name


def test_corpus_witnesses_keep_the_fraction_formulas():
    # Every witness of the corpus, against the solution it was built from:
    # the first winner on its component, in pair order.
    witnesses = 0
    for name in workloads.WORKLOADS:
        for inst in workloads.corpus(name):
            mdp, valuation = parse_mdp(inst.model)
            report = synthesize(
                mdp, valuation, parse_formula(inst.formula), parse_rational(inst.threshold)
            )
            if report.strategy is None:
                continue
            sols = {}
            for winners in report.outcomes:
                for component, sol in winners:
                    sols.setdefault(component, sol)
            for strategy in report.strategy.winners:
                assert_witness_keeps_fraction_formulas(strategy, sols[strategy.component])
                witnesses += 1
    assert witnesses == 214
