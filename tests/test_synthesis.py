import random
from fractions import Fraction as Fr
from math import lcm
from types import SimpleNamespace

import pytest

import freqsynth.mdp
import freqsynth.synthesis
from freqsynth import simplex
from freqsynth.dgrma import GbmpCondition, MpBound, build_dgrma
from freqsynth.formula import FormulaError, parse_formula
from freqsynth.graph import mec_decomposition, restrict
from freqsynth.mdp import Mdp, MdpAction, MdpError, parse_mdp, product_mdp, weights_of
from freqsynth.mecanalysis import build_lp, epoch_length, maximize_margin
from freqsynth.synthesis import (
    SynthesisError,
    _check_selector,
    accepting_mec,
    lift_pair,
    max_reach,
    simulate_global,
    synthesize,
    winning_union,
)

import helpers
from helpers import (
    FixedDraw,
    MIXING_FORMULA,
    MIXING_MODEL,
    assert_flow_row_form,
    assert_winners_hold_their_states,
    capped,
    chain_pipeline_probability,
    component_names,
    corpus_formulas,
    dense_max_reach,
    dist,
    edge_draws,
    int_draw_table,
    named_max_reach,
    reach_by_name,
    letterwise_build_dgrma,
    model_text,
    named_simulate_global,
    pairwise_winning_union,
    random_markov_chain,
    random_fragment_formula,
    random_mdp,
    random_strongly_connected_mdp,
    ring_mdp,
    ruin_mdp,
    reward_of,
    ruin_valuation,
    state_at,
    time_limit,
    whole,
    WIDE_FORMULA,
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
    values, selector = named_max_reach(mdp, {"s0"})
    assert values["s0"] == 1
    values, _ = named_max_reach(mdp, {"s1"})
    assert values["s0"] == 1  # falls into s1 almost surely
    unreachable, _ = parse_mdp(
        "mdp\nstates s t\ninit s\naction s a : s 1\naction t b : t 1\n"
    )
    values, _ = named_max_reach(unreachable, {"t"})
    assert values["s"] == 0


def test_max_reach_coin_flip():
    mdp, _ = parse_mdp(
        "mdp\nstates s win lose\ninit s\n"
        "action s flip : win 1/2 , lose 1/2\n"
        "action win w : win 1\naction lose l : lose 1\n"
    )
    values, selector = named_max_reach(mdp, {"win"})
    assert values["s"] == Fr(1, 2)
    assert selector["s"] == "flip"


def _assert_matches_dense_oracle(mdp, target):
    values, selector = named_max_reach(mdp, target)
    dense_values, dense_selector = dense_max_reach(mdp, target)
    assert list(values.items()) == list(dense_values.items())
    assert list(selector.items()) == list(dense_selector.items())


def test_max_reach_matches_dense_oracle_on_random_mdps():
    rng = random.Random(4242)
    for _ in range(2000):
        mdp = random_mdp(rng, 7, 3)
        k = rng.randint(1, len(mdp))
        _assert_matches_dense_oracle(
            mdp, {mdp.states[s] for s in rng.sample(range(len(mdp)), k)}
        )


@pytest.mark.parametrize("reflecting", [False, True])
def test_max_reach_matches_dense_oracle_on_ruin_lines(reflecting):
    for n in (9, 16, 26, 37, 48):  # up to the benchmark's sizes
        for p in (Fr(2, 5), Fr(9, 20), Fr(1, 2)):
            mdp = ruin_mdp(n, p, reflecting)
            _assert_matches_dense_oracle(mdp, {f"x{n - 1}"})
            _assert_matches_dense_oracle(mdp, {"x2", f"x{n - 1}"})


def test_selector_skips_an_optimal_self_loop():
    # State s (index 1) lists a self-loop first: it is optimal (its backup
    # is s's value 1) but never reaches the target {t}, so the selector
    # must take the second action.
    mdp, _ = parse_mdp(
        "mdp\nstates t s\ninit s\n"
        "action t stay : t 1\n"
        "action s loop : s 1\n"
        "action s go : t 1\n"
    )
    values, selector = named_max_reach(mdp, {"t"})
    assert values == {"t": 1, "s": 1}
    assert selector["s"] == "go"


def _over_one_denominator(values):
    """Fractions as integer numerators over their least common denominator,
    the representation ``max_reach`` computes in."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def test_check_selector_rejects_tampered_certificates():
    mdp = ruin_mdp(12, Fr(2, 5), False)
    goal = {len(mdp) - 1}
    value_map, selector = max_reach(mdp, goal)
    values = [value_map[s] for s in range(len(mdp))]
    numerators, scale = _over_one_denominator(values)
    _check_selector(mdp, selector, numerators, scale, goal)
    # Any common denominator will do, not only the least one.
    _check_selector(mdp, selector, [3 * v for v in numerators], 3 * scale, goal)

    def rejects(selector, values):
        with pytest.raises(MdpError, match="does not realize"):
            _check_selector(mdp, selector, *_over_one_denominator(values), goal)

    broke = 0  # absorbing, value 0
    rejects(selector, [Fr(1, 2) if s in goal else v for s, v in enumerate(values)])
    rejects(selector, [Fr(1, 3) if s == broke else v for s, v in enumerate(values)])
    mid = len(mdp) // 2
    rejects(selector, [v + Fr(1, 1000) if s == mid else v for s, v in enumerate(values)])
    worse = next(
        (s, ai)
        for s in range(len(mdp))
        for ai in mdp.act[s]
        if sum(p * values[t] for t, p in dist(mdp.actions[ai])) < values[s]
    )
    swapped = list(selector)
    swapped[worse[0]] = worse[1]
    rejects(swapped, values)
    # The numerators read over a wrong denominator.
    with pytest.raises(MdpError, match="does not realize"):
        _check_selector(mdp, selector, numerators, scale + 1, goal)


PRIMES = (89, 97, 101, 103)


def _coprime_mdp(rng, max_states, max_actions):
    """Random MDP whose probabilities have large coprime denominators: each
    entry but the last takes k/d of what is left, d one of ``PRIMES``.  A
    state's first action only moves down and its second moves up by at most
    two."""
    n = rng.randint(2, max_states)
    actions = []
    for s in range(n):
        for k in range(rng.randint(1, max_actions)):
            if k == 0:
                pool = range(s + 1)
            elif k == 1:
                pool = range(s, min(n, s + 3))
            else:
                pool = range(n)
            targets = sorted(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
            rest, entries = Fr(1), []
            for t in targets[:-1]:
                d = rng.choice(PRIMES)
                p = rest * Fr(rng.randint(1, d - 1), d)
                entries.append((t, p))
                rest -= p
            entries.append((targets[-1], rest))
            actions.append(MdpAction(f"a{s}_{k}", s, weights_of(entries)))
    return Mdp([f"s{i}" for i in range(n)], actions, 0)


def _ladder_mdp(rng, rungs):
    """Risky-shortcut ladder with coprime probabilities, its states in
    shuffled index order: below the top rung, each rung x{i} can ``jump``,
    into the goal with a small probability and into the sink otherwise, or
    ``step`` up to x{i+1}, and the top rung x{rungs} steps into the goal;
    a step falls into the sink otherwise.  Every jump has the same chance,
    below what climbing the whole ladder wins.  The attractor policy jumps
    from every rung below the top, climbing is optimal, and policy
    iteration flips one rung per round, from the top down: ``rungs + 1``
    evaluations."""
    names = [f"x{i}" for i in range(rungs + 1)] + ["goal", "sink"]
    rng.shuffle(names)
    at = {name: k for k, name in enumerate(names)}

    def gamble(name, rung, to, p):
        return MdpAction(name, at[rung], weights_of(((at[to], p), (at["sink"], 1 - p))))

    chance = Fr(rng.randint(1, 5), rng.choice(PRIMES))
    actions = []
    for i in range(rungs + 1):
        rung = f"x{i}"
        if i < rungs:
            actions.append(gamble(f"jump{i}", rung, "goal", chance))
        up = f"x{i + 1}" if i < rungs else "goal"
        actions.append(gamble(f"step{i}", rung, up, 1 - Fr(rng.randint(1, 5), rng.choice(PRIMES))))
    actions += [MdpAction(f"stay_{name}", at[name], (1, ((at[name], 1),))) for name in ("goal", "sink")]
    return Mdp(names, actions, at["x0"])


@pytest.fixture
def evaluations(monkeypatch):
    """The arguments of every ``_evaluate_policy`` call, in call order."""
    calls = []
    evaluate = freqsynth.synthesis._evaluate_policy

    def counting_evaluate(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(freqsynth.synthesis, "_evaluate_policy", counting_evaluate)
    return calls


def test_integer_engine_matches_dense_oracle_on_coprime_denominators(evaluations):
    rng = random.Random(1697)
    pool = []  # (mdp, target names, evaluations it must take or None)
    for _ in range(400):
        mdp = _coprime_mdp(rng, 9, 3)
        roll = rng.random()
        if roll < 0.1:
            target = set(mdp.states)
        elif roll < 0.55:
            target = {mdp.states[-1]}
        else:
            target = set(rng.sample(mdp.states, rng.randint(1, len(mdp) - 1)))
        pool.append((mdp, target, None))
    for _ in range(40):
        rungs = rng.randint(1, 8)
        pool.append((_ladder_mdp(rng, rungs), {"goal"}, rungs + 1))
    three_rounds = zero_states = everything = 0
    for mdp, target, expected in pool:
        evaluations.clear()
        values, selector = named_max_reach(mdp, target)
        assert (values, selector) == dense_max_reach(mdp, target)
        assert list(values) == list(selector) == mdp.states
        assert expected in (None, len(evaluations))
        three_rounds += len(evaluations) >= 4  # the first evaluation, then one per round
        zero_states += 0 in values.values()
        everything += len(target) == len(mdp)
    assert min(three_rounds, zero_states, everything) >= 20


def test_max_reach_evaluates_once_on_ruin_lines_won_at_most_half_the_time(evaluations):
    # The attractor start is already optimal when a bet is won with
    # probability at most 1/2; above that, one improvement round remains.
    for p, most in ((Fr(1, 3), 1), (Fr(2, 5), 1), (Fr(9, 20), 1), (Fr(1, 2), 1),
                    (Fr(3, 5), 2), (Fr(2, 3), 2), (Fr(4, 5), 2)):
        for n in (10, 20, 40):
            for reflecting in (False, True):
                evaluations.clear()
                max_reach(ruin_mdp(n, p, reflecting), {n - 1})
                assert 1 <= len(evaluations) <= most, (p, n, reflecting)


def test_max_reach_does_no_fraction_arithmetic(monkeypatch):
    # Values are integers until the result map, whose entries are built
    # with the Fraction constructor alone.
    rng = random.Random(1698)
    instances = [_coprime_mdp(rng, 8, 4) for _ in range(40)]
    instances += [
        ruin_mdp(26, p, reflecting) for p in (Fr(2, 5), Fr(1, 2)) for reflecting in (False, True)
    ]

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic inside max_reach")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__eq__", "__lt__", "__le__", "__gt__",
                 "__ge__", "__bool__", "__neg__"):
        monkeypatch.setattr(Fr, name, forbidden)
    results = [max_reach(mdp, {len(mdp) - 1}) for mdp in instances]
    monkeypatch.undo()
    for mdp, result in zip(instances, results):
        assert reach_by_name(mdp, *result) == dense_max_reach(mdp, {mdp.states[-1]})


def _ruin_value_iteration(n, p):
    """Float Gauss-Seidel value iteration on the absorbing ruin line, sweeping
    down from the goal until a sweep changes no value by 1e-15."""
    last = n - 1
    v = [0.0] * n
    v[last] = 1.0
    for _ in range(100_000):
        delta = 0.0
        for k in reversed(range(1, last)):
            best = max(
                p * v[k + 1] + (1 - p) * v[k - 1],
                p * v[min(k + 2, last)] + (1 - p) * v[max(k - 2, 0)],
            )
            delta = max(delta, best - v[k])
            v[k] = best
        if delta < 1e-15:
            return v
    raise ArithmeticError("value iteration did not converge")


def test_400_state_ruin_lines():
    n = 400
    for p in (Fr(2, 5), Fr(9, 20)):
        values, _ = named_max_reach(ruin_mdp(n, p, False), {f"x{n - 1}"})
        floats = _ruin_value_iteration(n, float(p))
        assert max(abs(float(values[f"x{k}"]) - floats[k]) for k in range(n)) <= 1e-9
        assert values["x0"] == 0 and 0 < values[f"x{n - 2}"] < 1
    values, _ = named_max_reach(ruin_mdp(n, Fr(2, 5), True), {f"x{n - 1}"})
    assert set(values.values()) == {1}


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
            report = synthesize(chain, valuation, phi, Fr(1, 2))
            aut = report.automaton
            product, comp = product_mdp(chain, valuation, aut.lts)
            lifted = [lift_pair(p, comp) for p in aut.pairs]
            expected = chain_pipeline_probability(product, lifted)
            assert report.probability == expected, (phi, chain.states)


def test_qualitative_dichotomy_small():
    rng = random.Random(3141)
    for _ in range(15):
        mdp = random_strongly_connected_mdp(rng, 4, 2)
        reward = tuple(Fr(rng.randint(0, 2), 2) for _ in mdp.states)
        cond = GbmpCondition(
            inf_sets=(frozenset({rng.choice(range(len(mdp)))}),),
            mp_inf=(MpBound(">=", Fr(rng.randint(0, 4), 4), reward),),
        )
        pair = (frozenset(), cond)
        answers = set()
        for init in range(len(mdp)):
            shifted = parse_mdp_like(mdp, init)
            w_states, _ = winning_union(shifted, [pair])
            if w_states:
                values, _ = max_reach(shifted, w_states)
                answers.add(values[shifted.init])
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
    aut = build_dgrma(phi)
    product, comp = product_mdp(mdp, valuation, aut.lts)
    expected = mecs = 0
    for pair in aut.pairs:
        fin, cond = lift_pair(pair, comp)
        assert all(b.cmp == ">=" for b in cond.mp_inf + cond.mp_sup)
        part = restrict(product, fin)
        for ec in mec_decomposition(product, part) if part is not None else ():
            mecs += 1
            expected += all(not inf.isdisjoint(ec.states) for inf in cond.inf_sets)

    calls = []
    solve_lp = simplex.solve_lp

    def counting_solve_lp(*args, **kwargs):
        calls.append(args)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(simplex, "solve_lp", counting_solve_lp)
    report = synthesize(mdp, valuation, phi, Fr(1))
    assert report.probability == 1
    assert len(report.strategy.winners) == 1
    assert mecs > expected >= 2
    assert len(calls) == expected


def test_unused_model_atoms_do_not_change_synthesis(monkeypatch):
    # synthesize translates over the formula's atoms alone; the letterwise
    # oracle's automaton over every atom of the model's labels must give the
    # same report, winning states, witnesses and simulation.
    rng = random.Random(4242)
    fixed = [parse_formula(t) for t in ("G{>=1/2,inf} a | F b", "G F a & F G !b")]
    formulas = fixed + [
        random_fragment_formula(rng, rng.randint(2, 7), ["a", "b"]) for _ in range(28)
    ]
    winners = 0
    for k, phi in enumerate(formulas):
        mdp = random_mdp(rng, 5, 2)
        valuation = [
            frozenset(x for x in ("0", "a", "b", "x") if rng.random() < 0.5)
            | ({"x"} if s == 0 else set())
            for s in range(len(mdp))
        ]
        model_atoms = frozenset().union(*valuation)
        threshold = Fr(rng.randint(0, 4), 4)
        narrow = synthesize(mdp, valuation, phi, threshold)
        with monkeypatch.context() as m:
            m.setattr(
                freqsynth.synthesis,
                "build_dgrma",
                lambda f, cap: letterwise_build_dgrma(f, ap=model_atoms, cap=cap),
            )
            wide = synthesize(mdp, valuation, phi, threshold)
        assert narrow.automaton.lts.atoms < wide.automaton.lts.atoms, phi
        assert narrow.to_text() == wide.to_text(), phi
        assert narrow.winning_states == wide.winning_states, phi
        if narrow.strategy is None:
            assert wide.strategy is None, phi
            continue
        got, want = narrow.strategy, wide.strategy
        assert got.reach == want.reach and got.state_to_winner == want.state_to_winner
        assert list(map(_witness, got.winners)) == list(map(_witness, want.winners)), phi
        sims = [simulate_global(r.product, r.strategy, 2, 50, seed=k) for r in (narrow, wide)]
        assert sims[0].to_text() == sims[1].to_text(), phi
        winners += len(got.winners)
    assert winners >= 10


def _witness(strategy):
    """A witness as its component's names, its modes and pilgrimage, and its
    condition's Inf sets and bounds on the component."""
    component = strategy.component
    return (
        component_names(strategy.mdp, component),
        strategy.modes,
        strategy.pilgrimage,
        strategy.cond.inf_sets,
        strategy.cond.restricted(component.states),
    )


def test_global_strategy_enters_winning_union():
    mdp, valuation = parse_mdp(LEAKY)
    report = synthesize(mdp, valuation, parse_formula("F G !a"), Fr(1))
    assert report.probability == 1
    sim = simulate_global(report.product, report.strategy, 50, 400, seed=9)
    assert sim.entered == 50
    text = sim.to_text()
    assert "entry_fraction: 1.000000" in text


LINE = """\
mdp
states s1 s2 s3
init s2
label s1 a
label s2 a b
label s3 b
action s1 stay1 : s1 1
action s1 right1 : s2 1
action s2 left2 : s1 1
action s2 right2 : s3 1
action s3 left3 : s2 1
action s3 stay3 : s3 1
"""


def test_winners_that_overlap_in_part_each_hold_their_states():
    # On the line s1 - s2 - s3, F G a wins {s1, s2} and F G b wins {s2, s3}.
    # The second winner shares only s2 with the first, so it is kept, and s3
    # maps to it; skipping it would leave s3 winning without a witness.
    mdp, valuation = parse_mdp(LINE)
    report = synthesize(mdp, valuation, parse_formula("F G a | F G b"), Fr(1))
    assert report.probability == 1 and len(report.strategy.winners) == 2
    assert len(report.winning_states) == 3
    assert_winners_hold_their_states(report)


def test_global_strategy_entry_frequency_matches_probability():
    # Coin flip into a winning a/not-a loop or a dead end: entry fraction
    # tracks the exact probability, and the loop's average of a sits at its
    # bound of 1/2.
    mdp, valuation = parse_mdp(
        "mdp\nstates s w v d\ninit s\nlabel w a\n"
        "action s flip : w 1/2 , d 1/2\naction w wv : v 1\naction v vw : w 1\n"
        "action d dead : d 1\n"
    )
    report = synthesize(mdp, valuation, parse_formula("G{>=1/2,inf} a"), Fr(1, 2))
    assert report.probability == Fr(1, 2)
    sim = simulate_global(report.product, report.strategy, 200, 300, seed=31)
    assert sim.entered / 200 >= float(report.probability) - 0.1
    assert sim.mp_pooled
    for idx, label, avg in sim.mp_pooled:
        cond = report.strategy.winners[idx].cond
        bounds = {
            f"{kind}:{b.cmp}{b.bound}": b.bound
            for kind, group in (("inf", cond.mp_inf), ("sup", cond.mp_sup))
            for b in group
        }
        assert avg >= float(bounds[label]) - 0.05, (idx, label, avg)


def _fork_model(rng):
    """A lead-in chain of 1-3 states that forks at random into two rings of
    1-3 states with random labels, or into a dead end."""
    lead = rng.randint(1, 3)
    rings = [[f"r{j}_{i}" for i in range(rng.randint(1, 3))] for j in range(2)]
    states = [f"x{i}" for i in range(lead)] + rings[0] + rings[1] + ["d"]
    lines = ["mdp", "states " + " ".join(states), "init x0"]
    for s in states[:-1]:
        labels = [a for a in "ab" if rng.random() < 0.5]
        if labels:
            lines.append(f"label {s} " + " ".join(labels))
    for i in range(lead - 1):
        lines.append(f"action x{i} go{i} : x{i + 1} 1")
    w = [rng.randint(1, 3) for _ in range(3)]
    t = sum(w)
    lines.append(
        f"action x{lead - 1} fork : r0_0 {w[0]}/{t} , r1_0 {w[1]}/{t} , d {w[2]}/{t}"
    )
    for ring in rings:
        for i, s in enumerate(ring):
            nxt = ring[(i + 1) % len(ring)]
            lines.append(f"action {s} m{s} : {nxt} 1")
            if nxt != s:
                lines.append(f"action {s} h{s} : {s} 1/2 , {nxt} 1/2")
    lines.append("action d dd : d 1")
    return parse_mdp("\n".join(lines) + "\n")


def test_simulation_matches_the_name_keyed_oracle():
    # Episodes that end in the lead-in, that fall into the dead end, and that
    # enter either of two winners, under the default and two capped schedules;
    # the two-sup formula switches modes at every epoch.
    rng = random.Random(8080)
    formulas = [
        parse_formula(t)
        for t in (
            "G{>=1/2,inf} a | G{>=1/2,sup} b",
            "G{>=1/3,inf} a & G F b",
            "F G{>1/3,inf} a | G{>=2/3,sup} b",
            "G{>=1/3,sup} a & G{>=1/3,sup} b",
        )
    ]
    schedules = (epoch_length, capped(1), capped(7))
    before = never = two_winners = capped_differs = 0
    for k in range(32):
        mdp, valuation = _fork_model(rng)
        report = synthesize(mdp, valuation, formulas[k % 4], Fr(0))
        if report.strategy is None:
            continue
        for steps in (1, 2, 3, 200):
            texts = []
            for schedule in schedules:
                args = (report.product, report.strategy, 8, steps, k, schedule)
                got = simulate_global(*args)
                assert got.to_text() == named_simulate_global(*args).to_text()
                texts.append(got.to_text())
                before += got.entered == 0
                never += steps == 200 and 0 < got.entered < 8
                two_winners += len({w for w, _, _ in got.mp_pooled}) >= 2
            capped_differs += texts[0] != texts[1]
    assert min(before, never, two_winners) >= 10
    assert capped_differs >= 5  # the schedule reaches the witness


def _hub_model(go, hy):
    """A lead-in state s that moves to the hub h with probability ``go``,
    listed first, and stays otherwise; from h, ``hx`` goes to x and ``hy``
    to y with probability ``hy`` or back to h, and x and y return to h.
    Bounds on both labels make the witness draw at h."""
    return parse_mdp(
        "mdp\nstates s h x y\ninit s\nlabel x a\nlabel y b\n"
        f"action s go : h {go} , s {1 - go}\n"
        f"action h hx : x 1\naction h hy : y {hy} , h {1 - hy}\n"
        "action x xh : h 1\naction y yh : h 1\n"
    )


def test_simulation_past_one_chunk_matches_the_name_keyed_oracle():
    # Episodes of 4095 to 8193 steps end one step before, at and one step
    # past the simulator's 4096-step chunk, or one step into a third chunk;
    # the default schedule's first epochs end inside them.  The mixing
    # witness interleaves two classes, the hubs draw a choice at h, and the
    # two-sup fork formula switches modes at every epoch.  Both episodes of
    # a run share one rng.
    rng = random.Random(4097)
    hub = parse_formula("G{>=1/5,inf} a & G{>=1/7,inf} b & G F a")
    cases = [parse_mdp(MIXING_MODEL) + (parse_formula(MIXING_FORMULA),)]
    cases += [_hub_model(go, hy) + (hub,) for go, hy in ((Fr(3, 4), Fr(1, 3)), (Fr(2, 3), Fr(1, 2)))]
    cases += [
        _fork_model(rng) + (parse_formula(t),)
        for t in ("G{>=1/3,sup} a & G{>=1/3,sup} b", "G{>=1/2,inf} a | G{>=1/2,sup} b")
    ]
    entered = 0
    for k, (mdp, valuation, phi) in enumerate(cases):
        report = synthesize(mdp, valuation, phi, Fr(0))
        for steps in (4095, 4096, 4097, 8193):
            for schedule in (epoch_length, capped(1), capped(7)):
                args = (report.product, report.strategy, 2, steps, k, schedule)
                got = simulate_global(*args)
                assert got.to_text() == named_simulate_global(*args).to_text(), (k, steps)
                entered += got.entered
    assert entered >= 4 * 3 * 2 * 4


def _sink_or_ring_model():
    """A lead-in s that stays with probability 1/2, falls into the sink z
    with 1/4 and enters a 3-state ring with 1/4; the ring's labels a and b
    can carry bounds."""
    return parse_mdp(
        "mdp\nstates s z r0 r1 r2\ninit s\nlabel r0 a\nlabel r1 b\n"
        "action s go : s 1/2 , r0 1/4 , z 1/4\naction z stay : z 1\n"
        "action r0 r0a : r1 1/2 , r0 1/2\naction r0 r0b : r2 1\n"
        "action r1 r1a : r2 2/3 , r0 1/3\n"
        "action r2 r2a : r0 1\naction r2 r2b : r2 1/2 , r1 1/2\n"
    )


def test_simulation_at_absorbing_sinks_matches_the_name_keyed_oracle(monkeypatch):
    # A selector walk that meets a sure self-loop outside the winners stops
    # there and owes the episode's remaining draws, which the next episode
    # that draws makes first.  The oracle draws every step, so equal bytes
    # mean every later draw is its draw: gambler's-ruin lines, absorbing (a
    # losing broke and a single-state goal) and reflecting (goal alone),
    # and a lead-in that falls into a sink or enters a ring whose bounds
    # print averages.
    owed = []
    real_skip = freqsynth.synthesis.skip_draws
    monkeypatch.setattr(
        freqsynth.synthesis, "skip_draws", lambda rng, n: owed.append(n) or real_skip(rng, n)
    )
    cases = [
        (ruin_mdp(n, p, reflecting), formula)
        for n, p, reflecting in ((9, Fr(2, 5), False), (12, Fr(1, 2), True))
        for formula in ("F goal", "F G !broke")
    ]
    cases = [(mdp, ruin_valuation(mdp), formula) for mdp, formula in cases]
    cases += [
        _sink_or_ring_model() + (formula,)
        for formula in ("G{>=1/3,inf} a & G{>=1/4,sup} b", "G{>=2/5,inf} a")
    ]
    schedules = (epoch_length, capped(1), capped(7))
    single = averaged = 0
    for k, (mdp, valuation, formula) in enumerate(cases):
        report = synthesize(mdp, valuation, parse_formula(formula), Fr(0))
        sizes = {len(w.component.states) for w in report.strategy.winners}
        for steps in (1, 2, 200, 4097):
            for schedule in schedules:
                args = (report.product, report.strategy, 8, steps, k + steps, schedule)
                got = simulate_global(*args)
                assert got.to_text() == named_simulate_global(*args).to_text(), (k, steps)
                single += got.entered if sizes == {1} else 0
                averaged += bool(got.mp_pooled)
    # Each payment follows at least one sink episode and precedes another.
    assert len(owed) >= 60 and min(owed) >= 1, owed
    assert single >= 80 and averaged >= 12, (single, averaged)


def test_simulation_draws_at_threshold_edges_match_the_oracle(monkeypatch):
    # Both simulators take every draw from one FixedDraw set next to an
    # integer threshold of a product action's successor table or a
    # witness's choice table, so the fork, the lead-in, the rings and the
    # hub's choices are drawn exactly on and just below their edges.
    rng = random.Random(6161)
    formulas = [
        parse_formula(t)
        for t in (
            "G{>=1/2,inf} a | G{>=1/2,sup} b",
            "G{>=1/3,sup} a & G{>=1/3,sup} b",
            "G{>=1/5,inf} a & G{>=1/7,inf} b & G F a",
        )
    ]
    models = [_fork_model(rng) + (formulas[k % 2],) for k in range(24)]
    hubs = ((Fr(3, 4), Fr(1, 3)), (Fr(7, 8), Fr(2, 5)), (Fr(5, 6), Fr(3, 5)), (Fr(2, 3), Fr(1, 2)))
    models += [_hub_model(go, hy) + (formulas[2],) for go, hy in hubs]
    reports = [synthesize(mdp, valuation, phi, Fr(0)) for mdp, valuation, phi in models]
    cases = []
    for report in reports:
        if report.strategy is None:
            continue
        choices = [
            int_draw_table(c)
            for winner in report.strategy.winners
            for mode in winner.modes
            for cls in mode
            for c in cls.choices.values()
            if len(c[1]) > 1
        ]
        cases.append((report, [int_draw_table(a.weights) for a in report.product.actions], choices))
    fixed = FixedDraw(0.0)
    for module in (freqsynth.synthesis, helpers):
        monkeypatch.setattr(module, "random", SimpleNamespace(Random=lambda seed: fixed))
    schedule = capped(7)
    entered = choice_edges = 0
    for report, successors, choices in cases:
        for u in edge_draws(successors + choices):
            fixed.u = u
            args = (report.product, report.strategy, 2, 90, 0, schedule)
            got = simulate_global(*args)
            assert got.to_text() == named_simulate_global(*args).to_text(), u
            entered += got.entered > 0
            choice_edges += got.entered > 0 and any(u * 2**53 in t[1] for t in choices)
    assert len(cases) >= 24 and entered >= 85 and choice_edges >= 4


def test_simulate_global_rejects_counts_below_one():
    # Half the episodes fall into the dead end d, outside the winning union;
    # a negative step count must not count down past 0 there.
    mdp, valuation = parse_mdp(
        "mdp\nstates s w d\ninit s\nlabel w a\n"
        "action s go : w 1/2 , d 1/2\naction w ww : w 1\naction d dd : d 1\n"
    )
    report = synthesize(mdp, valuation, parse_formula("G F a"), Fr(0))
    assert report.probability == Fr(1, 2)
    with time_limit(30):
        for steps in (-1, 0):
            with pytest.raises(ValueError, match="steps must be at least 1"):
                simulate_global(report.product, report.strategy, 4, steps, seed=1)
        for episodes in (-1, 0):
            with pytest.raises(ValueError, match="episodes must be at least 1"):
                simulate_global(report.product, report.strategy, episodes, 10, seed=1)


RING_FORMULAS = ("G{>1/3,sup} a & G{>=1/4,inf} b", "G F a & G{>=2/5,inf} b")
RUIN_FORMULAS = ("F goal", "F G !broke")


def _derived_mdps(mdp, valuation, phi):
    """The parsed model and the product, the only MDPs ``synthesize``
    builds: parts and components are index sets of the product."""
    parsed, valuation = parse_mdp(model_text(mdp, valuation))
    product, _ = product_mdp(parsed, valuation, build_dgrma(phi).lts)
    return [parsed, product]


def _pool():
    """(model, valuation, formula): 40 random models with random fragment
    formulas, 12 ruin lines of 26-48 states, and 10-14-state rings with two
    mean-payoff formulas each."""
    rng = random.Random(1717)
    instances = []
    for _ in range(40):
        mdp = random_mdp(rng, 7, 3)
        valuation = [frozenset(x for x in "ab" if rng.random() < 0.5) for _ in range(len(mdp))]
        instances.append((mdp, valuation, random_fragment_formula(rng, rng.randint(2, 6), ["a", "b"])))
    for n in range(26, 50, 2):
        mdp = ruin_mdp(n, (Fr(2, 5), Fr(9, 20), Fr(1, 2))[n % 3], n % 4 == 0)
        instances.append((mdp, ruin_valuation(mdp), parse_formula(RUIN_FORMULAS[n % 2])))
    for n in (10, 12, 14):
        mdp, valuation = ring_mdp(rng, n)
        instances += [(mdp, valuation, parse_formula(f)) for f in RING_FORMULAS]
    return instances


def test_validating_constructor_accepts_every_derived_mdp():
    # parse_mdp and product_mdp skip the distribution check; the public
    # constructor must accept each MDP they build and index it alike.
    derived = 0
    pool = _pool()
    for mdp, valuation, phi in pool:
        for sub in _derived_mdps(mdp, valuation, phi):
            again = Mdp(sub.states, sub.actions, sub.init)
            assert (again.act, again.pre) == (sub.act, sub.pre), phi
            derived += 1
    assert derived == 2 * len(pool) >= 100


def test_synthesis_checks_no_distribution_twice(monkeypatch):
    # parse_mdp checks each distribution with line numbers; the product and
    # the decisions on its parts and components check none again.
    ruin = ruin_mdp(48, Fr(2, 5), False)
    ring, ring_valuation = ring_mdp(random.Random(1718), 12)
    cases = [(model_text(ruin, ruin_valuation(ruin)), f) for f in RUIN_FORMULAS]
    cases += [(model_text(ring, ring_valuation), f) for f in RING_FORMULAS]
    calls = []
    check = freqsynth.mdp._check_distributions
    monkeypatch.setattr(
        freqsynth.mdp, "_check_distributions", lambda actions: calls.append(1) or check(actions)
    )
    winners = 0
    for text, formula in cases:
        mdp, valuation = parse_mdp(text)
        report = synthesize(mdp, valuation, parse_formula(formula), Fr(1, 2))
        winners += sum(len(pair_winners) for pair_winners in report.outcomes)
    assert winners >= len(cases)  # every case decided MECs
    assert calls == []
    Mdp(mdp.states, mdp.actions, mdp.init)
    assert calls == [1]


def _restricted_condition(mdp, component, cond):
    """What deciding a component reads: its names, whether it meets every
    Inf set, and each inf then sup bound's comparison, bound and rewards on
    its states."""
    states = component.states

    def on_component(bounds):
        return tuple(
            (b.cmp, b.bound, tuple(reward_of(cond, b, s) for s in states)) for b in bounds
        )

    return (
        component_names(mdp, component),
        all(set(states) & set(inf) for inf in cond.inf_sets),
        on_component(cond.mp_inf),
        on_component(cond.mp_sup),
    )


def _named(mdp, outcomes):
    return [[(component_names(mdp, c), sol) for c, sol in winners] for winners in outcomes]


def _winning_names(mdp, outcomes):
    """Per pair, the sorted names of its winners' states."""
    return [sorted(mdp.states[s] for c, _ in w for s in c.states) for w in outcomes]


def _lifted(mdp, valuation, phi):
    aut = build_dgrma(phi)
    product, automaton_component = product_mdp(mdp, valuation, aut.lts)
    return product, [lift_pair(pair, automaton_component) for pair in aut.pairs]


TWO_ASSUMPTIONS = "(F G a -> G{>=1/2,inf} b) & (G F b -> G{>1/3,sup} a)"


def _inside(mdp, component, key, outer, outer_cond):
    """Whether ``component``, decided as ``key``, lies inside ``outer`` and
    has each of ``outer_cond``'s bounds, restricted to it, among its own."""
    states, actions = component_names(mdp, component)
    outer_states, outer_actions = component_names(mdp, outer)
    _, _, inf, sup = _restricted_condition(mdp, component, outer_cond)
    return (
        set(states) <= set(outer_states)
        and set(actions) <= set(outer_actions)
        and set(inf) <= set(key[2])
        and set(sup) <= set(key[3])
    )


def test_winning_union_decomposes_each_fin_set_once(monkeypatch):
    # 20 pairs over 2 distinct Fin sets: one restriction and decomposition
    # per Fin set, at most one decision per distinct restricted condition in
    # order of first occurrence, and the outcomes of deciding every (pair,
    # component), each winner being the pair's own component object.  A
    # condition left undecided is one that an earlier flow rejection settles:
    # its component lies inside the rejected one (which meets every Inf
    # set), and each rejected bound, restricted to it, is one of its own.
    phi = parse_formula(TWO_ASSUMPTIONS)
    restrict_calls, decisions, decomposed = [], [], {}
    real_restrict = freqsynth.synthesis.restrict
    real_mecs = freqsynth.synthesis.mec_decomposition
    real_decide = freqsynth.synthesis.accepting_mec
    monkeypatch.setattr(
        freqsynth.synthesis, "restrict", lambda p, fin: restrict_calls.append(fin) or real_restrict(p, fin)
    )

    def mecs(p, part):
        out = real_mecs(p, part)
        decomposed[restrict_calls[-1]] = out
        return out

    monkeypatch.setattr(freqsynth.synthesis, "mec_decomposition", mecs)
    monkeypatch.setattr(
        freqsynth.synthesis,
        "accepting_mec",
        lambda m, c, cond, blocks: decisions.append(_restricted_condition(m, c, cond))
        or real_decide(m, c, cond, blocks),
    )
    rng = random.Random(1719)
    winners = shared = 0
    for _ in range(12):
        product, lifted = _lifted(*ring_mdp(rng, rng.randint(4, 8)), phi)
        restrict_calls.clear()
        decisions.clear()
        decomposed.clear()
        w_states, outcomes = winning_union(product, lifted)
        fins = {fin for fin, _ in lifted}
        assert len(fins) < len(lifted)
        assert sorted(restrict_calls, key=sorted) == sorted(fins, key=sorted)
        called = list(decisions)
        want_states, want_outcomes = pairwise_winning_union(product, lifted)
        keys, first = [], {}  # first: key -> (component, condition, accepted)
        for (fin, cond), want in zip(lifted, _named(product, want_outcomes)):
            part = real_restrict(product, fin)
            accepted = {names for names, _ in want}
            for component in mec_decomposition(product, part) if part is not None else ():
                key = _restricted_condition(product, component, cond)
                keys.append(key)
                names = component_names(product, component)
                first.setdefault(key, (component, cond, names in accepted))
        distinct = list(first)
        assert called == [key for key in distinct if key in called]
        for i, key in enumerate(distinct):
            if key in called:
                continue
            component, _, accepted = first[key]
            assert not accepted
            assert any(
                earlier in called
                and earlier[1]
                and not first[earlier][2]
                and _inside(product, component, key, *first[earlier][:2])
                for earlier in distinct[:i]
            ), key
        shared += len(keys) - len(called)
        assert w_states == want_states
        assert _named(product, outcomes) == _named(product, want_outcomes)
        for (fin, _), pair_winners in zip(lifted, outcomes):
            for component, _ in pair_winners:
                assert any(component is c for c in decomposed[fin])
        winners += sum(map(len, outcomes))
    assert winners >= 10
    assert shared >= 10


def _wide_pool():
    """Rings of 3-5 states labelled over the two-bound formula's atoms with
    that formula, and 4-8-state rings with a two-assumption formula: the
    shapes where pairs repeat a decision."""
    rng = random.Random(1720)
    wide = parse_formula(WIDE_FORMULA)
    instances = []
    for n in (3, 3, 4, 4, 5):
        mdp, _ = ring_mdp(rng, n)
        valuation = [frozenset(x for x in "lbrfcwp" if rng.random() < 0.35) for _ in range(n)]
        instances.append((mdp, valuation, wide))
    two = parse_formula(TWO_ASSUMPTIONS)
    instances += [(*ring_mdp(rng, rng.randint(4, 8)), two) for _ in range(6)]
    return instances


def test_winning_union_matches_the_pairwise_oracle(monkeypatch):
    # Sharing decisions by restricted condition, and refuting those a flow
    # rejection implies, must leave every outcome, report and simulation as
    # deciding each (pair, component) afresh, and decide each distinct
    # restricted condition at most once; the pools refute some.  Every
    # component's flow LPs have the row form in which no slack could start
    # basic, so each row starts on its own artificial basis marker.
    decisions = []
    real_decide = freqsynth.synthesis.accepting_mec
    monkeypatch.setattr(
        freqsynth.synthesis,
        "accepting_mec",
        lambda m, c, cond, blocks: decisions.append(_restricted_condition(m, c, cond))
        or real_decide(m, c, cond, blocks),
    )
    pairwise = distinct = refuted = reports = 0
    for mdp, valuation, phi in _pool() + _wide_pool():
        product, lifted = _lifted(mdp, valuation, phi)
        decisions.clear()
        w_states, outcomes = winning_union(product, lifted)
        assert len(decisions) == len(set(decisions)), phi
        want_states, want_outcomes = pairwise_winning_union(product, lifted)
        assert w_states == want_states, phi
        assert _named(product, outcomes) == _named(product, want_outcomes), phi
        keys = set()
        for fin, cond in lifted:
            part = restrict(product, fin)
            for component in mec_decomposition(product, part) if part is not None else ():
                keys.add(_restricted_condition(product, component, cond))
                assert_flow_row_form(product, component, cond)
                pairwise += 1
        assert set(decisions) <= keys, phi
        distinct += len(keys)
        refuted += len(keys) - len(decisions)

        got = synthesize(mdp, valuation, phi, Fr(1, 2))
        with monkeypatch.context() as m:
            m.setattr(freqsynth.synthesis, "winning_union", pairwise_winning_union)
            want = synthesize(mdp, valuation, phi, Fr(1, 2))
        assert got.to_text() == want.to_text(), phi
        if got.strategy is not None:
            sims = [simulate_global(r.product, r.strategy, 2, 200, seed=5) for r in (got, want)]
            assert sims[0].to_text() == sims[1].to_text(), phi
            reports += 1
    assert pairwise - distinct >= 40  # decisions shared
    assert refuted >= 1
    assert reports >= 40


def test_decisions_are_not_shared_across_calls(monkeypatch):
    # The decision memo lives for one synthesize call: the same call twice
    # makes the same decisions twice.
    counts = []
    real_decide = freqsynth.synthesis.accepting_mec
    monkeypatch.setattr(
        freqsynth.synthesis,
        "accepting_mec",
        lambda m, c, cond, blocks: counts.append(1) or real_decide(m, c, cond, blocks),
    )
    mdp, valuation, phi = _wide_pool()[0]
    per_call = []
    for _ in range(2):
        counts.clear()
        synthesize(mdp, valuation, phi, Fr(1, 2))
        per_call.append(len(counts))
    assert per_call[0] == per_call[1] > 0


DECISION_MODEL = """\
mdp
states s0 s1 s2
init s0
action s0 go : s1 1
action s0 out : s2 1
action s1 back : s0 1
action s2 stay : s2 1
"""


def test_conditions_differing_on_the_component_are_decided_apart(monkeypatch):
    # On the MEC {s0, s1} the reward 1, 0 averages exactly 1/2: ">= 1/2"
    # accepts and "> 1/2" rejects, and raising s1's reward to 1 accepts
    # "> 1/2".  A reward that differs only off a component (on s2) leaves
    # that component's decision shared, also when it changes the lcm of the
    # reward's denominators: the key reads the rewards on the component
    # over their own least denominator.
    mdp, _ = parse_mdp(DECISION_MODEL)
    calls = []
    real_decide = freqsynth.synthesis.accepting_mec
    monkeypatch.setattr(
        freqsynth.synthesis,
        "accepting_mec",
        lambda m, c, cond, blocks: calls.append(tuple(m.states[s] for s in c.states))
        or real_decide(m, c, cond, blocks),
    )

    def pair(cmp, rewards):
        reward = tuple(map(Fr, rewards))
        return frozenset(), GbmpCondition(mp_inf=(MpBound(cmp, Fr(1, 2), reward),))

    cases = [
        ([pair(">=", (1, 0, 0)), pair(">", (1, 0, 0))], [["s0", "s1"], []], 2, 2),
        ([pair(">", (1, 0, 0)), pair(">", (1, 1, 0))], [[], ["s0", "s1"]], 2, 1),
        ([pair(">", (1, 0, 0)), pair(">", (1, 0, 1))], [[], ["s2"]], 1, 2),
        ([pair(">=", (1, 0, 0)), pair(">=", (1, 0, Fr(1, 3)))], [["s0", "s1"]] * 2, 1, 2),
    ]
    for lifted, want, ring_decisions, loop_decisions in cases:
        calls.clear()
        _, outcomes = winning_union(mdp, lifted)
        assert _winning_names(mdp, outcomes) == want
        assert _named(mdp, outcomes) == _named(mdp, pairwise_winning_union(mdp, lifted)[1])
        assert sorted(calls) == [("s0", "s1")] * ring_decisions + [("s2",)] * loop_decisions


NESTED_MODEL = """\
mdp
states u v w
init u
action u uv : v 1
action v vu : u 1
action v vw : w 1
action w wv : v 1
"""


def test_a_flow_rejection_refutes_only_its_sub_components(monkeypatch):
    # Removing w leaves the MEC {u,v}, removing u leaves {v,w}, and nothing
    # removed leaves {u,v,w}.  The reward 0 on u and 1 on v and w averages
    # 1/2 on {u,v}, so "at least 3/4" rejects it, while {v,w} and {u,v,w}
    # accept it: neither is inside {u,v}, though the bound restricted to
    # {v,w} reads the same rewards there.  A bound above 1 rejects {u,v,w},
    # and that settles {u,v}, which it contains, without a solve, but not
    # {v,w} under "at least 3/4", which lacks that bound.
    mdp, _ = parse_mdp(NESTED_MODEL)
    calls = []
    real_decide = freqsynth.synthesis.accepting_mec
    monkeypatch.setattr(
        freqsynth.synthesis,
        "accepting_mec",
        lambda m, c, cond, blocks: calls.append(tuple(m.states[s] for s in c.states))
        or real_decide(m, c, cond, blocks),
    )
    reward = (Fr(0), Fr(1), Fr(1))  # on u, v, w
    three_quarters = GbmpCondition(mp_inf=(MpBound(">=", Fr(3, 4), reward),))
    above_one = GbmpCondition(mp_sup=(MpBound(">", Fr(1), reward),))
    without = {name: frozenset({state_at(mdp, name)}) for name in "uvw"}
    cases = [
        ([(without["w"], three_quarters), (without["u"], three_quarters)], [[], ["v", "w"]]),
        ([(without["w"], three_quarters), (frozenset(), three_quarters)], [[], ["u", "v", "w"]]),
    ]
    for lifted, want in cases:
        calls.clear()
        _, outcomes = winning_union(mdp, lifted)
        assert _winning_names(mdp, outcomes) == want
        assert _named(mdp, outcomes) == _named(mdp, pairwise_winning_union(mdp, lifted)[1])
        assert len(calls) == 2
    calls.clear()
    lifted = [(frozenset(), above_one), (without["w"], above_one), (without["u"], three_quarters)]
    _, outcomes = winning_union(mdp, lifted)
    assert _named(mdp, outcomes) == _named(mdp, pairwise_winning_union(mdp, lifted)[1])
    assert _winning_names(mdp, outcomes) == [[], [], ["v", "w"]]
    assert calls == [("u", "v", "w"), ("v", "w")]


def test_a_flow_rejection_implies_rejection_on_sub_ecs_under_more_bounds():
    # Flows of a sub-EC, extended by zero, are flows of the whole component
    # with the same rewards.  So when (M, C) has no witness, neither M nor a
    # sub-EC M' of it has one for a condition C' holding every bound of C
    # (inf among its inf bounds, sup among its sup bounds), whether the
    # margin LP is infeasible or strict bounds tie it at 0.
    rng = random.Random(2727)
    values = (Fr(0), Fr(1, 3), Fr(1, 2), Fr(2, 3), Fr(1))

    def bound(names):
        reward = tuple(rng.choice((Fr(0), Fr(1), Fr(1, 2))) for _ in names)
        return MpBound(rng.choice((">=", ">")), rng.choice(values), reward)

    rejected = ties = proper = 0
    for _ in range(300):
        mdp = random_strongly_connected_mdp(rng, 6, 3)
        names = mdp.states
        inf = [bound(names) for _ in range(rng.randint(0, 2))]
        sup = [bound(names) for _ in range(rng.randint(0, 2))]
        cond = GbmpCondition(mp_inf=tuple(inf), mp_sup=tuple(sup))
        if accepting_mec(mdp, whole(mdp), cond)[0]:
            continue
        rejected += 1
        ties += maximize_margin(build_lp(mdp, whole(mdp), cond)) is not None
        inf += [bound(names) for _ in range(rng.randint(0, 1))]
        sup += [bound(names) for _ in range(rng.randint(0, 1))]
        rng.shuffle(inf)
        rng.shuffle(sup)
        stronger = GbmpCondition(mp_inf=tuple(inf), mp_sup=tuple(sup))
        part = restrict(mdp, rng.sample(range(len(names)), rng.randint(1, max(1, len(names) - 1))))
        sub_ecs = mec_decomposition(mdp, part) if part is not None else []
        for ec in [whole(mdp)] + sub_ecs:
            assert not accepting_mec(mdp, ec, stronger)[0]
        proper += len(sub_ecs)
    assert rejected >= 150 and ties >= 10 and proper >= 40


def test_out_of_fragment_formula_is_a_formula_error():
    mdp, valuation = parse_mdp(LEAKY)
    phi = parse_formula("G(a U b)")
    with pytest.raises(FormulaError, match="outside the supported fragment"):
        build_dgrma(phi)
    with pytest.raises(FormulaError, match="outside the supported fragment"):
        synthesize(mdp, valuation, phi, Fr(1, 2))


def test_chain_probabilities_complement_exactly():
    # A chain has one behavior, so the probability of a formula and of its
    # pushed negation must sum to exactly 1 whenever both stay in fragment.
    from freqsynth.formula import fragment_violation, negation, push_negation

    from helpers import random_fragment_formula

    rng = random.Random(13579)
    checked = 0
    while checked < 25:
        phi = random_fragment_formula(rng, rng.randint(2, 6), ["a", "b"])
        neg = push_negation(negation(phi))
        if fragment_violation(neg) is not None:
            continue
        chain, valuation = random_markov_chain(rng, 4)
        p = synthesize(chain, valuation, phi, Fr(1, 2))
        q = synthesize(chain, valuation, neg, Fr(1, 2))
        checked += 1
        assert p.probability + q.probability == 1, (phi, neg)


def test_report_text_round():
    mdp, valuation = parse_mdp(LEAKY)
    report = synthesize(mdp, valuation, parse_formula("F a"), Fr(1))
    text = report.to_text()
    assert "max_probability: 1" in text
    assert "threshold_met: yes" in text
    assert "pair_0_winning_mecs:" in text
