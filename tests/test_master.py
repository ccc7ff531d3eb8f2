import random

import pytest

from freqsynth.boolfn import FALSE, TRUE, formula_to_boolfn
from freqsynth.formula import parse_formula
from freqsynth.lasso import models
from freqsynth.lts import StateCapExceeded
from freqsynth.slave import build_master

from helpers import models_boolfn, random_fragment_formula, random_lasso


def _letter(*atoms):
    return frozenset(atoms)


def test_worked_example_transitions():
    phi = parse_formula("a & X(b U a)")
    m = build_master(phi)
    bua = formula_to_boolfn(parse_formula("b U a"))
    init = m.init
    assert m.states[m.successor(init, _letter())] == FALSE
    assert m.states[m.successor(init, _letter("a"))] == bua
    assert m.states[m.successor(init, _letter("b"))] == FALSE
    assert m.states[m.successor(init, _letter("a", "b"))] == bua
    q = m.states.index(bua)
    assert m.states[m.successor(q, _letter("b"))] == bua
    assert m.states[m.successor(q, _letter("a"))] == TRUE
    assert m.states[m.successor(q, _letter())] == FALSE


def test_trivial_formula_single_state():
    m = build_master(parse_formula("tt"))
    assert len(m) == 1
    assert m.successor(0, _letter("a")) == 0


def test_nested_globally_example():
    m = build_master(parse_formula("G(X a | G X b)"))
    assert len(m) == 4
    succ = m.successor(m.init, _letter())
    for letter in (_letter(), _letter("a"), _letter("b"), _letter("a", "b")):
        assert m.successor(m.init, letter) == succ


def test_constants_absorbing():
    m = build_master(parse_formula("F a"))
    for q, state in enumerate(m.states):
        if state in (TRUE, FALSE):
            for letter in (_letter(), _letter("a"), _letter("b"), _letter("a", "b")):
                assert m.successor(q, letter) == q


def test_local_correctness_on_random_inputs():
    rng = random.Random(101)
    for _ in range(120):
        phi = random_fragment_formula(rng, rng.randint(1, 8), ["a", "b"])
        m = build_master(phi)
        for _ in range(4):
            w = random_lasso(rng, 4, 4, ["a", "b"])
            expected = models(w, phi)
            q = m.init
            for n in range(len(w.stem) + 3 * len(w.loop) + 1):
                assert models_boolfn(w, m.states[q], n) == expected
                q = m.successor(q, w.letter(n))


def test_globally_free_formulas_reach_tt_iff_satisfied():
    # Without globally-type operators, satisfaction has the finite witness of
    # reaching the accepting absorbing state somewhere on the eventual run.
    from freqsynth.dgrma import run_cycle

    rng = random.Random(103)
    done = 0
    while done < 100:
        phi = random_fragment_formula(rng, rng.randint(1, 7), ["a", "b"])
        if any(f.kind in ("G", "Gf") for f in _subformulas(phi)):
            continue
        done += 1
        m = build_master(phi)
        for _ in range(5):
            w = random_lasso(rng, 3, 3, ["a", "b"])
            prefix, cycle = run_cycle(m, w)
            reached = any(m.states[q] == TRUE for q in prefix + cycle)
            assert reached == models(w, phi)


def _subformulas(phi):
    stack = [phi]
    while stack:
        f = stack.pop()
        yield f
        stack.extend(f.children)


def test_state_cap():
    with pytest.raises(StateCapExceeded):
        build_master(parse_formula("a U (b U (a U X X X a))"), cap=3)
