import random
from fractions import Fraction

import pytest

from freqsynth.boolfn import FALSE, TRUE, formula_to_boolfn, rank
from freqsynth.dgrma import run_cycle
from freqsynth.formula import FormulaError, always, atom, eventually, parse_formula
from freqsynth.lasso import models
from freqsynth.lts import Lts, powerset_alphabet
from freqsynth.slave import (
    SlaveLts,
    assumption_conj,
    buchi_accepting_sets,
    build_count_lts,
    build_slave_lts,
    build_token_lts,
    cobuchi_rejecting_sets,
    mp_reward,
)
from freqsynth.dgrma import rec_set

from helpers import freq_on_lasso, models_at, random_lasso, random_ufree_formula, rec_truth


def _letter(*atoms):
    return frozenset(atoms)


def test_worked_slave_example():
    xi = parse_formula("a | b | X(b & G F a)")
    slave = build_slave_lts(xi)
    lts = slave.lts
    gfa = formula_to_boolfn(parse_formula("G F a"))
    b_gfa = formula_to_boolfn(parse_formula("b & G F a"))
    assert lts.states[lts.successor(lts.init, _letter())] == b_gfa
    assert lts.states[lts.successor(lts.init, _letter("a"))] == TRUE
    q = lts.states.index(b_gfa)
    assert lts.states[lts.successor(q, _letter("b"))] == gfa
    assert lts.states[lts.successor(q, _letter())] == FALSE
    sink_states = {str(slave.state(s)) for s in slave.sinks}
    assert sink_states == {"tt", "ff", "(G F a)"}


def test_single_atom_slave():
    slave = build_slave_lts(atom("a"))
    lts = slave.lts
    assert lts.init not in slave.sinks
    assert lts.states[lts.successor(lts.init, _letter("a"))] == TRUE
    assert lts.states[lts.successor(lts.init, _letter())] == FALSE


def test_globally_formula_is_immediate_sink():
    slave = build_slave_lts(parse_formula("G F a"))
    assert len(slave) == 1
    assert slave.lts.init in slave.sinks


def test_acyclicity_rank_order():
    rng = random.Random(41)
    for _ in range(100):
        xi = random_ufree_formula(rng, rng.randint(1, 7), ["a", "b"])
        slave = build_slave_lts(xi)
        for q, row in enumerate(slave.lts.delta):
            if row is None:
                continue
            for target in row:
                assert rank(slave.lts.states[target]) < rank(slave.lts.states[q])


def test_token_lts_transitions():
    xi = parse_formula("a | b | X(b & G F a)")
    slave = build_slave_lts(xi)
    token = build_token_lts(slave)
    init_tokens = token.states[token.init]
    assert init_tokens == frozenset({slave.lts.init})
    after_empty = token.states[token.successor(token.init, _letter())]
    b_gfa = slave.lts.states.index(formula_to_boolfn(parse_formula("b & G F a")))
    assert after_empty == frozenset({slave.lts.init, b_gfa})
    after_a = token.states[token.successor(token.init, _letter("a"))]
    tt_idx = slave.lts.states.index(TRUE)
    assert after_a == frozenset({slave.lts.init, tt_idx})
    # The sink-resident token disappears one step later.
    q = token.successor(token.init, _letter("a"))
    again = token.states[token.successor(q, _letter("a"))]
    assert again == frozenset({slave.lts.init, tt_idx})


def test_single_state_token_loop():
    slave = build_slave_lts(parse_formula("G F a"))
    token = build_token_lts(slave)
    assert len(token) == 1
    assert token.successor(0, _letter("a")) == 0


def test_buchi_and_cobuchi_sets_depend_on_assumptions():
    xi = parse_formula("a | b | X(b & G F a)")
    gfa = parse_formula("G F a")
    slave = build_slave_lts(xi)
    token = build_token_lts(slave)
    assumed, nothing = assumption_conj([gfa]), assumption_conj([])
    with_assumption = slave.accepting_sinks(assumed)
    without = slave.accepting_sinks(nothing)
    names_with = {str(slave.state(q)) for q in with_assumption}
    names_without = {str(slave.state(q)) for q in without}
    assert names_with == {"tt", "(G F a)"}
    assert names_without == {"tt"}
    assert buchi_accepting_sets(slave, token, assumed) >= buchi_accepting_sets(
        slave, token, nothing
    )
    # Rejecting token sets contain some sink not provable from the assumptions.
    rej = cobuchi_rejecting_sets(slave, token, assumed)
    ff_idx = slave.lts.states.index(FALSE)
    for i in rej:
        assert token.states[i] & (slave.sinks - with_assumption)
    assert all(ff_idx in token.states[i] for i in rej)


def test_count_lts_worked_example():
    slave = build_slave_lts(atom("a"))
    count = build_count_lts(slave)
    a_idx, tt_idx = slave.lts.init, slave.lts.states.index(TRUE)
    init = count.states[count.init]
    assert init[a_idx] == 1 and sum(init) == 1
    q = count.successor(count.init, _letter("a"))
    state = count.states[q]
    assert state[a_idx] == 1 and state[tt_idx] == 1
    # Old sink token dropped, fresh token arrives: the state is a fixpoint.
    assert count.successor(q, _letter("a")) == q


def test_count_depth_bound():
    slave = build_slave_lts(parse_formula("X X a"))
    count = build_count_lts(slave)
    for state in count.states:
        assert max(state) <= len(slave)


def test_count_bound_rejects_a_cyclic_slave():
    # A slave whose non-sink state loops keeps every token alive, so the
    # count outgrows the slave size; build_slave_lts never returns one.
    alphabet = powerset_alphabet(["a"])
    looping = Lts(["a"], alphabet, ["s"], 0, [[0, 0]])
    with pytest.raises(FormulaError, match="token count exceeded"):
        build_count_lts(SlaveLts(looping, frozenset()))


def test_mp_reward_values():
    slave = build_slave_lts(atom("a"))
    count = build_count_lts(slave)
    rewards = mp_reward(slave, count, assumption_conj([]))
    tt_idx = slave.lts.states.index(TRUE)
    for q, state in enumerate(count.states):
        assert rewards[q] == state[tt_idx]


def test_lts_structure_independent_of_assumptions():
    # Acceptance for different assumption sets decorates one shared LTS; the
    # transition table must be bit-identical before and after.
    xi = parse_formula("a | b | X(b & G F a)")
    slave = build_slave_lts(xi)
    token = build_token_lts(slave)
    count = build_count_lts(slave)
    gfa = parse_formula("G F a")
    token_snapshot = [None if row is None else list(row) for row in token.delta]
    count_snapshot = [None if row is None else list(row) for row in count.delta]
    sets = []
    for assumptions in ([], [gfa]):
        conj = assumption_conj(assumptions)
        buchi_accepting_sets(slave, token, conj)
        sets.append(cobuchi_rejecting_sets(slave, token, conj))
        mp_reward(slave, count, conj)
    assert sets[0] != sets[1]  # the acceptance differs...
    assert [None if r is None else list(r) for r in token.delta] == token_snapshot
    assert [None if r is None else list(r) for r in count.delta] == count_snapshot


def test_slave_positions_decide_recurrence():
    # Tokens launched at loop positions recur forever, so "infinitely many
    # accepted start positions" reduces to "some accepted loop position",
    # "cofinitely many" to "all", and the satisfaction frequency to their
    # fraction; each must agree with the oracle when the assumption set is
    # the oracle's own recurrence set.
    rng = random.Random(43)
    for _ in range(200):
        xi = random_ufree_formula(rng, rng.randint(1, 6), ["a", "b"])
        slave = build_slave_lts(xi, ap={"a", "b"})
        w = random_lasso(rng, 3, 3, ["a", "b"])
        R = rec_truth(w, rec_set(xi))
        good = slave.accepting_sinks(assumption_conj(R))

        def token_accepted(start):
            q = slave.lts.init
            n = start
            while q not in slave.sinks:
                q = slave.lts.successor(q, w.letter(n))
                n += 1
            return q in good

        loop_hits = [
            token_accepted(i)
            for i in range(len(w.stem), len(w.stem) + len(w.loop))
        ]
        assert any(loop_hits) == models(w, always(eventually(xi)))
        assert all(loop_hits) == models(w, eventually(always(xi)))
        assert Fraction(sum(loop_hits), len(w.loop)) == freq_on_lasso(w, xi)
