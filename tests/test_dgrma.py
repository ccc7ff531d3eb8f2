import random

import pytest

import freqsynth.dgrma
from freqsynth.boolfn import TRUE, step, step_row, unfold
from freqsynth.dgrma import (
    GbmpCondition,
    acceptance_dump,
    accepts_lasso,
    build_dgrma,
    dgrma_to_dot,
    pair_accepts_cycle,
    rec_set,
    run_cycle,
)
from freqsynth.formula import FormulaError, atoms_of, parse_formula
from freqsynth.lasso import Lasso, models
from freqsynth.lts import DEFAULT_STATE_CAP, StateCapExceeded
from freqsynth.mdp import product_mdp
from freqsynth.synthesis import lift_pair

from helpers import (
    WIDE_FORMULA,
    corpus_formulas,
    letterwise_build_dgrma,
    letterwise_build_pairs,
    proves,
    random_fragment_formula,
    random_lasso,
    random_mdp,
    reward_of,
    scan_lift_pair,
)

A = frozenset("a")
E = frozenset()


def test_rec_set_contents():
    phi = parse_formula("G(X a | G X b)")
    got = [str(f) for f in rec_set(phi)]
    assert set(got) == {"G (X a | G X b)", "G X b"}
    assert rec_set(parse_formula("a U b")) == []
    phi2 = parse_formula("G{>=1/2,inf} F a")
    got2 = {str(f) for f in rec_set(phi2)}
    assert got2 == {"G{>=1/2,inf} F a", "F a"}


def test_determinism_and_totality():
    aut = build_dgrma(parse_formula("G(X a | G X b)"))
    for q in range(len(aut.lts)):
        row = aut.lts.delta[q]
        assert row is not None and len(row) == len(aut.lts.alphabet)


def test_eventually_pair_structure():
    aut = build_dgrma(parse_formula("F a"))
    # One pair per assumption subset: the empty set accepts by reaching the
    # absorbing accepting master state, the singleton via its Inf set.
    assert len(aut.pairs) == 2
    empty, full = aut.pairs
    assert empty.assumptions == ()
    assert empty.cond == GbmpCondition()
    tt_states = {
        q for q, m in enumerate(aut.columns[0]) if aut.master.states[m] == TRUE
    }
    assert frozenset(range(len(aut.lts))) - empty.fin == tt_states
    assert len(full.cond.inf_sets) == 1 and not full.cond.mp_inf + full.cond.mp_sup
    assert accepts_lasso(aut, Lasso((), [E])) is False
    assert accepts_lasso(aut, Lasso([E, E, A], [E])) is True


def test_trivial_formula_accepts_everything():
    aut = build_dgrma(parse_formula("tt"))
    assert len(aut.pairs) == 1
    rng = random.Random(1)
    for _ in range(20):
        assert accepts_lasso(aut, random_lasso(rng, 3, 3, ["a"]))


def test_worked_example_two_proof_options():
    # The nested-globally example accepts the all-a word through either
    # assumption subset containing the outer formula.
    aut = build_dgrma(parse_formula("G(X a | G X b)"))
    w = Lasso((), [A])
    assert accepts_lasso(aut, w)
    _, cycle = run_cycle(aut.lts, w)
    winners = [
        pair.assumptions
        for pair in aut.pairs
        if pair_accepts_cycle(pair, cycle)
    ]
    assert winners, "some pair must accept"
    outer = parse_formula("G(X a | G X b)")
    assert all(outer in assumed for assumed in winners)
    w_b = Lasso([A], [frozenset("b")])
    assert accepts_lasso(aut, w_b) == models(w_b, outer)


def test_frequency_acceptance_exact_boundary():
    aut = build_dgrma(parse_formula("G{>=1/2,inf} a"))
    assert accepts_lasso(aut, Lasso((), [A, E]))
    assert not accepts_lasso(aut, Lasso((), [A, E, E]))
    strict = build_dgrma(parse_formula("G{>1/2,sup} a"))
    assert not accepts_lasso(strict, Lasso((), [A, E]))
    assert accepts_lasso(strict, Lasso((), [A, A, E]))


def test_translation_equivalence_random():
    rng = random.Random(2029)
    built = 0
    while built < 40:
        phi = random_fragment_formula(rng, rng.randint(2, 9), ["a", "b"])
        try:
            aut = build_dgrma(phi, cap=20_000)
        except StateCapExceeded:
            continue
        built += 1
        for _ in range(60):
            w = random_lasso(rng, 5, 5, ["a", "b"])
            assert accepts_lasso(aut, w) == models(w, phi), (phi, w)


def test_fin_normalization_preserves_acceptance():
    # Avoiding the union of the finiteness sets is the stored normal form;
    # it must decide every lasso as the formula does.
    rng = random.Random(7)
    for text in ("F G a", "G(X a | G X b)", "G F a & F G b"):
        phi = parse_formula(text)
        aut = build_dgrma(phi)
        for _ in range(80):
            w = random_lasso(rng, 4, 4, ["a", "b"])
            assert accepts_lasso(aut, w) == models(w, phi)


def test_proof_obligations_monotone_in_assumptions():
    from freqsynth.boolfn import substitute_ff, formula_to_boolfn

    phi = parse_formula("G(X a | G X b)")
    aut = build_dgrma(phi)
    rec = aut.rec
    rng = random.Random(9)
    for q in range(len(aut)):
        goal = aut.master.states[aut.columns[0][q]]
        for _ in range(4):
            mask = rng.randrange(1 << len(rec))
            chosen = [rec[i] for i in range(len(rec)) if mask >> i & 1]
            dropped = [rec[i] for i in range(len(rec)) if not mask >> i & 1]
            assumptions = list(chosen)
            for i, rho in enumerate(rec):
                if rho.kind == "G" and rho in chosen:
                    tokens = aut.components[i].states[aut.columns[i + 1][q]]
                    assumptions.extend(
                        substitute_ff(aut.slaves[i].states[t], dropped)
                        for t in tokens
                    )
            if proves(assumptions, goal):
                extra = assumptions + [formula_to_boolfn(rec[0])]
                assert proves(extra, goal)


def test_acceptance_dump_and_dot():
    aut = build_dgrma(parse_formula("F a"))
    dump = acceptance_dump(aut)
    assert dump.count("pair ") == len(aut.pairs)
    assert "FIN=" in dump and "INF=" in dump
    dot = dgrma_to_dot(aut)
    assert dot.startswith("digraph") and "->" in dot


def test_state_cap_exceeded():
    with pytest.raises(StateCapExceeded):
        build_dgrma(parse_formula("G F (a & X b & X X c)"), cap=4)


def _translate(build, phi, cap):
    try:
        return build(phi, cap=cap)
    except StateCapExceeded as exc:
        return str(exc)


def test_row_translation_matches_letterwise_oracle():
    # Row-at-a-time translation must number the same states in the same
    # order, with the same part columns, rows and acceptance, as one call per
    # letter; a small cap must stop both in the same automaton.
    rng = random.Random(8)
    built = capped = 0
    for _ in range(300):
        phi = random_fragment_formula(rng, rng.randint(2, 12), ["a", "b", "c"])
        for cap in (10_000, rng.randint(1, 12)):
            aut = _translate(build_dgrma, phi, cap)
            ref = _translate(letterwise_build_dgrma, phi, cap)
            if isinstance(ref, str):
                assert aut == ref, phi
                capped += 1
                continue
            built += 1
            assert aut.columns == ref.columns, phi
            got = [aut.master] + aut.slaves + aut.components
            want = [ref.master] + ref.slaves + ref.components
            for g, w in zip(got, want, strict=True):
                assert g.alphabet == w.alphabet, phi
                assert g.states == w.states, phi
                assert g.delta == w.delta, phi
            assert aut.lts.alphabet == ref.lts.alphabet, phi
            assert aut.lts.delta == ref.lts.delta, phi
            assert acceptance_dump(aut) == acceptance_dump(ref), phi
            alphabet = aut.lts.alphabet
            stepped = [g for f in aut.master.states for g in (f, unfold(f))]
            for slave in aut.slaves:
                stepped += [f for f, row in zip(slave.states, slave.delta) if row is not None]
            for f in stepped:
                assert step_row(f, alphabet) == [step(f, l) for l in alphabet], phi
    assert built >= 300 and capped >= 100


def test_tree_product_matches_zip_oracle():
    # The tree of integer-coded pair products and its level-by-level part
    # columns must number the same states with the same rows and acceptance
    # as the oracle's product over tuples of part states; a cap of one state
    # under the product's size must stop both with the same error.
    rng = random.Random(2020)
    formulas = corpus_formulas()
    corpus = len(formulas)
    formulas += [
        random_fragment_formula(rng, rng.randint(2, 12), ["a", "b", "c"])
        for _ in range(120)
    ]
    compared = 0
    for phi in formulas:
        ref = _translate(letterwise_build_dgrma, phi, 20_000)
        aut = _translate(build_dgrma, phi, 20_000)
        if isinstance(ref, str):
            assert aut == ref, phi
            continue
        assert aut.columns == ref.columns, phi
        # The column entries of a state, read together, are its tuple of
        # part states: distinct per state and numbered as the oracle's.
        assert list(zip(*aut.columns)) == ref.lts.states, phi
        assert aut.lts.delta == ref.lts.delta, phi
        assert acceptance_dump(aut) == acceptance_dump(ref), phi
        compared += 1
        want = _translate(letterwise_build_dgrma, phi, len(ref) - 1)
        assert isinstance(want, str), phi
        assert _translate(build_dgrma, phi, len(ref) - 1) == want, phi
    assert compared >= corpus + 100


def test_translation_goes_through_the_traced_builders(monkeypatch):
    # The benchmark times translation layers by wrapping these names in
    # freqsynth.dgrma; each must stay on build_dgrma's call path, also when
    # the formula's automaton was kept before the wrappers went in.
    build_dgrma(parse_formula(WIDE_FORMULA))
    calls = {}
    names = (
        "build_lts",
        "build_master",
        "build_slave_lts",
        "build_token_lts",
        "build_count_lts",
    )
    for name in names:
        original = getattr(freqsynth.dgrma, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(freqsynth.dgrma, name, counted)
    aut = build_dgrma(parse_formula(WIDE_FORMULA))
    # The product is a tree of pair products, one build_lts call per pair
    # product: one fewer than its len(rec) + 1 parts.
    assert calls == {
        "build_lts": len(aut.rec),
        "build_master": 1,
        "build_slave_lts": len(aut.rec),
        "build_token_lts": 3,
        "build_count_lts": 2,
    }
    assert (len(aut), len(aut.lts.alphabet)) == (925, 128)
    # Without recurrent subformulas the product is the master itself.
    calls.clear()
    plain = build_dgrma(parse_formula("a U (b U c)"))
    assert calls == {"build_master": 1}
    assert plain.lts is plain.master
    assert plain.columns == [list(range(len(plain.master)))]


def test_recent_automata_are_kept():
    # The last _KEPT_AUTOMATA keys are kept, least recently used first out:
    # a repeated call returns the same object however the cap is passed, also
    # after other formulas in between; errors are raised every time and evict
    # nothing; a lower cap and replaced builders are new keys.
    kept = freqsynth.dgrma._KEPT_AUTOMATA
    wide = parse_formula(WIDE_FORMULA)
    build_dgrma.cache_clear()
    aut = build_dgrma(wide)
    assert build_dgrma(wide, DEFAULT_STATE_CAP) is aut
    assert build_dgrma(wide, cap=DEFAULT_STATE_CAP) is aut
    assert build_dgrma.cache_info()[:2] == (2, 1)  # hits, misses
    other = build_dgrma(parse_formula("F a"))
    assert build_dgrma(wide) is aut  # A, B, A: the second A hits
    assert build_dgrma(parse_formula("F a")) is other
    assert build_dgrma.cache_info()[:2] == (4, 2)
    for _ in range(2):
        with pytest.raises(FormulaError, match="outside the supported fragment"):
            build_dgrma(parse_formula("G(a U b)"))
        with pytest.raises(StateCapExceeded, match="product automaton"):
            build_dgrma(wide, 924)
    assert build_dgrma.cache_info()[:2] == (4, 6)
    assert build_dgrma.cache_info().currsize == 2

    # Fill the table with distinct formulas, touching ``wide`` last, so that
    # ``F a`` is the least recently used key when one more comes.
    fillers = [parse_formula(f"F p{k}") for k in range(kept - 2)]
    for phi in fillers:
        build_dgrma(phi)
    assert build_dgrma(wide) is aut
    assert build_dgrma.cache_info().currsize == kept
    build_dgrma(parse_formula("G q"))
    assert build_dgrma.cache_info().currsize == kept
    misses = build_dgrma.cache_info().misses
    assert build_dgrma(wide) is aut
    assert build_dgrma(fillers[0]) is build_dgrma(fillers[0])
    assert build_dgrma.cache_info().misses == misses
    again = build_dgrma(parse_formula("F a"))
    assert build_dgrma.cache_info().misses == misses + 1
    assert again is not other and acceptance_dump(again) == acceptance_dump(other)


def test_wrapped_builders_translate_afresh_and_leave_the_kept_automaton(monkeypatch):
    # The benchmark's traced calls wrap the builders for one call and then
    # restore them: the wrapper is called although the formula is kept, and
    # the next call with the original builders returns the automaton kept
    # before, as the same object.
    wide = parse_formula(WIDE_FORMULA)
    build_dgrma.cache_clear()
    aut = build_dgrma(wide)
    calls = []
    original = freqsynth.dgrma.build_master

    def wrapped(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(freqsynth.dgrma, "build_master", wrapped)
    traced = build_dgrma(wide)
    assert calls == [1]
    assert traced is not aut and acceptance_dump(traced) == acceptance_dump(aut)
    monkeypatch.undo()
    assert build_dgrma(wide) is aut
    assert calls == [1]


def test_extra_atoms_only_widen_rows():
    # An atom the formula never reads changes no transition: the letterwise
    # oracle over extra atoms that sort before ("0"), between ("aa") and after
    # ("zz") the formula's atoms must number the same states with the same
    # acceptance as the translation, and each wide row must read the narrow
    # row at the projected letter.
    rng = random.Random(909)
    formulas = corpus_formulas()
    formulas += [
        random_fragment_formula(rng, rng.randint(2, 10), ["a", "b", "c"])
        for _ in range(60)
    ]
    extras = (["0"], ["aa"], ["zz"], ["0", "aa", "zz"])
    cases = 0
    for phi in formulas:
        atoms = frozenset(atoms_of(phi))
        narrow = build_dgrma(phi, cap=50_000)
        assert narrow.lts.atoms == atoms, phi
        for extra in extras:
            wide = letterwise_build_dgrma(phi, ap=extra, cap=50_000)
            assert wide.lts.atoms == atoms.union(extra), (phi, extra)
            assert wide.columns == narrow.columns, (phi, extra)
            assert acceptance_dump(wide) == acceptance_dump(narrow), (phi, extra)
            index = narrow.lts.letter_index
            projected = [index[letter & atoms] for letter in wide.lts.alphabet]
            for q, row in enumerate(wide.lts.delta):
                narrow_row = narrow.lts.delta[q]
                assert row == [narrow_row[j] for j in projected], (phi, extra, q)
            cases += 1
    assert cases == 4 * len(formulas) >= 360


def _column_corpus(seed):
    """The corpus and 120 random fragment formulas, translated."""
    rng = random.Random(seed)
    formulas = corpus_formulas()
    formulas += [
        random_fragment_formula(rng, rng.randint(2, 12), ["a", "b", "c"])
        for _ in range(120)
    ]
    for phi in formulas:
        aut = _translate(build_dgrma, phi, 20_000)
        if not isinstance(aut, str):
            yield phi, aut


def _written_out(pair):
    return (
        pair.assumptions,
        frozenset(pair.fin),
        tuple(frozenset(s) for s in pair.cond.inf_sets),
        tuple((b.cmp, b.bound, tuple(b.reward)) for b in pair.cond.mp_inf),
        tuple((b.cmp, b.bound, tuple(b.reward)) for b in pair.cond.mp_sup),
    )


def test_column_pairs_match_written_out_oracle():
    # Pairs decided on part columns must keep the oracle's assumption
    # subsets in its order, with equal Fin and Inf sets and rewards over
    # every automaton state, and lift_pair must lift them onto random
    # products as the written-out sets lift: Fin and Inf as sets of product
    # state indices, and each bound read at the product state's automaton
    # state.
    rng = random.Random(2121)
    compared = lifted = 0
    for phi, aut in _column_corpus(2121):
        ref = letterwise_build_pairs(
            aut.columns, aut.master, aut.rec, aut.slaves, aut.components
        )
        assert list(map(_written_out, aut.pairs)) == list(map(_written_out, ref)), phi
        compared += 1
        atoms = sorted(aut.lts.atoms)
        for _ in range(2):
            mdp = random_mdp(rng, 6, 2)
            valuation = [
                frozenset(x for x in atoms if rng.random() < 0.5) for _ in mdp.states
            ]
            product, comp = product_mdp(mdp, valuation, aut.lts)
            for pair, want in zip(aut.pairs, ref):
                fin, cond = lift_pair(pair, comp)
                rewards = tuple(
                    tuple(reward_of(cond, b, p) for p in range(len(product)))
                    for b in cond.mp_inf + cond.mp_sup
                )
                assert (fin, cond.inf_sets, rewards) == scan_lift_pair(want, product, comp), phi
                assert cond.at is comp
                lifted += 1
    assert compared >= 140 and lifted >= 1000


def test_every_part_state_occurs_in_its_column():
    # Every part is total over one alphabet, so each of its states occurs in
    # its column of the product.  _build_pairs decides Inf emptiness on
    # component states, and _tree_product's cap argument rests on the same
    # projection.
    checked = 0
    for phi, aut in _column_corpus(2122):
        parts = [aut.master] + aut.components
        assert len(aut.columns) == len(parts), phi
        for part, column in zip(parts, aut.columns):
            assert set(column) == set(range(len(part))), phi
        checked += 1
    assert checked >= 130
