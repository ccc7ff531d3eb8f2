import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqsynth import formula
from freqsynth.boolfn import formula_rank
from freqsynth.formula import (
    GEQ,
    INF,
    MAX_DEPTH,
    FormulaError,
    FormulaSyntaxError,
    FreqBound,
    atom,
    always,
    conj,
    eventually,
    atoms_of,
    freq_always,
    fragment_violation,
    neg_atom,
    next_,
    parse_formula,
    push_negation,
    negation,
    subformulas,
    tt,
    until,
)
from freqsynth.dgrma import rec_set
from freqsynth.lasso import models

from helpers import random_fragment_formula, random_lasso, time_limit, tree_in_fragment


def test_parse_motivating_formula():
    phi = parse_formula("G{>=0.99,inf}(r -> X(f & F c))")
    assert phi.kind == "Gf"
    assert phi.bound.cmp == ">="
    assert str(phi.bound.p) == "99/100"
    assert phi.bound.ext == "inf"


def test_parse_constants_and_right_assoc():
    assert parse_formula("tt").kind == "tt"
    assert parse_formula("a U (b U c)") is parse_formula("a U b U c")


def test_roundtrip_fixed():
    texts = [
        "a & X(b U a)",
        "G(X a | G X b)",
        "G{>1/2,sup} !a",
        "(a | b) U (c & X c)",
        "F G (a | X a)",
    ]
    for text in texts:
        phi = parse_formula(text)
        assert parse_formula(str(phi)) is phi


def test_roundtrip_random():
    rng = random.Random(5)
    for _ in range(200):
        phi = random_fragment_formula(rng, rng.randint(1, 12), ["a", "b", "c"])
        assert parse_formula(str(phi)) is phi


def test_syntax_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("a & (b |")
    assert err.value.pos == 8
    with pytest.raises(FormulaSyntaxError):
        parse_formula("a @ b")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("G{>=3/2,inf} a")  # frequency bound outside [0,1]
    with pytest.raises(FormulaSyntaxError, match="zero denominator") as err:
        parse_formula("G{>=1 / 0,inf} a")
    assert err.value.pos == 4  # the literal's first digit


@pytest.mark.parametrize("text", ["G{>=\u00b2,inf} a", "G{>=\u0661/\u0662,inf} a"])
def test_bounds_take_ascii_digits_only(text):
    # Superscript two and Arabic-Indic 1/2: digits to str.isdigit, but not
    # the INT of the rational literal that model probabilities and
    # --threshold also use.
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(text)
    assert err.value.pos == 4


@pytest.mark.parametrize(
    "text, p",
    [
        ("G{>=1 / 2,inf} a", Fraction(1, 2)),
        ("G{>=1/2,inf} a", Fraction(1, 2)),
        ("G{>=0.5,inf} a", Fraction(1, 2)),
        ("G{>=1,inf} a", Fraction(1)),
        ("G{>=0,inf} a", Fraction(0)),
    ],
)
def test_bound_literals(text, p):
    assert parse_formula(text) is freq_always(FreqBound(GEQ, p, INF), atom("a"))


def test_atom_names():
    assert parse_formula("_x1") is atom("_x1")
    assert parse_formula("\u00e91 & a\u00b2") is conj(atom("\u00e91"), atom("a\u00b2"))
    assert parse_formula("X1a") is atom("X1a")  # a keyword prefix is a name
    for text in ("\u00b2a", "1a", "a.b"):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text)


# Short text of any characters, and bounds whose literal is made of digits of
# every script (str.isdigit and str.isnumeric accept more than ASCII).
NUMERALS = st.text(
    st.one_of(st.characters(categories=("Nd", "No", "Nl")), st.sampled_from("0123456789/. ")),
    max_size=6,
)


def test_recent_texts_are_kept(monkeypatch):
    # The last 8 texts keep their trees, least recently used first out: a
    # kept text returns its tree without lexing, and a syntax error is never
    # kept.
    lexed = []
    real_lexer = formula._Lexer

    def counting_lexer(text):
        lexed.append(text)
        return real_lexer(text)

    monkeypatch.setattr(formula, "_Lexer", counting_lexer)
    parse_formula.cache_clear()
    texts = [f"G F a{k}" for k in range(9)]
    trees = [parse_formula(text) for text in texts[:8]]
    assert lexed == texts[:8]
    assert parse_formula(texts[0]) is trees[0] and lexed == texts[:8]
    for _ in range(2):
        with pytest.raises(FormulaSyntaxError, match="unexpected character"):
            parse_formula("a @ b")
    assert lexed == texts[:8] + ["a @ b"] * 2
    # texts[1] is now the least recently used; the ninth text evicts it.
    parse_formula(texts[8])
    assert parse_formula(texts[0]) is trees[0] and parse_formula(texts[2]) is trees[2]
    assert lexed == texts[:8] + ["a @ b"] * 2 + [texts[8]]
    assert parse_formula(texts[1]) is trees[1]
    assert lexed == texts[:8] + ["a @ b"] * 2 + [texts[8], texts[1]]
    parse_formula.cache_clear()


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=12), NUMERALS.map(lambda t: f"G{{>={t},inf}} a")))
def test_parse_returns_or_raises_a_formula_error(text):
    try:
        parse_formula(text)
    except FormulaError:
        pass


@pytest.mark.parametrize(
    "opening, closing, levels",
    [
        ("X ", "", 1),
        ("(", ")", 1),
        ("!", "", 1),
        ("a U ", "", 1),
        ("a -> ", "", 1),
        ("G{>=1/2,inf}(a | X !(b & F ", "))", 6),
    ],
)
def test_nesting_depth_limit(opening, closing, levels):
    reps, pad = divmod(MAX_DEPTH, levels)
    text = "(" * pad + opening * reps + "a" + closing * reps + ")" * pad
    phi = parse_formula(text)
    assert push_negation(phi) is phi
    fragment_violation(phi)
    formula_rank(phi)
    str(phi)
    with pytest.raises(FormulaSyntaxError, match=f"nested deeper than {MAX_DEPTH}"):
        parse_formula("(" + text + ")")


def test_fragment_violation():
    assert fragment_violation(parse_formula("G(F a)")) is None
    assert fragment_violation(parse_formula("G(a U b)")) is parse_formula("G(a U b)")
    assert fragment_violation(parse_formula("(a U b) & G{>=1/2,inf} c")) is None
    bad = parse_formula("G{>=1/2,inf}(a U b)")
    assert fragment_violation(bad) is bad
    # The offender is the G, not the formula around it.
    assert fragment_violation(parse_formula("F G (a U b)")) is parse_formula("G (a U b)")
    assert fragment_violation(parse_formula("F(a U b)")) is None
    # An explicit negation is outside the fragment wherever it sits.
    raw = conj(eventually(atom("a")), negation(atom("b")))
    assert fragment_violation(raw) is negation(atom("b"))


def _holds_until(phi):
    return phi.kind == "U" or any(_holds_until(c) for c in phi.children)


def _offends(phi):
    return phi.kind == "not" or (phi.kind in ("G", "Gf") and _holds_until(phi.children[0]))


def test_fragment_violation_matches_the_tree_walk():
    # Random formulas, their pushed negations (a negated F over an until is
    # a G over one) and G over them: the first offender in uid order, which
    # is an offending G when no explicit negation is left.
    rng = random.Random(4409)
    inside = offending_g = 0
    for _ in range(1500):
        phi = random_fragment_formula(rng, rng.randint(1, 9), ["a", "b", "c"])
        for psi in (phi, push_negation(negation(phi)), always(phi), conj(phi, negation(phi))):
            bad = fragment_violation(psi)
            assert (bad is None) == tree_in_fragment(psi), psi
            if bad is None:
                inside += 1
                continue
            nodes = subformulas(psi)
            assert bad is next(f for f in nodes if _offends(f))
            if all(f.kind != "not" for f in nodes):
                assert bad.kind in ("G", "Gf"), psi
                offending_g += 1
    assert inside >= 2000 and offending_g >= 500, (inside, offending_g)


def test_formula_walks_stay_linear_in_shared_nodes():
    # Each level of "!(b U c | d & ...)" shares its operand twice in
    # negation normal form: a tree walk triples per level, and printing the
    # whole formula would take about 10^13 characters at 33 levels.
    text = "!(b U c | d & " * 30 + "a" + ")" * 30
    phi = parse_formula(text)
    with time_limit(5):
        assert atoms_of(phi) == {"a", "b", "c", "d"}
        rec = rec_set(phi)
        bad = fragment_violation(phi)
    assert [f.uid for f in rec] == sorted(f.uid for f in rec) and rec
    assert bad.kind == "G" and len(str(bad)) <= len(text)


def test_push_negation_dualities():
    # The frequency dual flips the limit flavor and complements the bound.
    phi = push_negation(negation(parse_formula("G{>=1/4,inf} a")))
    assert phi is parse_formula("G{>3/4,sup} !a")
    phi = push_negation(negation(parse_formula("G{>1/4,sup} a")))
    assert phi is parse_formula("G{>=3/4,inf} !a")
    assert push_negation(negation(negation(atom("a")))) is atom("a")
    assert parse_formula("!(a & F b)") is parse_formula("!a | G !b")


def test_push_negation_until():
    # Negated until re-expressed with globally plus until.
    phi = parse_formula("!(a U b)")
    assert fragment_violation(phi) is None
    rng = random.Random(11)
    base = parse_formula("a U b")
    for _ in range(100):
        w = random_lasso(rng, 4, 4, ["a", "b"])
        assert models(w, phi) == (not models(w, base))


def test_push_negation_preserves_semantics_on_lassos():
    rng = random.Random(31)
    for _ in range(150):
        phi = random_fragment_formula(rng, rng.randint(1, 8), ["a", "b"])
        neg = push_negation(negation(phi))
        for _ in range(5):
            w = random_lasso(rng, 4, 4, ["a", "b"])
            assert models(w, phi) == (not models(w, neg))


def test_subformulas():
    phi = conj(atom("a"), next_(until(atom("b"), atom("a"))))
    got = subformulas(phi)
    assert {str(f) for f in got} == {"a", "b", "b U a", "X (b U a)", str(phi)}
    assert len(got) == 5
    assert subformulas(tt()) == [tt()]
    fa = eventually(atom("a"))
    assert subformulas(fa) == [atom("a"), fa]
    # Each distinct node once, in uid order, every child before its parent.
    rng = random.Random(57)
    for _ in range(200):
        psi = push_negation(negation(random_fragment_formula(rng, rng.randint(1, 9), ["a", "b"])))
        nodes = subformulas(psi)
        assert [f.uid for f in nodes] == sorted({f.uid for f in nodes})
        assert nodes[-1] is psi
        seen = set()
        for f in nodes:
            assert seen.issuperset(f.children)
            seen.add(f)


def test_conjunction_canonicalization():
    a, b = atom("a"), atom("b")
    assert conj(a, b) is conj(b, a)
    assert conj(a, conj(b, a)) is conj(a, b)
    assert conj(a, parse_formula("tt")) is a
    assert conj(a, parse_formula("ff")).kind == "ff"
