import random
from fractions import Fraction

import pytest

from freqsynth.formula import always, atom, eventually, next_, parse_formula
from freqsynth.lasso import (
    Lasso,
    LassoError,
    lasso_to_str,
    models,
    parse_lasso,
    parse_letters,
)

from helpers import (
    freq_on_lasso,
    models_at,
    random_fragment_formula,
    random_lasso,
    rec_truth,
    shift,
)


A = frozenset("a")
E = frozenset()


def test_letter_parsing():
    assert parse_letters("{a b};{}") == (frozenset({"a", "b"}), frozenset())
    assert parse_letters("") == ()
    with pytest.raises(LassoError):
        parse_letters("a;b")
    with pytest.raises(LassoError):
        parse_letters("{1bad}")
    # Atom names follow the formula grammar's rule.
    assert parse_letters("{_x1 \u00e91 a\u00b2}") == (frozenset({"_x1", "\u00e91", "a\u00b2"}),)
    for name in ("\u00b2a", "\u0661", "a.b", "a-b"):
        with pytest.raises(LassoError):
            parse_letters("{" + name + "}")
    # Keywords are not atom names; names that start with one are.
    for name in ("X", "F", "G", "U", "tt", "ff"):
        with pytest.raises(LassoError, match=f"bad atom name {name!r}"):
            parse_letters("{a " + name + "}")
    assert parse_letters("{Xa ff0}") == (frozenset({"Xa", "ff0"}),)
    with pytest.raises(LassoError):
        Lasso((), ())


def test_models_examples():
    w = Lasso((), [A])
    assert models(w, parse_formula("G(X a | G X b)"))
    assert models(Lasso((), [A, E]), parse_formula("G{>=1/2,inf} a"))
    assert not models(Lasso([A], [E]), parse_formula("G(X a | G X b)"))
    assert not models(Lasso((), [E]), parse_formula("F a"))
    assert models(Lasso([E, E, A], [E]), parse_formula("F a"))


def test_until_on_loops():
    w = Lasso((), [frozenset("b"), A])
    assert models(w, parse_formula("b U a"))
    w2 = Lasso((), [frozenset("b")])
    assert not models(w2, parse_formula("b U a"))
    assert models(w2, parse_formula("b U b"))


def test_freq_on_lasso():
    assert freq_on_lasso(Lasso((), [A, E, E]), atom("a")) == Fraction(1, 3)
    assert freq_on_lasso(Lasso((), [A]), parse_formula("ff")) == 0
    assert freq_on_lasso(Lasso([E, E], [A]), atom("a")) == 1


def test_freq_rotation_and_pumping_invariance():
    rng = random.Random(7)
    for _ in range(100):
        w = random_lasso(rng, 3, 5, ["a", "b"])
        xi = random_fragment_formula(rng, rng.randint(1, 5), ["a", "b"])
        base = freq_on_lasso(w, xi)
        k = rng.randrange(len(w.loop))
        rotated = Lasso(w.stem + w.loop[:k], w.loop[k:] + w.loop[:k])
        assert freq_on_lasso(rotated, xi) == base
        pumped = Lasso(w.stem, w.loop * rng.randint(2, 3))
        assert freq_on_lasso(pumped, xi) == base


def test_shift_coherence():
    rng = random.Random(13)
    for _ in range(200):
        w = random_lasso(rng, 4, 4, ["a", "b"])
        phi = random_fragment_formula(rng, rng.randint(1, 6), ["a", "b"])
        assert models(w, next_(phi)) == models(shift(w, 1), phi)
        n = rng.randrange(0, 12)
        assert models_at(w, phi, n) == models(shift(w, n), phi)


def test_rec_truth():
    w = Lasso((), [A])
    fa, ga = eventually(atom("a")), always(atom("a"))
    assert rec_truth(w, [fa, ga]) == {fa, ga}
    w2 = Lasso([A], [E])
    assert rec_truth(w2, [fa]) == set()
    gf_half = parse_formula("G{>=1/2,inf} a")
    assert rec_truth(Lasso((), [A, E]), [gf_half]) == {gf_half}


def test_random_lasso_determinism_and_bounds():
    assert random_lasso(1, 0, 1, ["a"]).stem == ()
    assert random_lasso(5, 3, 3, ["a", "b"]) == random_lasso(5, 3, 3, ["a", "b"])
    for seed in range(30):
        w = random_lasso(seed, 3, 3, ["a", "b"])
        assert len(w.stem) <= 3 and 1 <= len(w.loop) <= 3
    with pytest.raises(LassoError):
        random_lasso(1, 2, 0, ["a"])


def test_lasso_text_roundtrip():
    w = parse_lasso("{a b};{}", "{b}")
    assert lasso_to_str(w) == "{a b};{} ({b})^w"
