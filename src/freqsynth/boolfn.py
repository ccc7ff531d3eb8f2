"""Positive Boolean functions over non-Boolean subformulas.

A function is stored as the antichain of its minimal models, each model being
a frozenset of formula uids.  Equality of ``BoolFn`` values is exactly
propositional equivalence, which makes them usable as automaton states.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable

from .formula import (
    AND,
    AP,
    EVENTUALLY,
    FF,
    ALWAYS,
    FREQ,
    NAP,
    NEXT,
    NOT,
    OR,
    TT,
    UNTIL,
    Formula,
    FormulaError,
    next_,
)


def _minimize(models: Iterable[frozenset[int]]) -> frozenset[frozenset[int]]:
    by_size = sorted(set(models), key=len)
    kept: list[frozenset[int]] = []
    for m in by_size:
        if not any(k <= m for k in kept):
            kept.append(m)
    return frozenset(kept)


class BoolFn:
    """Monotone Boolean function represented by its minimal models."""

    __slots__ = ("models", "_hash")

    def __init__(self, models: Iterable[frozenset[int]], _canonical: bool = False):
        self.models = frozenset(models) if _canonical else _minimize(models)
        self._hash = hash(self.models)

    def __eq__(self, other):
        return isinstance(other, BoolFn) and self.models == other.models

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"BoolFn({self})"

    def __str__(self):
        if self.is_true():
            return "tt"
        if self.is_false():
            return "ff"
        parts = []
        for m in sorted(self.models, key=lambda m: (len(m), sorted(m))):
            lits = [_var_str(uid) for uid in sorted(m)]
            parts.append(" & ".join(lits) if len(lits) == 1 else "(" + " & ".join(lits) + ")")
        return " | ".join(parts)

    def is_true(self) -> bool:
        return self.models == _TRUE_MODELS

    def is_false(self) -> bool:
        return not self.models

    def variables(self) -> frozenset[int]:
        out: set[int] = set()
        for m in self.models:
            out |= m
        return frozenset(out)

    def holds_under(self, true_uids: frozenset[int]) -> bool:
        """Evaluate under the assignment making exactly ``true_uids`` true."""
        return any(m <= true_uids for m in self.models)

    def implies(self, other: BoolFn) -> bool:
        """Whether every assignment satisfying this function satisfies
        ``other``; both are monotone, so this function's minimal models
        decide it."""
        return all(other.holds_under(m) for m in self.models)


def _var_str(uid: int) -> str:
    f = Formula.by_uid(uid)
    s = str(f)
    return f"({s})" if (" " in s and not s.startswith("(")) else s


_TRUE_MODELS = frozenset([frozenset()])

TRUE = BoolFn(_TRUE_MODELS, _canonical=True)
FALSE = BoolFn(frozenset(), _canonical=True)


def var(phi: Formula) -> BoolFn:
    if phi.is_boolean() or phi.is_constant():
        raise FormulaError(f"not a non-Boolean formula: {phi}")
    return BoolFn(frozenset([frozenset([phi.uid])]), _canonical=True)


def bf_and(f: BoolFn, g: BoolFn) -> BoolFn:
    if f.is_false() or g.is_false():
        return FALSE
    if f.is_true():
        return g
    if g.is_true():
        return f
    return BoolFn(m1 | m2 for m1 in f.models for m2 in g.models)


def bf_or(f: BoolFn, g: BoolFn) -> BoolFn:
    if f.is_true() or g.is_true():
        return TRUE
    if f.is_false():
        return g
    if g.is_false():
        return f
    return BoolFn(f.models | g.models)


def bf_and_many(fns: Iterable[BoolFn]) -> BoolFn:
    out = TRUE
    for f in fns:
        out = bf_and(out, f)
        if out.is_false():
            return FALSE
    return out


def bf_or_many(fns: Iterable[BoolFn]) -> BoolFn:
    out = FALSE
    for f in fns:
        out = bf_or(out, f)
        if out.is_true():
            return TRUE
    return out


def substitute(f: BoolFn, image: Callable[[int], BoolFn]) -> BoolFn:
    """Simultaneously replace every variable by its image function."""
    disjuncts = []
    for m in f.models:
        term = TRUE
        for uid in sorted(m):
            term = bf_and(term, image(uid))
            if term.is_false():
                break
        if term.is_true():
            return TRUE
        disjuncts.append(term)
    return bf_or_many(disjuncts)


def substitute_ff(f: BoolFn, killed: Iterable[Formula]) -> BoolFn:
    """Replace each listed non-Boolean formula by ff throughout the function."""
    uids = {phi.uid for phi in killed}
    return BoolFn(
        frozenset(m for m in f.models if not (m & uids)), _canonical=True
    )


@cache
def formula_to_boolfn(phi: Formula) -> BoolFn:
    """View a formula as a Boolean function over its non-Boolean parts."""
    k = phi.kind
    if k == TT:
        return TRUE
    if k == FF:
        return FALSE
    if k == AND:
        return bf_and_many(formula_to_boolfn(c) for c in phi.children)
    if k == OR:
        return bf_or_many(formula_to_boolfn(c) for c in phi.children)
    if k == NOT:
        raise FormulaError("negation nodes must be rewritten before automaton use")
    return var(phi)


@cache
def unfold_formula(phi: Formula) -> BoolFn:
    """One-step expansion of a single formula into literals and X-obligations."""
    k = phi.kind
    if k == TT:
        return TRUE
    if k == FF:
        return FALSE
    if k == AND:
        return bf_and_many(unfold_formula(c) for c in phi.children)
    if k == OR:
        return bf_or_many(unfold_formula(c) for c in phi.children)
    if k == EVENTUALLY:
        return bf_or(unfold_formula(phi.children[0]), var(next_(phi)))
    if k == ALWAYS:
        return bf_and(unfold_formula(phi.children[0]), var(next_(phi)))
    if k == UNTIL:
        left, right = phi.children
        return bf_or(
            unfold_formula(right), bf_and(unfold_formula(left), var(next_(phi)))
        )
    if k == FREQ:
        return var(next_(phi))
    if k in (AP, NAP, NEXT):
        return var(phi)
    raise FormulaError(f"cannot unfold {phi}")


def unfold(f) -> BoolFn:
    """Expand every variable of a function (or a formula) one step."""
    if isinstance(f, Formula):
        f = formula_to_boolfn(f)
    return substitute(f, lambda uid: unfold_formula(Formula.by_uid(uid)))


def step(f: BoolFn, letter: frozenset) -> BoolFn:
    """Next-step operator: resolve literals under the letter, peel one X."""

    def image(uid: int) -> BoolFn:
        v = Formula.by_uid(uid)
        if v.kind == AP:
            return TRUE if v.name in letter else FALSE
        if v.kind == NAP:
            return FALSE if v.name in letter else TRUE
        if v.kind == NEXT:
            return formula_to_boolfn(v.children[0])
        return var(v)

    return substitute(f, image)


def step_row(f: BoolFn, alphabet) -> list[BoolFn]:
    """``[step(f, letter) for letter in alphabet]``, stepping once per
    distinct restriction of a letter to the atoms that f's literals read."""
    read = frozenset(
        v.name
        for v in map(Formula.by_uid, f.variables())
        if v.kind in (AP, NAP)
    )
    by_read: dict = {}
    row = []
    for letter in alphabet:
        seen = letter & read
        nxt = by_read.get(seen)
        if nxt is None:
            nxt = by_read[seen] = step(f, seen)
        row.append(nxt)
    return row


@cache
def formula_rank(phi: Formula) -> int:
    """Steps before the formula is insensitive to letters: literals rank 1,
    X adds one, fixed operators (U, F, G, frequency-G) rank 0."""
    k = phi.kind
    if k in (AP, NAP):
        return 1
    if k == NEXT:
        return 1 + formula_rank(phi.children[0])
    if k in (AND, OR):
        return max(formula_rank(c) for c in phi.children)
    if k in (TT, FF, UNTIL, EVENTUALLY, ALWAYS, FREQ):
        return 0
    raise FormulaError(f"cannot rank {phi}")


def rank(f: BoolFn) -> int:
    vs = f.variables()
    return max((formula_rank(Formula.by_uid(u)) for u in vs), default=0)
