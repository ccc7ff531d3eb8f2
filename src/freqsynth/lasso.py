"""Ultimately periodic words and exact formula evaluation on them.

This module is the semantic oracle: it evaluates formulas by fixpoint-free
walks over the folded position graph (stem positions plus one loop copy) and
computes limit frequencies as exact loop averages.  It deliberately shares
nothing with the automaton pipeline.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .formula import (
    AND,
    AP,
    EVENTUALLY,
    FF,
    ALWAYS,
    FREQ,
    GEQ,
    NAP,
    NEXT,
    OR,
    TT,
    UNTIL,
    Formula,
    FormulaError,
    is_atom_name,
)

Letter = frozenset


class LassoError(ValueError):
    """Malformed lasso text or shape."""


class Lasso:
    """Word stem . loop^omega over letters that are sets of atoms."""

    __slots__ = ("stem", "loop")

    def __init__(self, stem: Sequence[Letter], loop: Sequence[Letter]):
        if not loop:
            raise LassoError("loop must be nonempty")
        self.stem = tuple(frozenset(l) for l in stem)
        self.loop = tuple(frozenset(l) for l in loop)

    def __eq__(self, other):
        return (
            isinstance(other, Lasso)
            and self.stem == other.stem
            and self.loop == other.loop
        )

    def __hash__(self):
        return hash((self.stem, self.loop))

    def __repr__(self):
        return f"Lasso({lasso_to_str(self)})"

    def letter(self, n: int) -> Letter:
        """The n-th letter of the infinite word."""
        s = len(self.stem)
        if n < s:
            return self.stem[n]
        return self.loop[(n - s) % len(self.loop)]

    def positions(self) -> int:
        return len(self.stem) + len(self.loop)


def letter_to_str(letter: Letter) -> str:
    return "{" + " ".join(sorted(letter)) + "}"


def lasso_to_str(w: Lasso) -> str:
    stem = ";".join(letter_to_str(l) for l in w.stem)
    loop = ";".join(letter_to_str(l) for l in w.loop)
    return f"{stem} ({loop})^w" if stem else f"({loop})^w"


def parse_letters(text: str) -> tuple[Letter, ...]:
    """Parse a ';'-separated list of brace-sets such as '{a b};{}'."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not (part.startswith("{") and part.endswith("}")):
            raise LassoError(f"letter {part!r} is not a brace-set")
        inner = part[1:-1].strip()
        atoms = inner.split() if inner else []
        for a in atoms:
            if not is_atom_name(a):
                raise LassoError(f"bad atom name {a!r}")
        out.append(frozenset(atoms))
    return tuple(out)


def parse_lasso(stem_text: str, loop_text: str) -> Lasso:
    return Lasso(parse_letters(stem_text), parse_letters(loop_text))


class _Eval:
    """Memoized evaluation of subformulas at folded positions."""

    def __init__(self, w: Lasso):
        self.w = w
        self.s = len(w.stem)
        self.n = w.positions()
        self.memo: dict[tuple[int, int], bool] = {}

    def succ(self, pos: int) -> int:
        return pos + 1 if pos + 1 < self.n else self.s

    def reachable(self, pos: int) -> range:
        # From a stem position everything onward; from the loop, the whole loop.
        if pos < self.s:
            return range(pos, self.n)
        return range(self.s, self.n)

    def holds(self, phi: Formula, pos: int) -> bool:
        key = (phi.uid, pos)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        out = self._holds(phi, pos)
        self.memo[key] = out
        return out

    def _holds(self, phi: Formula, pos: int) -> bool:
        k = phi.kind
        if k == TT:
            return True
        if k == FF:
            return False
        if k == AP:
            return phi.name in self.w.letter(pos)
        if k == NAP:
            return phi.name not in self.w.letter(pos)
        if k == AND:
            return all(self.holds(c, pos) for c in phi.children)
        if k == OR:
            return any(self.holds(c, pos) for c in phi.children)
        if k == NEXT:
            return self.holds(phi.children[0], self.succ(pos))
        if k == EVENTUALLY:
            return any(self.holds(phi.children[0], q) for q in self.reachable(pos))
        if k == ALWAYS:
            return all(self.holds(phi.children[0], q) for q in self.reachable(pos))
        if k == UNTIL:
            left, right = phi.children
            cur = pos
            visited = set()
            while cur not in visited:
                visited.add(cur)
                if self.holds(right, cur):
                    return True
                if not self.holds(left, cur):
                    return False
                cur = self.succ(cur)
            return False
        if k == FREQ:
            cmp, p, _ext = phi.bound
            freq = self._loop_freq(phi.children[0])
            return freq >= p if cmp == GEQ else freq > p
        raise FormulaError(f"cannot evaluate {phi} on a word")

    def _loop_freq(self, xi: Formula) -> Fraction:
        loop_len = len(self.w.loop)
        count = sum(1 for q in range(self.s, self.n) if self.holds(xi, q))
        return Fraction(count, loop_len)


def models(w: Lasso, phi: Formula) -> bool:
    """Exact truth of the formula on the infinite word."""
    return _Eval(w).holds(phi, 0)
