"""Frequency-LTL syntax trees: construction, parsing, printing, rewriting.

Formulas are hash-consed: structurally equal trees are the same object and
carry a stable integer ``uid``.  The uid order doubles as the global total
order on subformulas used by the Boolean-function layer.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, NamedTuple

# Node kinds.
TT = "tt"
FF = "ff"
AP = "ap"
NAP = "nap"
AND = "and"
OR = "or"
NEXT = "X"
UNTIL = "U"
EVENTUALLY = "F"
ALWAYS = "G"
FREQ = "Gf"
NOT = "not"  # transient: eliminated by push_negation

GEQ = ">="
GT = ">"
INF = "inf"
SUP = "sup"

# Deepest nesting of parentheses, unary operators and right operands of U and
# -> that the parser accepts.  The parser and every recursive pass over the
# parsed formula fit in the interpreter's default stack at this depth.
MAX_DEPTH = 100


class FreqBound(NamedTuple):
    """Comparison, threshold and limit flavor of a frequency-globally operator."""

    cmp: str  # GEQ or GT
    p: Fraction
    ext: str  # INF or SUP


class FormulaError(ValueError):
    """Malformed formula construction or text."""


class FormulaSyntaxError(FormulaError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class Formula:
    """Immutable, interned formula node.

    Equality is identity; ``uid`` gives a deterministic total order (creation
    order within a process).
    """

    __slots__ = ("kind", "name", "bound", "children", "uid")

    _table: dict = {}
    _by_uid: list = []

    def __init__(self, kind, name, bound, children, uid):
        self.kind = kind
        self.name = name
        self.bound = bound
        self.children = children
        self.uid = uid

    @staticmethod
    def _intern(kind, name=None, bound=None, children=()) -> "Formula":
        key = (kind, name, bound, tuple(c.uid for c in children))
        node = Formula._table.get(key)
        if node is None:
            node = Formula(kind, name, bound, tuple(children), len(Formula._by_uid))
            Formula._table[key] = node
            Formula._by_uid.append(node)
        return node

    @staticmethod
    def by_uid(uid: int) -> "Formula":
        return Formula._by_uid[uid]

    def __repr__(self):
        return f"Formula({self})"

    def __str__(self):
        return _to_str(self, 0)

    def is_boolean(self) -> bool:
        """True for conjunctions and disjunctions (non-Boolean otherwise)."""
        return self.kind in (AND, OR)

    def is_constant(self) -> bool:
        return self.kind in (TT, FF)


def tt() -> Formula:
    return Formula._intern(TT)


def ff() -> Formula:
    return Formula._intern(FF)


def atom(name: str) -> Formula:
    return Formula._intern(AP, name=name)


def neg_atom(name: str) -> Formula:
    return Formula._intern(NAP, name=name)


def _nary(kind: str, parts: Iterable[Formula]) -> Formula:
    absorb, unit = (FF, TT) if kind == AND else (TT, FF)
    flat: list[Formula] = []
    seen = set()
    stack = list(parts)[::-1]
    while stack:
        p = stack.pop()
        if p.kind == kind:
            stack.extend(reversed(p.children))
            continue
        if p.kind == absorb:
            return ff() if kind == AND else tt()
        if p.kind == unit:
            continue
        if p.uid not in seen:
            seen.add(p.uid)
            flat.append(p)
    if not flat:
        return tt() if kind == AND else ff()
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=lambda f: f.uid)
    return Formula._intern(kind, children=flat)


def conj(*parts: Formula) -> Formula:
    return _nary(AND, parts)


def disj(*parts: Formula) -> Formula:
    return _nary(OR, parts)


def next_(child: Formula) -> Formula:
    return Formula._intern(NEXT, children=(child,))


def until(left: Formula, right: Formula) -> Formula:
    return Formula._intern(UNTIL, children=(left, right))


def eventually(child: Formula) -> Formula:
    return Formula._intern(EVENTUALLY, children=(child,))


def always(child: Formula) -> Formula:
    return Formula._intern(ALWAYS, children=(child,))


def freq_always(bound: FreqBound, child: Formula) -> Formula:
    if not 0 <= bound.p <= 1:
        raise FormulaError(f"frequency bound {bound.p} outside [0,1]")
    if bound.cmp not in (GEQ, GT) or bound.ext not in (INF, SUP):
        raise FormulaError("malformed frequency bound")
    return Formula._intern(FREQ, bound=bound, children=(child,))


def negation(child: Formula) -> Formula:
    """Explicit negation node; only accepted transiently before push_negation."""
    return Formula._intern(NOT, children=(child,))


def push_negation(phi: Formula) -> Formula:
    """Rewrite to negation normal form, pushing every negation to the atoms.

    Frequency operators dualize by flipping the limit flavor, flipping the
    comparison and complementing the bound; negated until is expressed as
    G(!b) | (!b U (!a & !b)).
    """
    return _nnf(phi, False)


def _nnf(phi: Formula, neg: bool) -> Formula:
    k = phi.kind
    if k == NOT:
        return _nnf(phi.children[0], not neg)
    if k == TT:
        return ff() if neg else tt()
    if k == FF:
        return tt() if neg else ff()
    if k == AP:
        return neg_atom(phi.name) if neg else phi
    if k == NAP:
        return atom(phi.name) if neg else phi
    if k == AND:
        parts = [_nnf(c, neg) for c in phi.children]
        return disj(*parts) if neg else conj(*parts)
    if k == OR:
        parts = [_nnf(c, neg) for c in phi.children]
        return conj(*parts) if neg else disj(*parts)
    if k == NEXT:
        return next_(_nnf(phi.children[0], neg))
    if k == EVENTUALLY:
        c = _nnf(phi.children[0], neg)
        return always(c) if neg else eventually(c)
    if k == ALWAYS:
        c = _nnf(phi.children[0], neg)
        return eventually(c) if neg else always(c)
    if k == UNTIL:
        a, b = phi.children
        if not neg:
            return until(_nnf(a, False), _nnf(b, False))
        na, nb = _nnf(a, True), _nnf(b, True)
        return disj(always(nb), until(nb, conj(na, nb)))
    if k == FREQ:
        c = _nnf(phi.children[0], neg)
        if not neg:
            return freq_always(phi.bound, c)
        cmp, p, ext = phi.bound
        dual = FreqBound(GT if cmp == GEQ else GEQ, 1 - p, SUP if ext == INF else INF)
        return freq_always(dual, c)
    raise FormulaError(f"unknown node kind {k!r}")


def subformulas(phi: Formula) -> list[Formula]:
    """Each distinct node of ``phi`` once, in uid order.  A node is interned
    after its children, so every child comes before its parent."""
    seen = {phi.uid: phi}
    stack = [phi]
    while stack:
        for c in stack.pop().children:
            if c.uid not in seen:
                seen[c.uid] = c
                stack.append(c)
    return [seen[uid] for uid in sorted(seen)]


def fragment_violation(phi: Formula) -> Formula | None:
    """The first node of ``phi``, in uid order, that puts it outside the
    fragment (no until inside a globally operator): an explicit negation, or
    a G or G{...} whose operand holds an until.  None inside the fragment."""
    holds_until: set[Formula] = set()
    for f in subformulas(phi):
        if f.kind == NOT or (f.kind in (ALWAYS, FREQ) and f.children[0] in holds_until):
            return f
        if f.kind == UNTIL or not holds_until.isdisjoint(f.children):
            holds_until.add(f)
    return None


def atoms_of(phi: Formula) -> set[str]:
    return {f.name for f in subformulas(phi) if f.kind in (AP, NAP)}


# Printing.  Precedence levels: 0 until, 1 or, 2 and, 3 unary/primary.
def _to_str(phi: Formula, level: int) -> str:
    k = phi.kind
    if k == TT:
        return "tt"
    if k == FF:
        return "ff"
    if k == AP:
        return phi.name
    if k == NAP:
        return "!" + phi.name
    if k == NOT:
        return "!" + _to_str(phi.children[0], 3)
    if k == UNTIL:
        s = f"{_to_str(phi.children[0], 1)} U {_to_str(phi.children[1], 0)}"
        return f"({s})" if level > 0 else s
    if k == OR:
        s = " | ".join(_to_str(c, 2) for c in phi.children)
        return f"({s})" if level > 1 else s
    if k == AND:
        s = " & ".join(_to_str(c, 3) for c in phi.children)
        return f"({s})" if level > 2 else s
    if k == NEXT:
        return "X " + _to_str(phi.children[0], 3)
    if k == EVENTUALLY:
        return "F " + _to_str(phi.children[0], 3)
    if k == ALWAYS:
        return "G " + _to_str(phi.children[0], 3)
    if k == FREQ:
        cmp, p, ext = phi.bound
        return f"G{{{cmp}{p},{ext}}} " + _to_str(phi.children[0], 3)
    raise FormulaError(f"unknown node kind {k!r}")


# Parser: recursive descent over the published grammar, "->" as sugar.
# One token per match: a number (ASCII digits, an optional ".DIGITS"), a word,
# a punctuation mark, any other character (an error), or the end of the text.
_TOKEN = re.compile(
    r"\s*(?:(?P<number>[0-9]+(?:\.[0-9]+)?)|(?P<word>\w+)"
    r"|(?P<punct>->|>=|[>(){},/&|!])|(?P<bad>.)|(?P<eof>\Z))",
    re.DOTALL,
)
_KEYWORDS = frozenset(("X", "F", "G", "U", "tt", "ff"))
_WORD = re.compile(r"\w+")


def is_atom_name(text: str) -> bool:
    """True for a letter or ``_`` followed by letters, digits or ``_``, but
    not a keyword (``X F G U tt ff``), which no formula can name as an atom."""
    return (
        _WORD.fullmatch(text) is not None
        and (text[0].isalpha() or text[0] == "_")
        and text not in _KEYWORDS
    )


class _Lexer:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, str, int]] = []
        for m in _TOKEN.finditer(text):
            kind, pos = m.lastgroup, m.start(m.lastgroup)
            value = m.group(kind)
            if kind == "word":
                if value in _KEYWORDS:
                    kind = "keyword"
                elif is_atom_name(value):
                    kind = "ident"
                else:
                    kind = "bad"
            if kind == "bad":
                raise FormulaSyntaxError(f"unexpected character {value[0]!r}", pos)
            self.tokens.append((kind, value, pos))
            if kind == "eof":
                break
        self.idx = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.idx]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, value: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[1] != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {tok[1]!r}", tok[2])
        return tok

    def nested(self, parse, pos: int) -> "Formula":
        """Run a sub-parse one nesting level deeper, at most MAX_DEPTH deep."""
        if self.depth == MAX_DEPTH:
            raise FormulaSyntaxError(f"formula nested deeper than {MAX_DEPTH} levels", pos)
        self.depth += 1
        out = parse(self)
        self.depth -= 1
        return out


def parse_formula(text: str) -> Formula:
    """Parse formula text and return its negation-normal-form tree."""
    lx = _Lexer(text)
    raw = _parse_impl(lx)
    tok = lx.peek()
    if tok[0] != "eof":
        raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return push_negation(raw)


def _parse_impl(lx: _Lexer) -> Formula:
    left = _parse_until(lx)
    if lx.peek()[1] == "->":
        pos = lx.next()[2]
        right = lx.nested(_parse_impl, pos)
        return disj(negation(left), right)
    return left


def _parse_until(lx: _Lexer) -> Formula:
    left = _parse_or(lx)
    if lx.peek()[1] == "U":
        pos = lx.next()[2]
        right = lx.nested(_parse_until, pos)
        return until(left, right)
    return left


def _parse_or(lx: _Lexer) -> Formula:
    parts = [_parse_and(lx)]
    while lx.peek()[1] == "|":
        lx.next()
        parts.append(_parse_and(lx))
    return disj(*parts) if len(parts) > 1 else parts[0]


def _parse_and(lx: _Lexer) -> Formula:
    parts = [_parse_unary(lx)]
    while lx.peek()[1] == "&":
        lx.next()
        parts.append(_parse_unary(lx))
    return conj(*parts) if len(parts) > 1 else parts[0]


def _parse_unary(lx: _Lexer) -> Formula:
    kind, value, pos = lx.peek()
    if value == "!":
        lx.next()
        return negation(lx.nested(_parse_unary, pos))
    if value == "X":
        lx.next()
        return next_(lx.nested(_parse_unary, pos))
    if value == "F":
        lx.next()
        return eventually(lx.nested(_parse_unary, pos))
    if value == "G":
        lx.next()
        if lx.peek()[1] == "{":
            bound = _parse_freq_bound(lx)
            return freq_always(bound, lx.nested(_parse_unary, pos))
        return always(lx.nested(_parse_unary, pos))
    return _parse_primary(lx)


def _parse_freq_bound(lx: _Lexer) -> FreqBound:
    lx.expect("{")
    tok = lx.next()
    if tok[1] not in (GEQ, GT):
        raise FormulaSyntaxError(f"expected '>=' or '>', found {tok[1]!r}", tok[2])
    cmp = tok[1]
    p = _parse_rational(lx)
    lx.expect(",")
    tok = lx.next()
    if tok[1] not in (INF, SUP):
        raise FormulaSyntaxError(f"expected 'inf' or 'sup', found {tok[1]!r}", tok[2])
    ext = tok[1]
    lx.expect("}")
    if not 0 <= p <= 1:
        raise FormulaSyntaxError(f"frequency bound {p} outside [0,1]", tok[2])
    return FreqBound(cmp, p, ext)


def _parse_rational(lx: _Lexer) -> Fraction:
    """The ``INT``, ``INT/INT`` or ``INT.DIGITS`` literal at the cursor;
    spaces may surround the ``/``."""
    tok = lx.next()
    if tok[0] != "number":
        raise FormulaSyntaxError(f"expected a number, found {tok[1]!r}", tok[2])
    literal = tok[1]
    if lx.peek()[1] == "/":
        lx.next()
        literal += "/" + lx.next()[1]
    try:
        return rational_literal(literal)
    except ValueError as exc:
        raise FormulaSyntaxError(f"bad rational {literal!r}: {exc}", tok[2]) from None


def _parse_primary(lx: _Lexer) -> Formula:
    kind, value, pos = lx.next()
    if value == "(":
        inner = lx.nested(_parse_impl, pos)
        lx.expect(")")
        return inner
    if value == "tt":
        return tt()
    if value == "ff":
        return ff()
    if kind == "ident":
        return atom(value)
    raise FormulaSyntaxError(f"expected a formula, found {value!r}", pos)


_RATIONAL_LITERAL = re.compile(r"[0-9]+(/[0-9]+|\.[0-9]+)?")


def rational_literal(text: str) -> Fraction:
    """Exact value of an ``INT``, ``INT/INT`` or decimal (``INT.DIGITS``)
    literal.  Anything else, signs and exponent notation included, raises
    ValueError before any digits are converted; so does a zero denominator."""
    if _RATIONAL_LITERAL.fullmatch(text) is None:
        raise ValueError("expected INT, INT/INT or a decimal")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', an integer or a decimal literal into an exact rational."""
    try:
        return rational_literal(text.strip())
    except ValueError as exc:
        raise FormulaError(f"bad rational {text!r}: {exc}") from None
