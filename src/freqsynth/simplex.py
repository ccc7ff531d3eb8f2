"""Two-phase simplex over exact rationals with Bland's anti-cycling rule.

Problem form: maximize a linear objective subject to rows ``coeffs rel rhs``
with rel in {<=, >=, ==} and all variables non-negative.  One row format
runs from ``mecanalysis.build_lp`` through the tableau to ``_verify_solution``:
int numerators over one positive int denominator, exact without a Fraction
per cell and pivot.  Every row starts basic on its own artificial, a basis
marker with no column: an artificial that leaves never re-enters, and phase
one ends at the first basis where no real column prices positive.  Phase two
runs on the rows that are left.  The pivot row is divided by its gcd on
every pivot; any other row, and the cost row, only once its denominator
outgrows ``_REDUCE_BITS``.  Every decision reads signs, zero tests and ratios
within one row, none of which a positive common factor changes, so the
pivots are those of a fully reduced tableau.  Only the returned values are
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LEQ = "<="
GEQ = ">="
EQ = "=="

_ZERO = Fraction(0)

# An updated row is divided by its gcd only when its denominator is longer
# than this many bits.  A gcd pass after every update (a bound of 0) made the
# benchmark's flow LPs 40-60 % slower; with no pass at all the numerators grow
# with every pivot, and an 80-state ring's margin LP took 1.9 s against 1.4 s
# at 128 bits.  Bounds of 64 to 256 bits were within 10 % of each other on
# the benchmark's LPs, and 256 took 1.2 s on the ring (2-vCPU x86, Python
# 3.11).
_REDUCE_BITS = 128


class SimplexError(Exception):
    """Internal solver failure (malformed input or a broken invariant)."""


def solve_lp(
    num_vars: int,
    rows: Sequence[tuple[Mapping[int, int], str, int, int]],
    objective: Mapping[int, int | Fraction],
):
    """Maximize the objective; returns (status, values, objective value).

    A row ``(nums, rel, rhs, den)`` reads ``sum(nums[j] * x[j]) / den rel
    rhs / den``: int numerators and one positive int denominator.  Objective
    weights are ``int`` or ``Fraction``.  ``values`` has one Fraction per
    original variable when status is optimal, otherwise None.
    """
    # Normalize to equality form with slack/surplus columns and b >= 0.  A
    # row is [numerators, denominator]; cell j stands for nums[j] / den.
    # Row i starts basic on its artificial, marked total + i in the basis,
    # and phase one maximizes minus their sum: its reduced cost row is the
    # sum of the normalized rows, built here over their lcm.
    n_slack = sum(1 for row in rows if row[1] in (LEQ, GEQ))
    total = num_vars + n_slack
    m = len(rows)
    lcd = lcm(*(row[3] for row in rows))
    cost_nums = [0] * (total + 1)
    tableau: list[list] = []
    slack_idx = num_vars
    for coeffs, rel, rhs, den in rows:
        if den < 1:
            raise SimplexError(f"row denominator {den} is not positive")
        sign = -1 if rhs < 0 else 1
        scale = sign * (lcd // den)
        nums = [0] * (total + 1)
        for j, c in coeffs.items():
            if not 0 <= j < num_vars:
                raise SimplexError(f"variable index {j} out of range")
            nums[j] = sign * c
            cost_nums[j] += scale * c
        if rel == LEQ or rel == GEQ:
            nums[slack_idx] = sign * den if rel == LEQ else -sign * den
            cost_nums[slack_idx] = nums[slack_idx] * (lcd // den)
            slack_idx += 1
        elif rel != EQ:
            raise SimplexError(f"unknown relation {rel!r}")
        nums[-1] = sign * rhs
        cost_nums[-1] += scale * rhs
        tableau.append([nums, den])

    basis = list(range(total, total + m))
    cost = [cost_nums, lcd]
    # Phase one prices the real columns alone.  Where none prices positive,
    # the cost row is a Farkas certificate: a nonzero objective there proves
    # the rows infeasible.
    _iterate(tableau, basis, cost)
    if cost[0][-1] != 0:
        return INFEASIBLE, None, None
    for i in range(m):
        if basis[i] >= total:
            nums = tableau[i][0]
            pivot_col = next((j for j in range(total) if nums[j] != 0), None)
            if pivot_col is not None:
                _pivot(tableau, basis, i, pivot_col)

    # Phase two.  A row still basic on an artificial is zero in every real
    # column (redundant), so it goes.
    tableau = [row for row, b in zip(tableau, basis) if b < total]
    basis = [b for b in basis if b < total]
    den = lcm(*(c.denominator for c in objective.values()))
    cost = [[0] * (total + 1), den]
    for j, c in objective.items():
        cost[0][j] = c.numerator * (den // c.denominator)
    _reduce_cost(cost, tableau, basis)
    status = _iterate(tableau, basis, cost)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None

    values = [_ZERO] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            nums, den = tableau[i]
            values[b] = Fraction(nums[-1], den)
    # The maintained z-row holds the negated objective of the current basis.
    return OPTIMAL, values, Fraction(-cost[0][-1], cost[1])


def _eliminate(row, pivot_row, c, support):
    """row -= row[c] * pivot_row in place, where pivot_row[c] is 1 and
    support holds (at least) the pivot row's nonzero columns.  When the
    reduced factor of the pivot row's denominator is 1, the row's own list
    is updated over the support alone.  The result is reduced by its gcd only
    when its denominator is longer than ``_REDUCE_BITS``."""
    nums, den = row
    pivot_nums, p = pivot_row
    f = nums[c]
    g = gcd(f, p)
    f, p = f // g, p // g
    if p != 1:
        nums = [a * p for a in nums]
        den *= p
    for j in support:
        nums[j] -= f * pivot_nums[j]
    if den.bit_length() > _REDUCE_BITS:
        nums, den = _reduced(nums, den)
    row[:] = nums, den


def _reduced(nums, den):
    g = gcd(den, *nums)
    return ([v // g for v in nums], den // g) if g > 1 else (nums, den)


def _reduce_cost(cost, tableau, basis):
    for i, b in enumerate(basis):
        if cost[0][b] != 0:
            _eliminate(cost, tableau[i], b, range(len(cost[0])))


def _iterate(tableau, basis, cost):
    total = len(cost[0]) - 1
    while True:
        cost_nums = cost[0]
        entering = None
        for j in range(total):
            if cost_nums[j] > 0:
                entering = j
                break
        if entering is None:
            return OPTIMAL
        # Bland's ratio test; row denominators cancel in rhs / a, so compare
        # ratios of numerators by cross-multiplication (every a is positive).
        leaving = None
        for i, (nums, _) in enumerate(tableau):
            a = nums[entering]
            if a > 0:
                r = nums[-1]
                if leaving is None or r * best_a < best_r * a or (
                    r * best_a == best_r * a and basis[i] < basis[leaving]
                ):
                    best_r, best_a, leaving = r, a, i
        if leaving is None:
            return UNBOUNDED
        # cost_nums[entering] is positive, so the cost row always changes.
        support = _pivot(tableau, basis, leaving, entering)
        _eliminate(cost, tableau[leaving], entering, support)


def _pivot(tableau, basis, r, c):
    """Pivot on cell (r, c); returns the pivot row's nonzero columns."""
    row = tableau[r]
    nums = row[0]
    piv = nums[c]
    if piv == 0:
        raise SimplexError("zero pivot")
    # Dividing by the pivot cell cancels the row's denominator.  This row is
    # multiplied into every other row, so it is always reduced.
    if piv < 0:
        nums, piv = [-v for v in nums], -piv
    row[:] = _reduced(nums, piv)
    support = [j for j, v in enumerate(row[0]) if v]
    for i, other in enumerate(tableau):
        if i != r and other[0][c] != 0:
            _eliminate(other, row, c, support)
    basis[r] = c
    return support
