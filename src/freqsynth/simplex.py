"""Two-phase simplex over exact rationals with Bland's anti-cycling rule.

Problem form: maximize a linear objective with int weights subject to rows
``coeffs rel rhs``, rel ``==`` or ``>=`` with ``rhs >= 0``, the rows that
``mecanalysis.build_lp`` emits, and all variables non-negative.  One row
format runs from ``build_lp`` through the tableau to ``_verify_solution``:
int numerators over one positive int denominator, exact without a Fraction
per cell and pivot.  Every row starts basic on its own artificial, a basis
marker with no column: an artificial that leaves never re-enters, and phase
one ends at the first basis where no real column prices positive.  Phase two
runs on the rows that are left.  The pivot row is divided by its gcd on
every pivot; any other row, and the cost row, only once its denominator
outgrows ``_REDUCE_BITS``.  Every decision reads signs, zero tests and ratios
within one row, none of which a positive common factor changes, so the
pivots are those of a fully reduced tableau.  The values come back as int
numerators over one common denominator.

A caller may pass a start basis, as ``build_lp`` does with the stationary
flow of a unichain policy, a vertex of the flow polytope.  The start is a
block of ``==`` rows crashed once, on its own rows (``Crash``), and copied
into every LP that repeats the block (``BlockStart``), as the flow LPs of one
end component do against several conditions; the LP's other rows are
reduced against the crashed rows.  A start must be feasible: one that leaves
a negative basic value raises.  Phase one is built from the rows still
basic on their artificials, and both phases run from there.  Infeasible and
unbounded do not depend on the path, but a tied optimum does, so an
objective's optimum is kept only when every nonbasic column prices strictly
negative, which makes it the plain solve's unique vertex, with its ``den``;
else the LP is solved again from the artificial basis.  With no objective
the start picks the vertex; it never changes the status or an objective's
optimum.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Mapping, Optional, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

GEQ = ">="
EQ = "=="

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


class Crash:
    """The start crash of a block of ``==`` rows over ``width`` columns, kept
    for every LP that repeats the block (``BlockStart``).

    ``pivots`` are (row, column) pivots within the block, made once here on
    the block's rows alone; a pivot out of range or on a zero cell raises
    ``SimplexError``.  The crashed rows are kept in lowest terms with their
    basic columns; a row that no pivot takes stays on its artificial (column
    None).  An LP that copies them reduces each of its other rows r to r -
    sum r[c_k] * R_k over the crashed rows R_k and their columns c_k, with
    r's own entries: every R_k is 1 on c_k and 0 on the block's other basic
    columns, so that is the row the pivots leave, whatever their order.  The
    caller keeps a crash only for LPs whose block rows are equal.
    """

    __slots__ = ("width", "rows")

    def __init__(self, rows: Sequence[tuple], pivots: Sequence[tuple[int, int]], width: int):
        for _, rel, _, _ in rows:
            if rel != EQ:
                raise SimplexError(f"block row relation {rel!r} is not ==")
        tableau = [[_row(row, width, width), row[3]] for row in rows]
        basis = [None] * len(tableau)
        for r, c in pivots:
            if not (0 <= r < len(tableau) and 0 <= c < width):
                raise SimplexError(f"start pivot {(r, c)} out of range")
            _pivot(tableau, basis, r, c)
        self.width = width
        self.rows = []  # per block row: its basic column, numerators on the block's columns, rhs, den
        for (nums, den), b in zip(tableau, basis):
            nums, den = _reduced(nums, den)
            self.rows.append((b, nums[:-1], nums[-1], den))


class BlockStart:
    """A start basis that copies one ``Crash``'s kept rows in at each of
    ``offsets``, the block's (first row, first column) in the LP."""

    __slots__ = ("crash", "offsets")

    def __init__(self, crash: Crash, offsets: tuple):
        self.crash = crash
        self.offsets = offsets


def solve_lp(
    num_vars: int,
    rows: Sequence[tuple[Mapping[int, int], str, int, int]],
    objective: Mapping[int, int],
    start: Optional[BlockStart] = None,
):
    """Maximize the objective; returns (status, values, den).

    A row ``(nums, rel, rhs, den)`` reads ``sum(nums[j] * x[j]) / den rel
    rhs / den``: int numerators, rel ``==`` or ``>=``, ``rhs >= 0`` and one
    positive int denominator.  Objective weights are ``int``.  When status is
    optimal, ``values`` has one int numerator per original variable over the
    common denominator ``den``, the lcm of the basic values' denominators;
    otherwise both are None.

    ``start`` copies a kept crash into the initial basis; a ``>=`` row
    outside its blocks whose artificial then reads negative moves onto its
    surplus column, and a basic value still negative raises
    ``SimplexError``.  An objective's optimum found from the start that is
    not provably unique is found again from the all-artificial basis.  With
    no objective the start's vertex is kept.
    """
    result = _solve(num_vars, rows, objective, start)
    return _solve(num_vars, rows, objective, None) if result is None else result


def _solve(num_vars, rows, objective, start):
    """``solve_lp``'s body; None when ``start`` leaves an objective's optimum
    that is not provably unique."""
    # Equality form with one surplus column per >= row.  A row is
    # [numerators, denominator]; cell j stands for nums[j] / den.  Row i
    # starts basic on its artificial, marked total + i in the basis.  A
    # start's block rows are its kept crashed rows instead.
    total = num_vars + sum(1 for row in rows if row[1] == GEQ)
    m = len(rows)
    kept = {}  # block row -> (its block's first column, its kept row)
    if start is not None:
        crash = start.crash
        for r0, c0 in start.offsets:
            if not (0 <= r0 <= m - len(crash.rows) and 0 <= c0 <= total - crash.width):
                raise SimplexError(f"block at {(r0, c0)} out of range")
            kept.update((r0 + i, (c0, row)) for i, row in enumerate(crash.rows))
    tableau: list[list] = []
    basis = []
    surplus = []  # (row, its surplus column) per >= row
    slack_idx = num_vars
    for i, row in enumerate(rows):
        if i in kept:
            c0, (b, local, rhs, den) = kept[i]
            nums = [0] * (total + 1)
            nums[c0 : c0 + len(local)] = local
            nums[-1] = rhs
            tableau.append([nums, den])
            basis.append(total + i if b is None else c0 + b)
            continue
        nums = _row(row, num_vars, total)
        if row[1] == GEQ:
            surplus.append((i, slack_idx))
            nums[slack_idx] = -row[3]
            slack_idx += 1
        tableau.append([nums, row[3]])
        basis.append(total + i)
    cost = [[0] * (total + 1), 1]
    for j, c in objective.items():
        if type(c) is not int:
            raise SimplexError(f"objective weight {c!r} is not an int")
        if not 0 <= j < num_vars:
            raise SimplexError(f"variable index {j} out of range")
        cost[0][j] = c

    # The start.  Every row outside the blocks is reduced against the kept
    # rows on real columns, the only rows on one yet.  A >= row whose
    # artificial then reads negative moves onto its surplus column.
    if start is not None:
        for i, row in enumerate(tableau):
            if i not in kept:
                _reduce(row, tableau, basis)
        for r, c in surplus:
            if basis[r] >= total and tableau[r][0][-1] < 0:
                _pivot(tableau, basis, r, c)
        if any(nums[-1] < 0 for nums, _ in tableau):
            raise SimplexError("start basis is not feasible")
    # Phase one maximizes minus the sum of the artificials still basic, so
    # its reduced cost row is the sum of their rows, over their lcm.  It
    # prices the real columns alone.  Where none prices positive, the
    # phase-one objective is at its optimum, and a nonzero value there
    # proves the rows infeasible.  The multipliers that would certify it are
    # not kept: the cost row does not hold a Farkas y.
    on_artificials = [row for row, b in zip(tableau, basis) if b >= total]
    lcd = lcm(*(den for _, den in on_artificials))
    scaled = (nums if den == lcd else [v * (lcd // den) for v in nums] for nums, den in on_artificials)
    phase_one = [list(map(sum, zip([0] * (total + 1), *scaled))), lcd]
    _iterate(tableau, basis, phase_one)
    if phase_one[0][-1] != 0:
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
    _reduce(cost, tableau, basis)
    if _iterate(tableau, basis, cost) == UNBOUNDED:
        return UNBOUNDED, None, None
    # With an objective, every nonbasic column pricing strictly negative makes
    # the optimum unique, so its vertex and den are the plain solve's.
    if start is not None and objective:
        if any(cost[0][j] >= 0 for j in set(range(total)).difference(basis)):
            return None

    basic = []
    for (nums, den), b in zip(tableau, basis):
        if b < num_vars:
            g = gcd(nums[-1], den)
            basic.append((b, nums[-1] // g, den // g))
    den = lcm(*(d for _, _, d in basic))
    values = [0] * num_vars
    for b, v, d in basic:
        values[b] = v * (den // d)
    return OPTIMAL, values, den


def _row(row, num_vars, total):
    """Check one ``(nums, rel, rhs, den)`` row and return its numerators over
    ``total`` columns, the first ``num_vars`` of them its variables, then its
    rhs."""
    coeffs, rel, rhs, den = row
    if den < 1:
        raise SimplexError(f"row denominator {den} is not positive")
    if rel != EQ and rel != GEQ:
        raise SimplexError(f"relation {rel!r} is not == or >=")
    if rhs < 0:
        raise SimplexError(f"right-hand side {rhs} is negative")
    nums = [0] * (total + 1)
    for j, c in coeffs.items():
        if not 0 <= j < num_vars:
            raise SimplexError(f"variable index {j} out of range")
        nums[j] = c
    nums[-1] = rhs
    return nums


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


def _reduce(row, tableau, basis):
    """Eliminate ``row`` on the basic column of every row of ``tableau`` not
    on its artificial."""
    total = len(row[0]) - 1
    for i, b in enumerate(basis):
        if b < total and row[0][b] != 0:
            _eliminate(row, tableau[i], b, range(total + 1))


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
