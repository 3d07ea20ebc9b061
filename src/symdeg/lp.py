"""Exact linear programming over the rationals.

A one-phase simplex for programs whose origin is feasible: every row is
`<=` with a right-hand side >= 0, or `>=` with a right-hand side <= 0.
Each `>=` row is negated into a `<=` row and every row gets a slack
column, so the slack basis is a feasible start at the origin, and no
artificial column or phase 1 is needed.  A program whose origin violates
a row is refused with a ValueError before anything is pivoted.  A caller
that knows another feasible point x0 poses its program in x - x0, as
`degreelp` does.

The tableau holds integers.  Each row, and the reduced-cost row, is a
list of Python ints over one denominator of its own, kept positive and
in lowest terms: the gcd of the denominator and the row's entries is 1.
A pivot on entry p of a row replaces that row by sign(p) * row over |p|.
Every other row with a nonzero f in the pivot column becomes
row * p' - f * pivot_row over den * p', where p' is the new pivot row's
denominator (and its entry in the pivot column).  Each updated row is
then divided once by its gcd.  This is fraction-free elimination
(Edmonds 1967, Bareiss 1968): no Fraction is built inside the loop.  The
ratio test compares rhs_r * a_s with rhs_s * a_r, since a row's
denominator cancels from its own ratio, and a reduced cost has the sign
of its integer.  Fraction appears only where a program's columns enter
the tableau, scaled to ints by the lcm of their denominators, and where
the solution is read out.

The entering column has the reduced cost largest in size among the
eligible ones (Dantzig's rule), the smallest index breaking ties.  After
K_DEGENERATE degenerate pivots in a row (the leaving row's right-hand
side is 0, so the basis changes and the point does not), the smallest
eligible index enters instead (Bland's rule), until the next pivot that
is not degenerate.  The leaving row has the smallest ratio, ties going
to the smallest basic column.  The rule terminates: Bland's rule cannot
cycle from any basis, so every run of degenerate pivots ends, and each
pivot that is not degenerate strictly lowers the objective, so no basis
recurs across them.  Hybrid rules of this kind go back to Terlaky and
Zhang (1993).  The rule is deterministic, so the same sequence of
programs always gives the same optimal basic solution.

A `Simplex` keeps the tableau between solves.  Given a program that
repeats the previous one's rows and appends columns, it reads B^-1 off
the slack columns, appends B^-1 a for every new column a, and
re-optimizes from the current basis, which stays feasible.  `solve`
without a `Simplex` is the cold entry to the same code: a fresh tableau
for one program.

Every program variable has one tableau column, after the slack columns.
A free column is eligible to enter with a reduced cost of either sign (a
positive one enters decreasing), and the ratio test skips the rows of
free basic columns, so a free column never leaves once it is basic and
its value may be negative.  Termination still holds: each pivot on a
free entering column makes one more free column basic for good, and
between two such pivots every entering and leaving column is
sign-constrained, which is the setting of the argument above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Relation = str  # "<=", ">="

_RELATIONS = ("<=", ">=")

K_DEGENERATE = 50  # degenerate pivots in a row before Bland's rule takes over


def _exact(value: Fraction | int) -> Fraction | int:
    """An int as it is (the tableau takes it without a Fraction), anything
    else as a Fraction."""
    return value if type(value) is int else Fraction(value)


@dataclass
class LinearProgram:
    """minimize objective . x  subject to the rows; x_j >= 0 unless free[j]."""

    num_vars: int
    objective: list[Fraction]
    free: list[bool]
    lhs: list[list[Fraction | int]] = field(default_factory=list)
    rel: list[Relation] = field(default_factory=list)
    rhs: list[Fraction | int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.objective = [Fraction(c) for c in self.objective]
        if len(self.objective) != self.num_vars or len(self.free) != self.num_vars:
            raise ValueError("objective/free length must equal num_vars")

    def add_row(self, coeffs: Sequence[Fraction | int], rel: Relation, rhs: Fraction | int) -> None:
        if len(coeffs) != self.num_vars:
            raise ValueError(f"row has {len(coeffs)} coefficients, expected {self.num_vars}")
        if rel not in _RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        self.lhs.append([_exact(c) for c in coeffs])
        self.rel.append(rel)
        self.rhs.append(_exact(rhs))


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "unbounded"
    value: Optional[Fraction]
    x: Optional[list[Fraction]]


def _prefix(lp: LinearProgram, k: int) -> tuple:
    """Everything of the program that concerns its first k variables."""
    return (list(lp.rel), list(lp.rhs), lp.objective[:k], lp.free[:k], [row[:k] for row in lp.lhs])


def _lowest(row: list[int], den: int) -> tuple[list[int], int]:
    """row / den with the gcd of the denominator and the entries divided out."""
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _eliminate(
    row: list[int], den: int, pivot: list[tuple[int, int]], pivot_den: int, col: int
) -> tuple[list[int], int]:
    """row / den minus the multiple of the pivot row that clears column
    col, in lowest terms.  The pivot row is given by its nonzero
    (column, entry) pairs over pivot_den, and its entry in col equals
    pivot_den."""
    f = row[col]
    new = [v * pivot_den for v in row] if pivot_den != 1 else row[:]
    for j, w in pivot:
        new[j] -= f * w
    return _lowest(new, den * pivot_den)


class Simplex:
    """The tableau kept between the solves of a sequence of programs, each
    one the previous program with variables appended (same rows, same
    first variables).

    The first solve builds the tableau on the slack basis; each later one
    extends it by the new columns and re-optimizes from the optimal basis
    it had.  Columns are numbered in the order they were added: one slack
    column per row, then one per program variable.

    Row i of the tableau is `rows[i]` over `dens[i]`, and the reduced-cost
    row is `costrow` over `costden`: Python ints over a denominator > 0,
    with the gcd of the denominator and the entries 1.  A basic column's
    entry in its own row equals that row's denominator.  `pivots` counts
    the pivots made across all solves.
    """

    def __init__(self) -> None:
        self.rows: list[list[int]] = []  # numerators of the tableau rows, right-hand side last
        self.dens: list[int] = []  # per row: its denominator
        self.costrow: list[int] = []  # numerators of the reduced costs, minus the objective last
        self.costden = 1
        self.basis: list[int] = []
        self.cost: list[Fraction] = []  # the objective's cost of every column
        self.free: list[bool] = []
        self.sign: list[int] = []  # per row: -1 if it is a >= row, negated into a <= row
        self.width = 0  # slack columns, one per row; the variables' columns follow
        self.program: Optional[tuple] = None
        self.pivots = 0

    def _solve(self, lp: LinearProgram) -> LPSolution:
        if self.program is None:
            self._start(lp)
        elif _prefix(lp, len(self.cost) - self.width) != self.program:
            raise ValueError("a warm solve needs the previous program with columns appended")
        self._append(lp)
        self.program = _prefix(lp, lp.num_vars)
        self._price_out()
        if not self._run():
            return LPSolution("unbounded", None, None)
        values = [Fraction(0)] * len(self.cost)
        for row, den, bv in zip(self.rows, self.dens, self.basis):
            values[bv] = Fraction(row[-1], den)
        return LPSolution("optimal", Fraction(-self.costrow[-1], self.costden), values[self.width :])

    def _start(self, lp: LinearProgram) -> None:
        """The tableau of the slack columns alone, basis = identity: every
        >= row negated into a <= row, whose right-hand side is then >= 0."""
        for rel, rhs in zip(lp.rel, lp.rhs):
            if not (rel == "<=" and rhs >= 0 or rel == ">=" and rhs <= 0):
                raise ValueError(f"the origin does not satisfy a row {rel} {rhs}")
        self.sign = [1 if rel == "<=" else -1 for rel in lp.rel]
        self.width = width = len(lp.rhs)
        self.dens = [rhs.denominator for rhs in lp.rhs]
        self.rows = [[0] * width + [abs(rhs.numerator)] for rhs in lp.rhs]
        for r, row in enumerate(self.rows):
            row[r] = self.dens[r]
        self.basis = list(range(width))
        self.cost = [Fraction(0)] * width
        self.free = [False] * width

    def _append(self, lp: LinearProgram) -> None:
        """Add the columns of lp's variables not yet in the tableau, as
        B^-1 a; B^-1's column i is the slack column i.  The new columns are
        scaled to ints by the lcm of their denominators, and each row's
        denominator by the same factor."""
        new_vars = range(len(self.cost) - self.width, lp.num_vars)
        columns = [[s * row[j] for s, row in zip(self.sign, lp.lhs)] for j in new_vars]
        scale = lcm(*(a.denominator for column in columns for a in column))
        columns = [[a.numerator * (scale // a.denominator) for a in column] for column in columns]
        for r, row in enumerate(self.rows):
            inverse = [(i, b) for i, b in enumerate(row[: self.width]) if b]
            entries = [sum(b * a[i] for i, b in inverse if a[i]) for a in columns]
            row = [v * scale for v in row]
            row[-1:-1] = entries
            self.rows[r], self.dens[r] = _lowest(row, self.dens[r] * scale)
        self.cost += lp.objective[new_vars.start :]
        self.free += lp.free[new_vars.start :]

    def _price_out(self) -> None:
        """Set the reduced-cost row for the columns' costs and the current
        basis."""
        den = lcm(*(c.denominator for c in self.cost))
        costrow, den = _lowest([c.numerator * (den // c.denominator) for c in self.cost] + [0], den)
        for row, row_den, bv in zip(self.rows, self.dens, self.basis):
            if costrow[bv]:
                nonzero = [(j, w) for j, w in enumerate(row) if w]
                costrow, den = _eliminate(costrow, den, nonzero, row_den, bv)
        self.costrow, self.costden = costrow, den

    def _run(self) -> bool:
        """Pivot to an optimum (True), or stop on an unbounded ray (False)."""
        rows, basis, free = self.rows, self.basis, self.free
        allowed = range(len(self.cost))
        degenerate = 0  # degenerate pivots in a row
        while True:
            costrow = self.costrow
            # a column is eligible on a negative reduced cost, a free one also
            # on a positive one, and then it enters decreasing
            if degenerate < K_DEGENERATE:
                # Dantzig: the largest reduced cost in size, the first on ties
                entering, best = None, 0
                for j in allowed:
                    c = costrow[j]
                    if c < 0:
                        c = -c
                    elif not free[j]:
                        continue
                    if c > best:
                        entering, best = j, c
            else:
                # Bland: the first eligible column
                entering = next(
                    (j for j in allowed if costrow[j] < 0 or (free[j] and costrow[j] > 0)), None
                )
            if entering is None:
                return True
            increasing = costrow[entering] < 0
            # the smallest ratio rhs / a leaves, ties to the smallest basic
            # column; both sit over the row's denominator, which cancels
            leaving = None
            for r, row in enumerate(rows):
                a = row[entering] if increasing else -row[entering]
                if a > 0 and not free[basis[r]]:
                    b = row[-1]
                    if leaving is None or b * best_a < best_b * a or (
                        b * best_a == best_b * a and basis[r] < basis[leaving]
                    ):
                        leaving, best_b, best_a = r, b, a
            if leaving is None:
                return False
            degenerate = degenerate + 1 if best_b == 0 else 0
            self._pivot(leaving, entering)

    def _pivot(self, r: int, col: int) -> None:
        rows, dens = self.rows, self.dens
        pivot_row = rows[r]
        p = pivot_row[col]
        if p < 0:
            pivot_row = [-v for v in pivot_row]
        pivot_row, p = _lowest(pivot_row, abs(p))
        rows[r], dens[r] = pivot_row, p
        nonzero = [(j, w) for j, w in enumerate(pivot_row) if w]
        for i, row in enumerate(rows):
            if row[col] and i != r:
                rows[i], dens[i] = _eliminate(row, dens[i], nonzero, p, col)
        if self.costrow[col]:
            self.costrow, self.costden = _eliminate(self.costrow, self.costden, nonzero, p, col)
        self.basis[r] = col
        self.pivots += 1


def solve(lp: LinearProgram, simplex: Optional[Simplex] = None) -> LPSolution:
    """Minimize lp from the slack basis at the origin, which must be
    feasible (a ValueError otherwise); exact, deterministic, cycle-free.
    Given the `Simplex` of an earlier solve, `lp` must be that program with
    variables appended, and the solve starts from its optimal basis."""
    return (Simplex() if simplex is None else simplex)._solve(lp)
