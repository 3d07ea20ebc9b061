"""Exact linear programming: integer programs, rational optima.

A one-phase simplex for programs whose origin is feasible: every row is
`<=` with a right-hand side >= 0, or `>=` with a right-hand side <= 0.
Each `>=` row is negated into a `<=` row and every row gets a slack
column, so the slack basis is a feasible start at the origin, and no
artificial column or phase 1 is needed.  A program whose origin violates
a row is refused with a ValueError before anything is pivoted.  A caller
that knows another feasible point x0 poses its program in x - x0, as
`degreelp` does.

The tableau is a dictionary over one denominator (Edmonds 1967, Bareiss
1968; the integer pivoting of Avis's lrs, 2000).  For the current basis
B it stores only the nonbasic columns: row i holds the entries of
den * B^-1 A in the nonbasic columns, then den * B^-1 b, and the cost row
holds den times the reduced costs, then -den times the objective, where
den = |det B|.  By Cramer's rule every one of these is an integer (a
minor of the program's matrix, up to sign), so the tableau is Python ints
with no denominator per row and no common factor to divide out.  A
pivot on the entry p of row r and the entering column's slot s sets
every other entry v of the tableau, with f the entry of v's row in slot
s and w the entry of row r in v's slot, to
(v * |p| - sign(p) * f * w) // den, and the division is exact.  Row r
becomes sign(p) times itself, the slot s passes to the leaving column,
which holds sign(p) * den in row r and -sign(p) * f in every other row,
and den becomes |p|.  No Fraction is built inside the
loop.  The ratio test compares rhs_r * a_s with rhs_s * a_r, and a
reduced cost has the sign of its integer, since den > 0.  A program is
ints (its rows, right-hand sides and objective; anything else, a bool
too, is refused with a ValueError), so the slack basis starts over
den = 1; Fraction appears only in the solution.

The entering column has the reduced cost largest in size among the
eligible ones (Dantzig's rule), the smallest column index breaking ties
(the column's index in the program, not its slot).  After
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
repeats the previous one's rows and appends columns (as
`LinearProgram.add_column` grows one program in place), it appends
den * B^-1 a for every new column a, and its reduced cost
den * c_a + sum_i a_i * (slack i's stored reduced cost), and re-optimizes
from the current basis, which stays feasible.  Column i of den * B^-1 is
slack i's stored column when slack i is nonbasic, and den times the unit
vector of its row when it is basic (whose reduced cost is 0), so the
rest of the tableau stays as it is.  `solve` without a `Simplex` is the
cold entry to the same code: a fresh tableau for one program.

Every program variable has one column, numbered after the slack columns.
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
from typing import Optional, Sequence

Relation = str  # "<=", ">="

_RELATIONS = ("<=", ">=")

K_DEGENERATE = 50  # degenerate pivots in a row before Bland's rule takes over


@dataclass
class LinearProgram:
    """minimize objective . x  subject to the rows; x_j >= 0 unless free[j].
    Every cost, coefficient and right-hand side is an int; rows enter
    only through `add_row`, and a variable enters after the rows only
    through `add_column`."""

    num_vars: int
    objective: list[int]
    free: list[bool]
    lhs: list[list[int]] = field(default_factory=list, init=False)
    rel: list[Relation] = field(default_factory=list, init=False)
    rhs: list[int] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self.objective = list(self.objective)
        self.free = list(self.free)
        if not {*map(type, self.objective)} <= {int}:
            raise ValueError(f"the objective must be ints, got {self.objective!r}")
        if len(self.objective) != self.num_vars or len(self.free) != self.num_vars:
            raise ValueError("objective/free length must equal num_vars")

    def add_row(self, coeffs: Sequence[int], rel: Relation, rhs: int) -> None:
        row = list(coeffs)
        if len(row) != self.num_vars:
            raise ValueError(f"row has {len(row)} coefficients, expected {self.num_vars}")
        if rel not in _RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        if type(rhs) is not int or not {*map(type, row)} <= {int}:
            raise ValueError(f"a row must be ints, got {row!r} {rel} {rhs!r}")
        self.lhs.append(row)
        self.rel.append(rel)
        self.rhs.append(rhs)

    def add_column(self, cost: int, free: bool, column: Sequence[int]) -> None:
        """Append a variable with this cost and one entry per row."""
        column = list(column)
        if len(column) != len(self.lhs):
            raise ValueError(f"column has {len(column)} entries, expected {len(self.lhs)}")
        if type(cost) is not int or not {*map(type, column)} <= {int}:
            raise ValueError(f"a column must be ints, got cost {cost!r} and {column!r}")
        for row, a in zip(self.lhs, column):
            row.append(a)
        self.objective.append(cost)
        self.free.append(free)
        self.num_vars += 1


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "unbounded"
    value: Optional[Fraction]
    x: Optional[list[Fraction]]


def _prefix(lp: LinearProgram, k: int) -> tuple:
    """Everything of the program that concerns its first k variables."""
    return (list(lp.rel), list(lp.rhs), lp.objective[:k], lp.free[:k], [row[:k] for row in lp.lhs])


class Simplex:
    """The tableau kept between the solves of a sequence of programs, each
    one the previous program with variables appended (same rows, same
    first variables).

    The first solve builds the tableau on the slack basis; each later one
    extends it by the new columns and re-optimizes from the optimal basis
    it had.  Columns are numbered in the order they were added: one slack
    column per row, then one per program variable.

    Row i of the tableau is `rows[i]` over `den`, and the reduced-cost row
    is `costrow` over the same `den` = |det B| > 0: Python ints, entry k
    for the column `nonbasic[k]`, which sits in slot k, and the right-hand
    side (in the cost row, minus the objective) last.  Row i's basic
    column is `basis[i]`; basic columns are not stored.  A pivot gives the
    entering column's slot to the leaving column.  `pivots` counts the
    pivots made across all solves.
    """

    def __init__(self) -> None:
        self.rows: list[list[int]] = []  # numerators of the tableau rows, right-hand side last
        self.costrow: list[int] = []  # numerators of the reduced costs, minus the objective last
        self.den = 1  # the denominator of every entry: |det B|
        self.basis: list[int] = []  # per row: its basic column
        self.nonbasic: list[int] = []  # per slot: its column
        self.free: list[bool] = []  # per column: may it be negative
        self.sign: list[int] = []  # per row: -1 if it is a >= row, negated into a <= row
        self.width = 0  # slack columns, one per row; the variables' columns follow
        self.program: Optional[tuple] = None
        self.pivots = 0

    def _solve(self, lp: LinearProgram) -> LPSolution:
        if self.program is None:
            self._start(lp)
        elif _prefix(lp, len(self.free) - self.width) != self.program:
            raise ValueError("a warm solve needs the previous program with columns appended")
        self._append(lp)
        self.program = _prefix(lp, lp.num_vars)
        if not self._run():
            return LPSolution("unbounded", None, None)
        width = self.width
        values = [Fraction(0)] * (len(self.free) - width)
        for row, bv in zip(self.rows, self.basis):
            if bv >= width:
                values[bv - width] = Fraction(row[-1], self.den)
        return LPSolution("optimal", Fraction(-self.costrow[-1], self.den), values)

    def _start(self, lp: LinearProgram) -> None:
        """The tableau of the slack basis, with no nonbasic column yet:
        every >= row negated into a <= row, whose right-hand side is then
        >= 0, over den = 1."""
        for rel, rhs in zip(lp.rel, lp.rhs):
            if not (rel == "<=" and rhs >= 0 or rel == ">=" and rhs <= 0):
                raise ValueError(f"the origin does not satisfy a row {rel} {rhs}")
        self.sign = [1 if rel == "<=" else -1 for rel in lp.rel]
        self.width = width = len(lp.rhs)
        self.rows = [[abs(rhs)] for rhs in lp.rhs]
        self.costrow = [0]
        self.basis = list(range(width))
        self.free = [False] * width

    def _append(self, lp: LinearProgram) -> None:
        """Add the columns of lp's variables not yet in the tableau as
        den * B^-1 a, and their reduced costs den * c + sum_i a_i * y_i,
        where y_i is slack i's stored reduced cost (minus den times its
        dual value).  Column i of den * B^-1 is slack i's stored column if
        slack i is nonbasic, and den times the unit vector of its row if
        it is basic, with reduced cost 0."""
        new_vars = range(len(self.free) - self.width, lp.num_vars)
        columns = [[s * row[j] for s, row in zip(self.sign, lp.lhs)] for j in new_vars]
        slack_slots = [(k, i) for k, i in enumerate(self.nonbasic) if i < self.width]
        for row, bv in zip(self.rows, self.basis):
            inverse = [(i, row[k]) for k, i in slack_slots if row[k]]
            if bv < self.width:
                inverse.append((bv, self.den))
            row[-1:-1] = [sum(b * a[i] for i, b in inverse if a[i]) for a in columns]
        costrow = self.costrow
        duals = [(i, costrow[k]) for k, i in slack_slots if costrow[k]]
        costrow[-1:-1] = [
            self.den * c + sum(y * a[i] for i, y in duals if a[i])
            for c, a in zip(lp.objective[new_vars.start :], columns)
        ]
        self.nonbasic += range(len(self.free), len(self.free) + len(columns))
        self.free += lp.free[new_vars.start :]

    def _run(self) -> bool:
        """Pivot to an optimum (True), or stop on an unbounded ray (False)."""
        rows, basis, nonbasic, free = self.rows, self.basis, self.nonbasic, self.free
        degenerate = 0  # degenerate pivots in a row
        while True:
            costrow = self.costrow
            # a column is eligible on a negative reduced cost, a free one also
            # on a positive one, and then it enters decreasing
            eligible = [k for k, j in enumerate(nonbasic) if costrow[k] < 0 or free[j] and costrow[k] > 0]
            if not eligible:
                return True
            if degenerate < K_DEGENERATE:
                # Dantzig: the largest reduced cost in size, the smallest column on ties
                entering = min(eligible, key=lambda k: (-abs(costrow[k]), nonbasic[k]))
            else:
                # Bland: the smallest eligible column
                entering = min(eligible, key=nonbasic.__getitem__)
            increasing = costrow[entering] < 0
            # the smallest ratio rhs / a leaves, ties to the smallest basic
            # column; every entry sits over den, which cancels
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
            self._pivot(leaving, nonbasic[entering])

    def _pivot(self, r: int, col: int) -> None:
        """Pivot column col into the basis in row r; the leaving column
        takes col's slot."""
        s = self.nonbasic.index(col)
        rows, den = self.rows, self.den
        p = rows[r][s]
        q = abs(p)
        # row r over the new den = |p| is sign(p) times itself, and the
        # leaving column's entry in it is sign(p) * den
        pivot_row = rows[r] if p > 0 else [-v for v in rows[r]]
        pivot_row[s] = den if p > 0 else -den
        rows[r] = pivot_row
        for i, row in enumerate(rows):
            if i != r:
                rows[i] = _eliminate(row, pivot_row, s, q, den)
        self.costrow = _eliminate(self.costrow, pivot_row, s, q, den)
        self.den = q
        self.nonbasic[s], self.basis[r] = self.basis[r], col
        self.pivots += 1


def _eliminate(row: list[int], pivot_row: list[int], s: int, q: int, den: int) -> list[int]:
    """A row other than the pivot row after the pivot on p, with q = |p|:
    each entry v becomes (v * q - f * w) // den, f being the row's entry in
    slot s and w the pivot row's new entry (sign(p) times its old one).  In
    slot s, v is taken as 0 and w is sign(p) * den, so the leaving column
    gets -sign(p) * f."""
    f = row[s]
    row[s] = 0
    return [(v * q - f * w) // den for v, w in zip(row, pivot_row)]


def solve(lp: LinearProgram, simplex: Optional[Simplex] = None) -> LPSolution:
    """Minimize lp from the slack basis at the origin, which must be
    feasible (a ValueError otherwise); exact, deterministic, cycle-free.
    Given the `Simplex` of an earlier solve, `lp` must be that program with
    variables appended, and the solve starts from its optimal basis."""
    return (Simplex() if simplex is None else simplex)._solve(lp)
