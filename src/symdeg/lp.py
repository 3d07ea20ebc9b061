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
B it has only the nonbasic columns: row i is the entries of den * B^-1 A
in the nonbasic columns, then den * B^-1 b, and the cost row is den
times the reduced costs, then -den times the objective, where
den = |det B|.  By Cramer's rule every one of these is an integer (a
minor of the program's matrix, up to sign), so the tableau is Python ints
with no denominator per row and no common factor to divide out.

Only the kernel of the dictionary is stored in full: the rows whose
basic column is a program variable, and the cost row.  A row whose basic
column is slack t stores its right-hand side alone, because the rest of
it follows from its own constraint a_t (sign-adjusted) and the kernel
rows R_b, b running over the basic program columns: solving row t for
the slack and substituting each R_b gives, in the slot of program
column j, den * a_tj - sum_b a_tb * R_b[slot], and in a slack's slot
-sum_b a_tb * R_b[slot] (the revised simplex of Dantzig and Orchard-Hays,
1954, for a basis that is the identity on most rows).  A derived entry
is a product sum of ints, with no division, and equals the stored one of
the full dictionary.  A pivot on the entry p of row r and the entering
column's slot s sets every other entry v of a kernel row or the cost
row, with f the entry of v's row in slot s and w the entry of row r in
v's slot, to (v * |p| - sign(p) * f * w) // den, and the right-hand side
of every slack row by the same formula, with f derived.  These are the
entries of the full dictionary after the pivot, integers by Cramer's
rule, so the division is exact.  Row r becomes sign(p) times itself (in
full, derived first if it was a slack row), the slot s passes to the
leaving column, which holds sign(p) * den in row r and -sign(p) * f in
every other row, and den becomes |p|; row r is kept in full if the
entering column is a program variable, else as its right-hand side.  The
ratio test reads each row's entry in the entering slot, derived for the
slack rows, and compares rhs_r * a_s with rhs_s * a_r, and a reduced
cost has the sign of its integer, since den > 0.  No Fraction is built
inside the loop.  A program is ints (its rows, right-hand sides and
objective; anything else, a bool too, is refused with a ValueError), so
the slack basis starts over den = 1 with every row a slack row;
Fraction appears only in the solution.

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
den * B^-1 a to the kernel rows for every new column a, and its reduced
cost den * c_a + sum_i a_i * (slack i's stored reduced cost), and
re-optimizes from the current basis, which stays feasible.  Column i of
den * B^-1 is slack i's stored column when slack i is nonbasic, and den
times the unit vector of its row, a slack row, when it is basic (whose
reduced cost is 0), so the rest of the tableau stays as it is, and a
slack row derives its entries in the new columns like any others.
`solve` without a `Simplex` is the cold entry to the same code: a fresh
tableau for one program.

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

    Row i's basic column is `basis[i]`; basic columns are not stored, and
    slot k holds the nonbasic column `nonbasic[k]`.  The reduced-cost row
    is `costrow` over `den` = |det B| > 0: Python ints, entry k for slot k,
    then minus the objective.  Row i is stored in full, as `rows[i]` over
    the same `den` with the right-hand side last, only when `basis[i]` is
    a program column: these are the kernel rows R_b, b running over the
    basic program columns.  A row whose basic column is slack t stores its
    right-hand side alone, `[rhs]`, and its entry in slot k is derived
    from the kernel rows and its own constraint a_t (sign-adjusted,
    `lhs[t]`) when needed: den * a_tj - sum_b a_tb * R_b[k] if the slot
    holds program column j, and -sum_b a_tb * R_b[k] if it holds a slack.
    A pivot gives the entering column's slot to the leaving column.
    `pivots` counts the pivots made across all solves.
    """

    def __init__(self) -> None:
        self.rows: list[list[int]] = []  # per row: in full for a kernel row, else [rhs]
        self.costrow: list[int] = []  # numerators of the reduced costs, minus the objective last
        self.den = 1  # the denominator of every entry: |det B|
        self.basis: list[int] = []  # per row: its basic column
        self.nonbasic: list[int] = []  # per slot: its column
        self.free: list[bool] = []  # per column: may it be negative
        self.sign: list[int] = []  # per row: -1 if it is a >= row, negated into a <= row
        self.lhs: list[list[int]] = []  # per row: its program coefficients times its sign
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
        >= 0, over den = 1.  Every row is a slack row."""
        for rel, rhs in zip(lp.rel, lp.rhs):
            if not (rel == "<=" and rhs >= 0 or rel == ">=" and rhs <= 0):
                raise ValueError(f"the origin does not satisfy a row {rel} {rhs}")
        self.sign = [1 if rel == "<=" else -1 for rel in lp.rel]
        self.width = width = len(lp.rhs)
        self.rows = [[abs(rhs)] for rhs in lp.rhs]
        self.lhs = [[] for _ in range(width)]
        self.costrow = [0]
        self.basis = list(range(width))
        self.free = [False] * width

    def _append(self, lp: LinearProgram) -> None:
        """Add the columns of lp's variables not yet in the tableau: to
        `lhs`, to each kernel row as den * B^-1 a, and to the cost row as
        den * c + sum_i a_i * y_i, where y_i is slack i's stored reduced
        cost (minus den times its dual value).  Column i of den * B^-1 is
        slack i's stored column if slack i is nonbasic, and den times the
        unit vector of its row, a slack row, if it is basic, with reduced
        cost 0.  A slack row derives its new entries from `lhs`."""
        new_vars = range(len(self.free) - self.width, lp.num_vars)
        for s, row, a in zip(self.sign, lp.lhs, self.lhs):
            a += row[new_vars.start :] if s > 0 else [-v for v in row[new_vars.start :]]
        columns = [[a[j] for a in self.lhs] for j in new_vars]
        slack_slots = [(k, i) for k, i in enumerate(self.nonbasic) if i < self.width]
        for row, bv in zip(self.rows, self.basis):
            if bv >= self.width:
                inverse = [(i, row[k]) for k, i in slack_slots if row[k]]
                row[-1:-1] = [sum(b * a[i] for i, b in inverse if a[i]) for a in columns]
        costrow = self.costrow
        duals = [(i, costrow[k]) for k, i in slack_slots if costrow[k]]
        costrow[-1:-1] = [
            self.den * c + sum(y * a[i] for i, y in duals if a[i])
            for c, a in zip(lp.objective[new_vars.start :], columns)
        ]
        self.nonbasic += range(len(self.free), len(self.free) + len(columns))
        self.free += lp.free[new_vars.start :]

    def _column(self, s: int) -> list[int]:
        """Every row's entry in slot s: stored in a kernel row, derived in
        a slack row t as den * a_tj - sum_b a_tb * R_b[s] (a_tj = 0 if the
        slot holds a slack), one kernel row b at a time over all slack
        rows."""
        rows, basis, width = self.rows, self.basis, self.width
        j = self.nonbasic[s] - width
        lhs = [self.lhs[bv] for bv in basis if bv < width]
        derived = [self.den * a[j] for a in lhs] if j >= 0 else [0] * len(lhs)
        for row, bv in zip(rows, basis):
            if bv >= width and row[s]:
                b, v = bv - width, row[s]
                derived = [e - a[b] * v for e, a in zip(derived, lhs)]
        slack = iter(derived)
        return [row[s] if bv >= width else next(slack) for row, bv in zip(rows, basis)]

    def _derived_row(self, i: int) -> list[int]:
        """Slack row i in full: each slot's entry derived as in `_column`,
        then its stored right-hand side."""
        width = self.width
        a = self.lhs[self.basis[i]]
        row = [self.den * a[j - width] if j >= width else 0 for j in self.nonbasic]
        for kernel_row, bv in zip(self.rows, self.basis):
            if bv >= width and a[bv - width]:
                c = a[bv - width]
                # zip stops before the kernel row's right-hand side
                row = [v - c * w for v, w in zip(row, kernel_row)]
        return row + self.rows[i]

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
            column = self._column(entering)
            # the smallest ratio rhs / a leaves, ties to the smallest basic
            # column; every entry sits over den, which cancels
            leaving = None
            for r, a in enumerate(column):
                if not increasing:
                    a = -a
                if a > 0 and not free[basis[r]]:
                    b = rows[r][-1]
                    if leaving is None or b * best_a < best_b * a or (
                        b * best_a == best_b * a and basis[r] < basis[leaving]
                    ):
                        leaving, best_b, best_a = r, b, a
            if leaving is None:
                return False
            degenerate = degenerate + 1 if best_b == 0 else 0
            self._pivot(leaving, nonbasic[entering], column)

    def _pivot(self, r: int, col: int, column: list[int]) -> None:
        """Pivot column col into the basis in row r, given every row's
        entry in col's slot (`_column`); the leaving column takes col's
        slot.  The kernel rows and the cost row are updated in full, a
        slack row's right-hand side alone, and row r is stored in full if
        col is a program column, else as its right-hand side."""
        s = self.nonbasic.index(col)
        rows, basis, den, width = self.rows, self.basis, self.den, self.width
        p = column[r]
        q = abs(p)
        # row r over the new den = |p| is sign(p) times itself, and the
        # leaving column's entry in it is sign(p) * den
        pivot_row = rows[r] if basis[r] >= width else self._derived_row(r)
        if p < 0:
            pivot_row = [-v for v in pivot_row]
        pivot_row[s] = den if p > 0 else -den
        w = pivot_row[-1]
        for i, (row, bv) in enumerate(zip(rows, basis)):
            if i == r:
                continue
            if bv >= width:
                rows[i] = _eliminate(row, pivot_row, s, q, den)
            else:
                row[-1] = (row[-1] * q - column[i] * w) // den
        self.costrow = _eliminate(self.costrow, pivot_row, s, q, den)
        self.den = q
        rows[r] = pivot_row if col >= width else [w]
        self.nonbasic[s], basis[r] = basis[r], col
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
