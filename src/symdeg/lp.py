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

A program is held by columns, the way the revised simplex of Dantzig
and Orchard-Hays (1954) reads it: `LinearProgram.columns[j]` is
variable j's entry in every row, and `lhs` is a row view made from them
on each read.  A program is ints (its entries, right-hand sides and
objective; anything else, a bool too, is refused with a ValueError), its
free flags are bools and its variable count is an int.  Rows enter a
block at a time through `LinearProgram.add_block`, which takes the block
column by column, checks all of it (one entry per new row in each
column, each relation, and that every entry and right-hand side is an
int) in a few passes in C, and appends all of it or none of it;
`add_row` is its one-row case.  A variable enters after the rows through
`add_column`.

Only the kernel of the dictionary is stored in full: the rows whose
basic column is a program variable, and the cost row.  A row whose basic
column is slack t stores its right-hand side alone, because the rest of
it follows from the program's row t and the kernel rows R_b, b running
over the basic program columns: solving row t for the slack and
substituting each R_b gives, in the slot of program column j,
den * a_tj - sum_b a_tb * R_b[slot], and in a slack's slot
-sum_b a_tb * R_b[slot], where a_tj is entry t of column j with the
sign of row t (a >= row negated).  The `Simplex` holds each program
column signed so, signed once when the column is appended, and reads
the entries a_tb of the slack rows t down each column.  A derived entry
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
inside the loop: the slack basis starts over den = 1 with every row a
slack row, and Fraction appears only in the solution.

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
repeats the previous one and appends columns (as
`LinearProgram.add_column` grows one program in place), it compares it
in place with the copy of the previous program it holds, and grows that
copy and its signed columns by the new columns alone.  It appends
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
from itertools import chain
from operator import mul
from typing import Iterable, Optional, Sequence

Relation = str  # "<=", ">="

_RELATIONS = ("<=", ">=")

K_DEGENERATE = 50  # degenerate pivots in a row before Bland's rule takes over


def _all_of_type(kind: type, values: Iterable) -> bool:
    """Whether every value's type is `kind` itself (a bool is no int): one
    pass in C, counting the types that are `kind`."""
    types = list(map(type, values))
    return types.count(kind) == len(types)


@dataclass
class LinearProgram:
    """minimize objective . x  subject to the rows; x_j >= 0 unless free[j].
    Held by columns: `columns[j]` is variable j's entry in each row, and
    `lhs` is the rows made from them.  Every cost, coefficient and
    right-hand side is an int, every free flag a bool; rows enter only
    through `add_block`, a block given column by column (`add_row` is its
    one-row case), and a variable enters after the rows only through
    `add_column`."""

    num_vars: int
    objective: list[int]
    free: list[bool]
    columns: list[list[int]] = field(init=False)
    rel: list[Relation] = field(default_factory=list, init=False)
    rhs: list[int] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self.objective = list(self.objective)
        self.free = list(self.free)
        if type(self.num_vars) is not int:
            raise ValueError(f"num_vars must be an int, got {self.num_vars!r}")
        if not _all_of_type(int, self.objective):
            raise ValueError(f"the objective must be ints, got {self.objective!r}")
        if not _all_of_type(bool, self.free):
            raise ValueError(f"the free flags must be bools, got {self.free!r}")
        if len(self.objective) != self.num_vars or len(self.free) != self.num_vars:
            raise ValueError("objective/free length must equal num_vars")
        self.columns = [[] for _ in range(self.num_vars)]

    @property
    def lhs(self) -> list[list[int]]:
        """The rows, made from the columns on each read: row i holds each
        variable's entry in row i.  Writing to them changes nothing."""
        if not self.columns:
            return [[] for _ in self.rel]
        return list(map(list, zip(*self.columns)))

    def add_block(
        self, columns: Sequence[Sequence[int]], rels: Iterable[Relation], rhss: Iterable[int]
    ) -> None:
        """Append the rows i with sum_j columns[j][i] * x_j rels[i] rhss[i]:
        columns[j] holds variable j's entry in each new row.  The whole
        block, or nothing if any of it is malformed (a ValueError).  Each
        check is one pass over the block."""
        columns, rels, rhss = list(columns), list(rels), list(rhss)
        if len(columns) != self.num_vars:
            raise ValueError(f"a block has {len(columns)} columns, expected one per variable ({self.num_vars})")
        if {*map(len, columns)} - {len(rels)} or len(rhss) != len(rels):
            raise ValueError("each row of a block needs a relation, a right-hand side and an entry per column")
        if not all(map(_RELATIONS.__contains__, rels)):
            raise ValueError(f"unknown relation {next(r for r in rels if r not in _RELATIONS)!r}")
        if not _all_of_type(int, chain(rhss, *columns)):
            types = {*map(type, chain(rhss, *columns))} - {int}
            names = ", ".join(sorted(t.__name__ for t in types))
            raise ValueError(f"a row must be ints, got entries of type {names}")
        for column, entries in zip(self.columns, columns):
            column += entries
        self.rel += rels
        self.rhs += rhss

    def add_row(self, coeffs: Iterable[int], rel: Relation, rhs: int) -> None:
        """`add_block` of one row."""
        self.add_block([(a,) for a in coeffs], [rel], [rhs])

    def add_column(self, cost: int, free: bool, column: Iterable[int]) -> None:
        """Append a variable with this cost and one entry per row."""
        column = list(column)
        if len(column) != len(self.rel):
            raise ValueError(f"column has {len(column)} entries, expected {len(self.rel)}")
        if type(cost) is not int or not _all_of_type(int, column):
            raise ValueError(f"a column must be ints, got cost {cost!r} and {column!r}")
        if type(free) is not bool:
            raise ValueError(f"a free flag must be a bool, got {free!r}")
        self.columns.append(column)
        self.objective.append(cost)
        self.free.append(free)
        self.num_vars += 1


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "unbounded"
    value: Optional[Fraction]
    x: Optional[list[Fraction]]


class Simplex:
    """The tableau kept between the solves of a sequence of programs, each
    one the previous program with variables appended (same rows, same
    first variables).

    The first solve builds the tableau on the slack basis; each later one
    checks the program against `program`, the copy of the previous one
    (relations, right-hand sides, objective, free flags, columns), and
    extends the copy and the tableau by the new columns alone, then
    re-optimizes from the optimal basis it had.  Columns are numbered in
    the order they were added: one slack column per row, then one per
    program variable.

    Row i's basic column is `basis[i]`; basic columns are not stored, and
    slot k holds the nonbasic column `nonbasic[k]`.  The reduced-cost row
    is `costrow` over `den` = |det B| > 0: Python ints, entry k for slot k,
    then minus the objective.  Row i is stored in full, as `rows[i]` over
    the same `den` with the right-hand side last, only when `basis[i]` is
    a program column: these are the kernel rows R_b, b running over the
    basic program columns.  `columns[j]` is program variable j's column
    with each entry times its row's `sign` (-1 on a >= row), signed once
    when it is appended.  A row whose basic column is slack t stores its
    right-hand side alone, `[rhs]`, and its entry in slot k is derived
    from the kernel rows and entry t of the signed columns when needed:
    den * a_tj - sum_b a_tb * R_b[k] if the slot holds program column j,
    and -sum_b a_tb * R_b[k] if it holds a slack.  A pivot gives the
    entering column's slot to the leaving column.  `pivots` counts the
    pivots made across all solves.
    """

    def __init__(self) -> None:
        self.rows: list[list[int]] = []  # per row: in full for a kernel row, else [rhs]
        self.costrow: list[int] = []  # numerators of the reduced costs, minus the objective last
        self.den = 1  # the denominator of every entry: |det B|
        self.basis: list[int] = []  # per row: its basic column
        self.nonbasic: list[int] = []  # per slot: its column
        self.free: list[bool] = []  # per column: may it be negative
        self.sign: list[int] = []  # per row: -1 if it is a >= row, negated into a <= row
        self.columns: list[list[int]] = []  # per program variable: its column times the row signs
        self.width = 0  # slack columns, one per row; the variables' columns follow
        # (rel, rhs, objective, free, columns) of the program last solved, a copy
        self.program: Optional[tuple[list, list, list, list, list]] = None
        self.pivots = 0

    def _solve(self, lp: LinearProgram) -> LPSolution:
        if self.program is None:
            self._start(lp)
        else:
            rel, rhs, objective, free, columns = self.program
            k = len(columns)
            if (
                lp.rel != rel
                or lp.rhs != rhs
                or lp.objective[:k] != objective
                or lp.free[:k] != free
                or lp.columns[:k] != columns
            ):
                raise ValueError("a warm solve needs the previous program with columns appended")
        self._append(lp)
        if not self._run():
            return LPSolution("unbounded", None, None)
        width = self.width
        values = [Fraction(0)] * len(self.columns)
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
        self.costrow = [0]
        self.basis = list(range(width))
        self.free = [False] * width
        self.program = (list(lp.rel), list(lp.rhs), [], [], [])

    def _append(self, lp: LinearProgram) -> None:
        """Add the columns of lp's variables not yet in the tableau: to the
        held copy of the program, signed to `columns`, to each kernel row as
        den * B^-1 a, and to the cost row as den * c + sum_i a_i * y_i,
        where y_i is slack i's stored reduced cost (minus den times its
        dual value).  Column i of den * B^-1 is slack i's stored column if
        slack i is nonbasic, and den times the unit vector of its row, a
        slack row, if it is basic, with reduced cost 0.  A slack row
        derives its new entries from `columns`."""
        _, _, objective, free, held = self.program
        first = len(held)
        new = lp.columns[first:]
        held += map(list, new)
        objective += lp.objective[first:]
        free += lp.free[first:]
        sign = self.sign
        columns = [list(map(mul, sign, a)) for a in new]
        slack_slots = [(k, i) for k, i in enumerate(self.nonbasic) if i < self.width]
        for row, bv in zip(self.rows, self.basis):
            if bv >= self.width:
                inverse = [(i, row[k]) for k, i in slack_slots if row[k]]
                row[-1:-1] = [sum(b * a[i] for i, b in inverse if a[i]) for a in columns]
        costrow = self.costrow
        duals = [(i, costrow[k]) for k, i in slack_slots if costrow[k]]
        costrow[-1:-1] = [
            self.den * c + sum(y * a[i] for i, y in duals if a[i])
            for c, a in zip(lp.objective[first:], columns)
        ]
        self.nonbasic += range(len(self.free), len(self.free) + len(columns))
        self.free += lp.free[first:]
        self.columns += columns

    def _column(self, s: int) -> list[int]:
        """Every row's entry in slot s: stored in a kernel row, derived in
        a slack row t as den * a_tj - sum_b a_tb * R_b[s] (a_tj = 0 if the
        slot holds a slack), one kernel row b at a time over all slack
        rows."""
        rows, basis, width, columns = self.rows, self.basis, self.width, self.columns
        slack = [bv for bv in basis if bv < width]  # the program row of each slack row
        j = self.nonbasic[s] - width
        den = self.den
        derived = [den * columns[j][t] for t in slack] if j >= 0 else [0] * len(slack)
        for row, bv in zip(rows, basis):
            if bv >= width and row[s]:
                a, v = columns[bv - width], row[s]
                derived = [e - a[t] * v for e, t in zip(derived, slack)]
        entries = iter(derived)
        return [row[s] if bv >= width else next(entries) for row, bv in zip(rows, basis)]

    def _derived_row(self, i: int) -> list[int]:
        """Slack row i in full: each slot's entry derived as in `_column`,
        then its stored right-hand side."""
        width, columns = self.width, self.columns
        t = self.basis[i]
        row = [self.den * columns[j - width][t] if j >= width else 0 for j in self.nonbasic]
        for kernel_row, bv in zip(self.rows, self.basis):
            if bv >= width and columns[bv - width][t]:
                c = columns[bv - width][t]
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
