"""Exact linear programming over the rationals.

A two-phase simplex on Fraction arithmetic.  Pivoting follows Bland's
smallest-index rule for both the entering column and the leaving row,
which rules out cycling, so the solver terminates on every instance and,
because the rule is deterministic, always returns the same optimal basic
solution for the same sequence of programs.

The tableau is a list of Fraction rows, updated in place and sparsely: a
pivot subtracts the pivot row only from the rows with a nonzero in the
pivot column, and only over the pivot row's nonzero columns.  In the
degree searches of element distinctness at n = 8 and 9, 11% and 13% of
a pivot row's entries are nonzero, and the Fraction products of this
update are most of the solver's time.

A `Simplex` keeps the tableau between solves.  Given a program that
repeats the previous one's rows and appends columns, it reads B^-1 off
the columns that formed the starting identity (each row's slack, or its
artificial for a >= or == row), appends B^-1 a for every new column a,
and re-optimizes from the current basis, which stays primal feasible, so
phase 1 does not run again (after an infeasible program, phase 1 resumes
with the new columns).  `solve` without a `Simplex` is the cold entry to
the same code: a fresh tableau for one program.

Every program variable has one tableau column, after the slack and
artificial columns.  A free column is eligible to enter with a reduced
cost of either sign (a positive one enters decreasing), and the ratio test
skips the rows of free basic columns, so a free column never leaves once
it is basic and its value may be negative.  Bland's rule stays finite:
each pivot on a free entering column makes one more free column basic for
good, and between two such pivots every entering and leaving column is
sign-constrained, which is Bland's own setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

Relation = str  # "<=", ">=", "=="

_RELATIONS = ("<=", ">=", "==")
_FLIPPED = {"<=": ">=", ">=": "<=", "==": "=="}


@dataclass
class LinearProgram:
    """minimize objective . x  subject to the rows; x_j >= 0 unless free[j]."""

    num_vars: int
    objective: list[Fraction]
    free: list[bool]
    lhs: list[list[Fraction]] = field(default_factory=list)
    rel: list[Relation] = field(default_factory=list)
    rhs: list[Fraction] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.objective = [Fraction(c) for c in self.objective]
        if len(self.objective) != self.num_vars or len(self.free) != self.num_vars:
            raise ValueError("objective/free length must equal num_vars")

    def add_row(self, coeffs: Sequence[Fraction | int], rel: Relation, rhs: Fraction | int) -> None:
        if len(coeffs) != self.num_vars:
            raise ValueError(f"row has {len(coeffs)} coefficients, expected {self.num_vars}")
        if rel not in _RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        self.lhs.append([Fraction(c) for c in coeffs])
        self.rel.append(rel)
        self.rhs.append(Fraction(rhs))


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction]
    x: Optional[list[Fraction]]


def _prefix(lp: LinearProgram, k: int) -> tuple:
    """Everything of the program that concerns its first k variables."""
    return (list(lp.rel), list(lp.rhs), lp.objective[:k], lp.free[:k], [row[:k] for row in lp.lhs])


class Simplex:
    """The tableau kept between the solves of a sequence of programs, each
    one the previous program with variables appended (same rows, same
    first variables).

    The first solve builds the tableau and runs both phases; each later
    one extends it by the new columns and runs phase 2 from the optimal
    basis it had.  Columns are numbered in the order they were added, which
    is the order Bland's rule scans them in.
    """

    def __init__(self) -> None:
        self.rows: list[list[Fraction]] = []  # tableau rows, right-hand side last
        self.costrow: list[Fraction] = []  # reduced costs, minus the objective last
        self.basis: list[int] = []
        self.cost: list[Fraction] = []  # phase-2 cost of every column
        self.artificial: list[bool] = []
        self.free: list[bool] = []
        self.identity: list[int] = []  # per row: the column that started as its unit vector
        self.sign: list[int] = []  # per row: -1 if it was negated to make its rhs >= 0
        self.width = 0  # slack and artificial columns; the variables' columns follow
        self.phase = 1
        self.status = ""
        self.program: Optional[tuple] = None

    def _solve(self, lp: LinearProgram) -> LPSolution:
        if self.program is None:
            self._start(lp)
        elif _prefix(lp, len(self.cost) - self.width) != self.program:
            raise ValueError("a warm solve needs the previous program with columns appended")
        self._append(lp)
        self.program = _prefix(lp, lp.num_vars)
        self._optimize()
        if self.status != "optimal":
            return LPSolution(self.status, None, None)
        values = [Fraction(0)] * len(self.cost)
        for row, bv in zip(self.rows, self.basis):
            values[bv] = row[-1]
        return LPSolution("optimal", -self.costrow[-1], values[self.width :])

    def _start(self, lp: LinearProgram) -> None:
        """The tableau of the slack and artificial columns alone: every row
        oriented to a non-negative right-hand side, basis = identity."""
        self.sign = [-1 if rhs < 0 else 1 for rhs in lp.rhs]
        rels = [_FLIPPED[rel] if s < 0 else rel for rel, s in zip(lp.rel, self.sign)]
        slack_rows = [r for r, rel in enumerate(rels) if rel != "=="]
        artificial_rows = [r for r, rel in enumerate(rels) if rel != "<="]
        self.width = width = len(slack_rows) + len(artificial_rows)
        self.rows = [[Fraction(0)] * width + [abs(rhs)] for rhs in lp.rhs]
        self.identity = [0] * len(self.rows)
        for j, r in enumerate(slack_rows):
            self.rows[r][j] = Fraction(1 if rels[r] == "<=" else -1)
            self.identity[r] = j
        for j, r in enumerate(artificial_rows, start=len(slack_rows)):
            self.rows[r][j] = Fraction(1)
            self.identity[r] = j
        self.basis = list(self.identity)
        self.cost = [Fraction(0)] * width
        self.artificial = [False] * len(slack_rows) + [True] * len(artificial_rows)
        self.free = [False] * width

    def _append(self, lp: LinearProgram) -> None:
        """Add the columns of lp's variables not yet in the tableau, as
        B^-1 a; B^-1's column i is the tableau column identity[i]."""
        new_vars = range(len(self.cost) - self.width, lp.num_vars)
        columns = [[s * row[j] for s, row in zip(self.sign, lp.lhs)] for j in new_vars]
        for row in self.rows:
            inverse = [(i, row[col]) for i, col in enumerate(self.identity) if row[col]]
            row[-1:-1] = [
                sum((b * a[i] for i, b in inverse if a[i]), Fraction(0)) for a in columns
            ]
        self.cost += lp.objective[new_vars.start :]
        self.free += lp.free[new_vars.start :]
        self.artificial += [False] * len(new_vars)

    def _optimize(self) -> None:
        """Run what is left of phase 1, then phase 2, from the current basis."""
        if self.phase == 1:
            self.costrow = self._price_out([Fraction(int(a)) for a in self.artificial])
            self._run(range(len(self.cost)))  # bounded below by 0
            if self.costrow[-1] != 0:
                self.status = "infeasible"
                return
            self.phase = 2
        self.costrow = self._price_out(self.cost)
        # A basic artificial left at 0 leaves on any nonzero entry of its row
        # (the pivot is degenerate); an all-zero row is redundant and keeps it.
        for r, row in enumerate(self.rows):
            if self.artificial[self.basis[r]]:
                target = next(
                    (j for j, v in enumerate(row[:-1]) if v and not self.artificial[j]), None
                )
                if target is not None:
                    self._pivot(r, target)
        self.status = self._run([j for j, art in enumerate(self.artificial) if not art])

    def _price_out(self, costs: list[Fraction]) -> list[Fraction]:
        """Reduced-cost row for the given per-column costs and current basis."""
        costrow = list(costs) + [Fraction(0)]
        for row, bv in zip(self.rows, self.basis):
            factor = costrow[bv]
            if factor:
                for j, v in enumerate(row):
                    if v:
                        costrow[j] -= factor * v
        return costrow

    def _run(self, allowed: Sequence[int]) -> str:
        costrow, rows, basis, free = self.costrow, self.rows, self.basis, self.free
        while True:
            # Bland: the smallest eligible column enters, a free one also
            # on a positive reduced cost, and then decreasing
            entering = next(
                (j for j in allowed if costrow[j] < 0 or (free[j] and costrow[j] > 0)), None
            )
            if entering is None:
                return "optimal"
            increasing = costrow[entering] < 0
            leaving = None
            best: Optional[Fraction] = None
            for r, row in enumerate(rows):
                a = row[entering] if increasing else -row[entering]
                if a > 0 and not free[basis[r]]:
                    ratio = row[-1] / a
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and basis[r] < basis[leaving])
                    ):
                        best = ratio
                        leaving = r
            if leaving is None:
                return "unbounded"
            self._pivot(leaving, entering)

    def _pivot(self, row: int, col: int) -> None:
        pivot_row = self.rows[row]
        pivot = pivot_row[col]
        nonzero = [(j, v / pivot) for j, v in enumerate(pivot_row) if v]
        for j, v in nonzero:
            pivot_row[j] = v
        for other in (*self.rows, self.costrow):
            factor = other[col]
            if factor and other is not pivot_row:
                for j, v in nonzero:
                    other[j] -= factor * v
        self.basis[row] = col


def solve(lp: LinearProgram, simplex: Optional[Simplex] = None) -> LPSolution:
    """Two-phase simplex; exact, deterministic, cycle-free.  Given the
    `Simplex` of an earlier solve, `lp` must be that program with variables
    appended, and the solve starts from its optimal basis."""
    return (Simplex() if simplex is None else simplex)._solve(lp)
