"""Brute-force ground truth for approximation claims at small scale.

`verify_approximation` checks the defining inequalities directly: for a
symmetric polynomial it walks every frequency class, for an indicator
polynomial every individual function table.  Indicator assignments that
correspond to no function are never visited; the bounds simply do not
apply there.  Both routes read the polynomial's `numerators`: its values
as integer numerators over one denominator, for a symmetric polynomial
at every class from one `msym_columns` generator
(`SymPolynomial.numerators`), for an indicator polynomial at all m^n
functions from one walk over the rows (`YPolynomial.numerators`).  One
walk over the prefixes' column counts (`class_indices`) gives each
function's class as a small int, so no function is classified, sorted or
turned into a `Fraction` on its own: each distinct (class, value) pair
is judged once.  The points are walked again, in order, only to gather
the violations when some pair fails, and once more to build the
report's table of one row per point, the first time that is read: a
caller that reads only `passed` (as `transfer_approximation` does) pays
for neither.  Everything is exact rational arithmetic; a report either
passes or carries the concrete violating classes/functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Sequence, Union

from .budget import check_grid_budget
from .properties import Label, PropertySpec, bounds_for, check_instance, enumerate_classes
from .sympoly import FrequencyVector, Partition, SymPolynomial
from .ypoly import FunctionTable, YPolynomial


def enumerate_functions(n: int, m: int) -> Iterator[FunctionTable]:
    """All m**n function tables in lexicographic order, after checking the
    exact count against the enumeration budget."""
    if n < 1 or m < 1:
        raise ValueError("function enumeration needs n >= 1 and m >= 1")
    check_grid_budget(n, m)
    yield from FunctionTable.all(n, m)


def class_indices(n: int, m: int, classes: Sequence[Partition]) -> list[int]:
    """For each function [n] -> [m], in lexicographic order, the position
    in `classes` of its frequency class (its sorted nonzero counts).

    An odometer walks the prefixes f(1..n-1) in order, keeping their column
    counts.  The m functions that extend a prefix take their positions from
    one table entry per distinct counts vector, and within an entry a
    column's class depends only on that column's count.  No budget is
    checked here; the caller bounds m**n.
    """
    position = {parts: k for k, parts in enumerate(classes)}
    leaves: dict[tuple[int, ...], list[int]] = {}
    ids: list[int] = []
    counts = [0] * m
    prefix = [0] * (n - 1)  # f(1..n-1) - 1
    counts[0] = n - 1
    while True:
        key = tuple(counts)
        entry = leaves.get(key)
        if entry is None:
            parts = sorted(filter(None, counts))
            grown = {}
            for c in set(counts):
                bigger = parts.copy()
                if c:
                    bigger.remove(c)
                bigger.append(c + 1)
                grown[c] = position[tuple(sorted(bigger, reverse=True))]
            entry = leaves[key] = [grown[c] for c in counts]
        ids += entry
        r = n - 2
        while r >= 0 and prefix[r] == m - 1:
            prefix[r] = 0
            counts[m - 1] -= 1
            counts[0] += 1
            r -= 1
        if r < 0:
            return ids
        counts[prefix[r]] -= 1
        prefix[r] += 1
        counts[prefix[r]] += 1


@dataclass(frozen=True)
class Violation:
    kind: str  # "class" | "function"
    where: tuple[int, ...]
    label: Label
    value: Fraction
    lower: Fraction
    upper: Fraction

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "where": list(self.where),
            "label": self.label.value,
            "value": str(self.value),
            "lower": str(self.lower),
            "upper": str(self.upper),
        }


@dataclass(frozen=True, eq=False)
class Report:
    """The outcome of a check: `passed`, the `violations` in point order,
    and `table`, one row per point checked.  The rows may be given as any
    iterable; it is drawn into a tuple the first time `table` is read, so
    a caller that reads only the verdict never builds them."""

    passed: bool
    violations: tuple[Violation, ...]
    _table: Iterable[dict] = field(default=(), repr=False)

    @property
    def table(self) -> tuple[dict, ...]:
        if type(self._table) is not tuple:
            object.__setattr__(self, "_table", tuple(self._table))
        return self._table

    def __eq__(self, other: object) -> bool:
        if type(other) is not Report:
            return NotImplemented
        return (self.passed, self.violations, self.table) == (other.passed, other.violations, other.table)

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "violations": [v.to_dict() for v in self.violations],
            "table": list(self.table),
        }


def verify_approximation(
    poly: Union[SymPolynomial, YPolynomial],
    prop: PropertySpec,
    n: int,
    m: int,
    eps: Fraction | int | str,
) -> Report:
    """Check that `poly` eps-approximates the property over [n] -> [m].

    Symmetric polynomials are checked class by class (cheap), at vectors
    built unchecked from the `enumerate_classes` partitions; indicator
    polynomials function by function, in lexicographic order, after
    checking m**n against the budget, with class indices from
    `class_indices`.  Either way the values come from the polynomial's
    `numerators` and the labels from the class table of
    `enumerate_classes`, and a point's verdict depends only on its
    (class, value) pair, so each distinct pair is judged and formatted
    once.  The violations are gathered in point order only when some pair
    fails, and the rows are built the first time the report's `table` is
    read.  The instance must pass `check_instance`, as for the degree search.
    """
    eps = check_instance(prop, n, m, eps)
    if isinstance(poly, YPolynomial):
        if (poly.n, poly.m) != (n, m):
            raise ValueError(
                f"polynomial over the {poly.n}x{poly.m} grid, expected {n}x{m}"
            )
        check_grid_budget(n, m)
    elif not isinstance(poly, SymPolynomial):
        raise TypeError(f"cannot verify a {type(poly).__name__}")
    elif poly.m != m:
        raise ValueError(f"polynomial over {poly.m} variables, expected {m}")
    classes = enumerate_classes(prop, n, m)
    if isinstance(poly, SymPolynomial):
        kind = "class"
        where = [lam for lam, _ in classes]
        ids = range(len(where))
        den, nums = poly.numerators([FrequencyVector._of_partition(m, lam) for lam in where])
    else:
        kind = "function"
        den, nums = poly.numerators()
        where = None  # the functions in the order of numerators, walked afresh each time
        ids = class_indices(n, m, [lam for lam, _ in classes])
    judged: dict[tuple[int, int], tuple] = {}  # (ok, shown label, value text, violation fields)
    for k, num in set(zip(ids, nums)):
        label = classes[k][1]
        lower, upper = bounds_for(label, eps)
        value = Fraction(num, den)
        judged[k, num] = (lower <= value <= upper, label.value, str(value), (label, value, lower, upper))

    def verdicts() -> Iterator[tuple[tuple[int, ...], tuple]]:
        points = where if where is not None else product(range(1, m + 1), repeat=n)
        return zip(points, map(judged.__getitem__, zip(ids, nums)))

    violations = ()
    if not all(ok for ok, *_ in judged.values()):
        violations = tuple(
            Violation(kind, tuple(point), *found) for point, (ok, _, _, found) in verdicts() if not ok
        )
    rows = (
        {"kind": kind, "where": list(point), "label": shown, "value": text, "ok": ok}
        for point, (ok, shown, text, _) in verdicts()
    )
    return Report(not violations, violations, rows)
