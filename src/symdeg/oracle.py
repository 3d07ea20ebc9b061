"""Brute-force ground truth for approximation claims at small scale.

`verify_approximation` checks the defining inequalities directly: for a
symmetric polynomial it walks every frequency class, for an indicator
polynomial every individual function table.  Indicator assignments that
correspond to no function are never visited; the bounds simply do not
apply there.  The m^n values of an indicator polynomial come from one
walk over the rows (`YPolynomial.evaluate_all`), and each frequency class
is classified once, however many functions it holds.  Everything is exact
rational arithmetic; a report either passes or carries the concrete
violating classes/functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterator, Union

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


def _class_of(values: tuple[int, ...]) -> Partition:
    """The frequency class of the function with these values: its sorted
    nonzero counts."""
    return tuple(sorted(map(values.count, set(values)), reverse=True))


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


@dataclass(frozen=True)
class Report:
    passed: bool
    violations: tuple[Violation, ...]
    table: tuple[dict, ...] = field(default=())

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

    Symmetric polynomials are checked class by class (cheap); indicator
    polynomials function by function, in lexicographic order, after
    checking m**n against the budget: their values come from one walk over
    the rows.  Either way the labels and bounds come from one table of the
    classes (`enumerate_classes`), keyed by their sorted nonzero counts.  A
    point's bounds depend only on its label, so each distinct (label, value)
    pair is judged and formatted once.
    The instance must pass `check_instance`, as for the degree search.
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
    verdicts = {
        parts: (label, *bounds_for(label, eps))
        for parts, label in enumerate_classes(prop, n, m)
    }
    if isinstance(poly, SymPolynomial):
        kind = "class"
        points = (
            (lam, verdict, poly.evaluate(FrequencyVector(m, lam)))
            for lam, verdict in verdicts.items()
        )
    else:
        kind = "function"
        functions = product(range(1, m + 1), repeat=n)  # the order of evaluate_all
        points = (
            (values, verdicts[_class_of(values)], value)
            for values, value in zip(functions, poly.evaluate_all())
        )
    violations: list[Violation] = []
    table: list[dict] = []
    judged: dict[tuple[Label, int, int], tuple[bool, str]] = {}
    for where, (label, lower, upper), value in points:
        key = (label, value.numerator, value.denominator)
        found = judged.get(key)
        if found is None:
            found = judged[key] = (lower <= value <= upper, str(value))
        ok, text = found
        table.append(
            {
                "kind": kind,
                "where": list(where),
                "label": label.value,
                "value": text,
                "ok": ok,
            }
        )
        if not ok:
            violations.append(Violation(kind, where, label, value, lower, upper))
    return Report(not violations, tuple(violations), tuple(table))
