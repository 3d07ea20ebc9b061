"""Brute-force ground truth for approximation claims at small scale.

`verify_approximation` checks the defining inequalities directly: for a
symmetric polynomial it walks every frequency class, for an indicator
polynomial every individual function table.  Indicator assignments that
correspond to no function are never visited; the bounds simply do not
apply there.  Everything is exact rational arithmetic; a report either
passes or carries the concrete violating classes/functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Union

from .budget import check_budget
from .properties import Label, PropertySpec, bounds_for, check_instance
from .sympoly import FrequencyVector, SymPolynomial, partitions
from .ypoly import FunctionTable, YPolynomial


def enumerate_functions(n: int, m: int) -> Iterator[FunctionTable]:
    """All m**n function tables in lexicographic order, after checking the
    exact count against the enumeration budget."""
    if n < 1 or m < 1:
        raise ValueError("function enumeration needs n >= 1 and m >= 1")
    check_budget(m**n)
    yield from FunctionTable.all(n, m)


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
    polynomials function by function (budgeted at m**n).  The instance
    must pass `check_instance`, as for the degree search.
    """
    eps = check_instance(prop, n, m, eps)
    if isinstance(poly, SymPolynomial):
        if poly.m != m:
            raise ValueError(f"polynomial over {poly.m} variables, expected {m}")
        kind = "class"
        classes = (FrequencyVector(m, lam) for lam in partitions(n, max_parts=m))
        points = ((z.parts, z, z) for z in classes)
    elif isinstance(poly, YPolynomial):
        if (poly.n, poly.m) != (n, m):
            raise ValueError(
                f"polynomial over the {poly.n}x{poly.m} grid, expected {n}x{m}"
            )
        kind = "function"
        points = (
            (f.values, FrequencyVector.of_function(f), f)
            for f in enumerate_functions(n, m)
        )
    else:
        raise TypeError(f"cannot verify a {type(poly).__name__}")
    violations: list[Violation] = []
    table: list[dict] = []
    for where, z, point in points:
        label = prop.classify(z)
        value = poly.evaluate(point)
        lower, upper = bounds_for(label, eps)
        ok = lower <= value <= upper
        table.append(
            {
                "kind": kind,
                "where": list(where),
                "label": label.value,
                "value": str(value),
                "ok": ok,
            }
        )
        if not ok:
            violations.append(Violation(kind, where, label, value, lower, upper))
    return Report(not violations, tuple(violations), tuple(table))
