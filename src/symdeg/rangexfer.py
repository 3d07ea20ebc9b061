"""Moving symmetric approximations between range sizes.

In the monomial symmetric basis, changing the number of frequency
variables is a pure reindexing: extending a polynomial to more variables
keeps the exact same coefficient map, and restricting to fewer variables
drops the partitions that no longer fit.  On frequency vectors whose
nonzero counts fit in the smaller range, the extended and the original
polynomial take identical values, which is why an approximation for range
n transfers verbatim to any range m >= n.

`transfer_approximation` is the full pipeline for an indicator
polynomial: average into the frequency representation, extend the range,
substitute column sums back.  The result's degree never exceeds the
input's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .budget import BudgetExceededError
from .oracle import Report, verify_approximation
from .properties import PropertySpec
from .symmetrize import desymmetrize, symmetrize
from .sympoly import SymPolynomial
from .ypoly import YPolynomial


def restrict(q: SymPolynomial, n_target: int) -> SymPolynomial:
    """Set the variables beyond n_target to zero: keep the coefficients of
    the partitions with at most n_target parts, reindexed over n_target
    variables."""
    if n_target <= 0:
        raise ValueError(f"target variable count must be positive, got {n_target}")
    if n_target > q.m:
        raise ValueError(
            f"cannot restrict {q.m} variables to {n_target}; use extend instead"
        )
    return SymPolynomial(
        n_target,
        {lam: c for lam, c in q.terms.items() if len(lam) <= n_target},
    )


def extend(q: SymPolynomial, m_target: int) -> SymPolynomial:
    """Reinterpret q over m_target >= current variables with the identical
    coefficient map.  restrict(extend(q, M), q.m) == q, exactly."""
    if m_target < q.m:
        raise ValueError(
            f"cannot extend {q.m} variables down to {m_target}; use restrict instead"
        )
    return SymPolynomial(m_target, dict(q.terms))


@dataclass(frozen=True)
class TransferResult:
    """Outcome of a range transfer.  `status` is "verified" when the bounds
    were re-checked by enumeration and hold, "failed" when the check ran and
    found violations (the input cannot have been a valid approximation), and
    "unchecked" when the instance exceeded the enumeration budget."""

    poly: YPolynomial
    status: str
    report: Optional[Report]


def transfer_approximation(
    p: YPolynomial,
    prop: PropertySpec,
    m_target: int,
    eps: Fraction | int | str = Fraction(1, 3),
) -> TransferResult:
    """Carry an indicator polynomial approximating the property on [n] -> [n]
    over to the range m_target >= n, preserving degree and error."""
    if p.n != p.m:
        raise ValueError(
            f"transfer starts from a square instance, got the {p.n}x{p.m} grid"
        )
    symmetric = symmetrize(p)
    extended = extend(symmetric, m_target)
    result = desymmetrize(extended, p.n)
    try:
        report = verify_approximation(result, prop, p.n, m_target, eps)
    except BudgetExceededError:
        return TransferResult(result, "unchecked", None)
    return TransferResult(result, "verified" if report.passed else "failed", report)
