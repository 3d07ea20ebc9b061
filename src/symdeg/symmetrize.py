"""Transforms between the indicator and the frequency representation.

Averaging an indicator polynomial over the functions of one frequency
class yields a symmetric polynomial in the frequency counts of no larger
degree; substituting column sums of indicators back for the counts
inverts the step.  Both directions preserve approximation bounds class by
class, because every class average of a bounded quantity stays within the
same bounds.

The closed form: for a normalized monomial I = y[i1,j1]*...*y[ik,jk]
(rows pairwise distinct), the average of I over the functions with a given
*ordered* frequency vector z is the product over l = 1..k of
(z_{j_l} - s_l) / (N - l + 1), where s_l counts earlier factors with the
same column.  Picking the rows one at a time, N - l + 1 rows are still
unassigned at step l and z_{j_l} - s_l of the remaining slots land in
column j_l.  `monomial_class_expectation` expands this product eagerly in
the named variables; projecting onto the monomial symmetric basis then
gives the average over the whole class (all orderings at once), which is
what `symmetrize_monomial` returns.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Iterator, Sequence

from .budget import check_budget
from .sympoly import (
    FrequencyVector,
    SymPolynomial,
    ZPolynomial,
    distinct_permutations,
    msym_to_zpoly,
    symmetrize_variables,
)
from .ypoly import FunctionTable, Monomial, YPolynomial


def monomial_class_expectation(mono: Monomial, n: int, m: int) -> ZPolynomial:
    """Average of a normalized monomial over the functions with a fixed
    ordered frequency vector, as a polynomial in the named counts z_1..z_m.

    The product of the k linear factors is expanded eagerly; its degree is
    exactly k and its value at any ordered vector of weight n is the exact
    conditional average (see `average_over_counts`).
    """
    if len(mono) > n:
        raise ValueError(f"monomial has {len(mono)} factors but only {n} rows exist")
    result = ZPolynomial.constant(m, 1)
    seen_columns: list[int] = []
    for step, (_, j) in enumerate(mono, start=1):
        repeats = seen_columns.count(j)
        linear = ZPolynomial.variable(m, j) - ZPolynomial.constant(m, repeats)
        result = (result * linear).scale(Fraction(1, n - step + 1))
        seen_columns.append(j)
    return result


def symmetrize_monomial(mono: Monomial, n: int, m: int) -> SymPolynomial:
    """Average of a normalized monomial over a whole frequency class, in the
    monomial symmetric basis; degree exactly len(mono)."""
    return symmetrize_variables(monomial_class_expectation(mono, n, m))


def symmetrize(p: YPolynomial) -> SymPolynomial:
    """Class average of an indicator polynomial as a symmetric polynomial.

    For every frequency class z, the result evaluates to the exact average
    of p over all functions in the class; the degree never grows (it may
    shrink through cancellation).
    """
    terms = (
        (lam, coeff * c)
        for mono, coeff in p.terms.items()
        for lam, c in symmetrize_monomial(mono, p.n, p.m).terms.items()
    )
    return SymPolynomial(p.m, terms)


def desymmetrize(q: SymPolynomial, n: int) -> YPolynomial:
    """Indicator polynomial that agrees with q on every function: substitute
    each count z_j by its column sum y[1,j] + ... + y[n,j] and normalize."""
    if n < 1:
        raise ValueError("desymmetrize needs n >= 1 rows")
    m = q.m
    column_sums = {
        j: YPolynomial(n, m, [(((i, j),), 1) for i in range(1, n + 1)])
        for j in range(1, m + 1)
    }
    terms: list = []
    for lam, coeff in q.terms.items():
        for zmono, zcoeff in msym_to_zpoly(lam, m).terms.items():
            term = YPolynomial.constant(n, m, coeff * zcoeff)
            for var, exp in zmono:
                for _ in range(exp):
                    term = term * column_sums[var]
            terms.extend(term.terms.items())
    return YPolynomial(n, m, terms)


def class_size(z: FrequencyVector) -> int:
    """Number of functions in the class: the count of ordered arrangements of
    the multiset times the ways to distribute inputs for one arrangement."""
    arrangements = factorial(z.m)
    for _, reps in _value_multiplicities(z.counts()):
        arrangements //= factorial(reps)
    inputs = factorial(z.weight)
    for part in z.parts:
        inputs //= factorial(part)
    return arrangements * inputs


def _value_multiplicities(counts: Sequence[int]) -> list[tuple[int, int]]:
    seen: dict[int, int] = {}
    for c in counts:
        seen[c] = seen.get(c, 0) + 1
    return sorted(seen.items())


def functions_with_counts(counts: Sequence[int]) -> Iterator[FunctionTable]:
    """All functions with the exact ordered frequency vector `counts`
    (counts[j-1] inputs mapping to output j), in a fixed deterministic order."""
    counts = tuple(int(c) for c in counts)
    n, m = sum(counts), len(counts)
    if n < 1:
        raise ValueError("need at least one input")
    values = [0] * n

    def assign(j: int, remaining: tuple[int, ...]) -> Iterator[FunctionTable]:
        if j > m:
            yield FunctionTable(n, m, tuple(values))
            return
        for chosen in combinations(remaining, counts[j - 1]):
            for i in chosen:
                values[i - 1] = j
            taken = set(chosen)
            yield from assign(j + 1, tuple(i for i in remaining if i not in taken))

    yield from assign(1, tuple(range(1, n + 1)))


def functions_in_class(z: FrequencyVector) -> Iterator[FunctionTable]:
    """All functions in the frequency class z, every output arrangement of the
    multiset included.  Checks the exact class size against the budget first."""
    check_budget(class_size(z))
    for arrangement in distinct_permutations(z.counts()):
        yield from functions_with_counts(arrangement)


def average_over_counts(p: YPolynomial, counts: Sequence[int]) -> Fraction:
    """Exact average of p over the functions with one ordered frequency
    vector; equals `monomial_class_expectation` evaluated at that vector."""
    counts = tuple(int(c) for c in counts)
    if len(counts) != p.m or sum(counts) != p.n:
        raise ValueError(
            f"counts {counts} do not describe functions on the {p.n}x{p.m} grid"
        )
    size = factorial(p.n)
    for c in counts:
        size //= factorial(c)
    check_budget(size)
    total = Fraction(0)
    seen = 0
    for f in functions_with_counts(counts):
        total += p.evaluate(f)
        seen += 1
    assert seen == size
    return total / size


def average_oracle(p: YPolynomial, z: FrequencyVector) -> Fraction:
    """Exact average of p over every function in the frequency class z, by
    explicit enumeration.  This is the ground truth that `symmetrize` must
    reproduce; it is exact, and guarded by the enumeration budget."""
    if z.m != p.m or z.weight != p.n:
        raise ValueError(
            f"class over weight {z.weight}, {z.m} outputs does not match the "
            f"{p.n}x{p.m} grid"
        )
    size = class_size(z)
    total = Fraction(0)
    seen = 0
    for f in functions_in_class(z):
        total += p.evaluate(f)
        seen += 1
    assert seen == size
    return total / size
