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

The enumeration half (`functions_with_counts`, `functions_in_class`,
`class_size`, `average_over_counts`, `average_oracle`) is the ground truth
the closed form is checked against.  The functions it averages over are
orderings of multisets: `sympoly.distinct_permutations` is its one walk
over them, and `sympoly.multinomial` its one count of them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .budget import check_budget
from .sympoly import (
    FrequencyVector,
    SymPolynomial,
    ZPolynomial,
    check_counts,
    distinct_permutations,
    msym_to_zpoly,
    multinomial,
    symmetrize_variables,
)
from .ypoly import FunctionTable, Monomial, YPolynomial


def monomial_class_expectation(mono: Monomial, n: int, m: int) -> ZPolynomial:
    """Average of a normalized monomial over the functions with a fixed
    ordered frequency vector, as a polynomial in the named counts z_1..z_m.

    The product of the k linear factors is expanded eagerly; its degree is
    exactly k and its value at any ordered vector of weight n is the exact
    conditional average (see `average_over_counts`).  The closed form holds
    only for pairwise distinct rows in 1..n, so any other monomial is refused.
    """
    rows = [i for i, _ in mono]
    if len(set(rows)) != len(rows) or not all(1 <= i <= n for i in rows):
        raise ValueError(
            f"monomial {mono} is not normalized: its rows must be distinct and lie in 1..{n}"
        )
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
    return multinomial(Counter(z.counts()).values()) * multinomial(z.parts)


def functions_with_counts(counts: Sequence[int]) -> Iterator[FunctionTable]:
    """All functions with the exact ordered frequency vector `counts`
    (counts[j-1] inputs mapping to output j): one per distinct ordering of
    the value multiset, in lexicographic order of the value tuples.  No
    caller depends on that order, since every average over these functions
    is an exact sum."""
    counts = check_counts(counts)
    n, m = sum(counts), len(counts)
    if n < 1:
        raise ValueError("need at least one input")
    values = [j for j, c in enumerate(counts, start=1) for _ in range(c)]
    for v in distinct_permutations(values):
        yield FunctionTable(n, m, v)


def functions_in_class(z: FrequencyVector) -> Iterator[FunctionTable]:
    """All functions in the frequency class z, every output arrangement of the
    multiset included.  Checks the exact class size against the budget first."""
    check_budget(class_size(z))
    for arrangement in distinct_permutations(z.counts()):
        yield from functions_with_counts(arrangement)


def average_over_counts(p: YPolynomial, counts: Sequence[int]) -> Fraction:
    """Exact average of p over the functions with one ordered frequency
    vector; equals `monomial_class_expectation` evaluated at that vector."""
    counts = check_counts(counts)
    if len(counts) != p.m or sum(counts) != p.n:
        raise ValueError(
            f"counts {counts} do not describe functions on the {p.n}x{p.m} grid"
        )
    size = multinomial(counts)
    check_budget(size)
    return _exact_mean(p, functions_with_counts(counts), size)


def average_oracle(p: YPolynomial, z: FrequencyVector) -> Fraction:
    """Exact average of p over every function in the frequency class z, by
    explicit enumeration.  This is the ground truth that `symmetrize` must
    reproduce; it is exact, and guarded by the enumeration budget."""
    if z.m != p.m or z.weight != p.n:
        raise ValueError(
            f"class over weight {z.weight}, {z.m} outputs does not match the "
            f"{p.n}x{p.m} grid"
        )
    return _exact_mean(p, functions_in_class(z), class_size(z))


def _exact_mean(p: YPolynomial, functions: Iterable[FunctionTable], size: int) -> Fraction:
    """Mean of p over `functions`, which must be exactly `size` functions;
    they are counted as they come, so a wrong `size` cannot pass unnoticed."""
    total = Fraction(0)
    seen = 0
    for f in functions:
        total += p.evaluate(f)
        seen += 1
    assert seen == size
    return total / size
