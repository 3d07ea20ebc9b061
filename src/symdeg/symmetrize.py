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

Both directions work per column pattern: the column multiplicities mu of
a monomial, sorted non-increasing (`column_pattern`).  Permuting rows and
renaming columns maps every monomial of one pattern to every other.

- `symmetrize`: the product above equals prod_a (z_a)_{mu_a} / (N)_k, with
  (x)_e the falling factorial, so once the columns are averaged away it
  depends on mu alone.  The coefficients are summed per pattern, as
  integers over one denominator, and each pattern is averaged once: at
  most p(0) + ... + p(d) patterns at degree d (12 at d = 4), however many
  terms the polynomial has.  (z)_e = sum_t s(e, t) z^t, with s the signed
  Stirling numbers of the first kind (`stirling_row`), and a named
  monomial prod_a z_a^{t_a} averages over the permutations of the m
  variables to m_lambda / orbit(lambda, m), where lambda sorts t and
  orbit(lambda, m) counts the monomials of m_lambda.  So pattern mu with
  summed coefficient c adds c * W / (orbit(lambda, m) * (N)_k) to
  m_lambda, where the integer W is the sum of prod_a s(mu_a, t_a) over
  the t that sort to lambda.  No named-variable polynomial is built;
  `symmetrize_monomial` builds one, and the tests check against it.
- `desymmetrize`: (y[1,j] + ... + y[N,j])^e normalizes to the sum over
  the nonempty row sets R of surj(e, |R|) * prod_{i in R} y[i,j], where
  surj(e, k) = sum_t (-1)^t C(k, t) (k - t)^e counts the onto maps from
  e factors to k rows.  So a monomial with r columns and k_a rows in
  its column a gets sum_lambda c_lambda * sum_e prod_a surj(e_a, k_a),
  over q's partitions lambda of length r and the distinct orderings e of
  each.  That coefficient is computed once per pattern, and every
  monomial of the pattern (a set of k rows, zipped with an arrangement
  of its columns) is written down with it.  Those monomials are
  canonical and pairwise distinct by construction, so they go into the
  result's terms as they are: the cost is the size of the result, with
  no product of column sums multiplied out and no monomial normalized.

The enumeration half (`functions_with_counts`, `functions_in_class`,
`class_size`, `average_over_counts`, `average_oracle`) is the ground truth
the closed form is checked against.  The functions it averages over are
orderings of multisets: `sympoly.distinct_permutations` is its one walk
over them, and `sympoly.multinomial` its one count of them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm, perm, prod
from typing import Iterable, Iterator, Sequence

from .budget import check_budget
from .sympoly import (
    FrequencyVector,
    Partition,
    SymPolynomial,
    ZPolynomial,
    check_counts,
    distinct_permutations,
    multinomial,
    partitions,
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


def column_pattern(mono: Monomial) -> Partition:
    """The column multiplicities of a monomial, sorted non-increasing: the
    one thing its class average and its column-sum coefficient depend on."""
    return tuple(sorted(Counter(j for _, j in mono).values(), reverse=True))


def surj(e: int, k: int) -> int:
    """The number of maps from an e-set onto a k-set, by inclusion-exclusion:
    sum_t (-1)^t C(k, t) (k - t)^e.  surj(0, 0) = 1; surj(e, k) = 0 when
    k > e, and when k = 0 < e."""
    return sum((-1) ** t * comb(k, t) * (k - t) ** e for t in range(k + 1))


def symmetrize(p: YPolynomial) -> SymPolynomial:
    """Class average of an indicator polynomial as a symmetric polynomial.

    For every frequency class z, the result evaluates to the exact average
    of p over all functions in the class; the degree never grows (it may
    shrink through cancellation).  The coefficients are summed per column
    pattern mu, and each pattern's average prod_a (z_a)_{mu_a} / (N)_k is
    expanded by Stirling numbers into integer weights per partition (see
    the module docstring).
    """
    den = lcm(*(c.denominator for c in p.terms.values()))
    by_pattern: dict[Partition, int] = {}  # den times the summed coefficients
    for mono, c in p.terms.items():
        mu = column_pattern(mono)
        by_pattern[mu] = by_pattern.get(mu, 0) + c.numerator * (den // c.denominator)
    coeffs: dict[Partition, Fraction] = {}
    for mu, num in by_pattern.items():
        rows = [stirling_row(e) for e in mu]
        weights: dict[Partition, int] = {}
        for t in product(*(range(1, e + 1) for e in mu)):
            lam = tuple(sorted(t, reverse=True))
            weights[lam] = weights.get(lam, 0) + prod(row[s] for row, s in zip(rows, t))
        scale = Fraction(num, den * perm(p.n, sum(mu)))
        for lam, w in weights.items():
            orbit = multinomial([*Counter(lam).values(), p.m - len(lam)])
            coeffs[lam] = coeffs.get(lam, 0) + scale * w / orbit
    return SymPolynomial(p.m, coeffs)


def stirling_row(e: int) -> list[int]:
    """[s(e, 0), ..., s(e, e)], the signed Stirling numbers of the first
    kind: the coefficients of the falling factorial (z)_e = z (z - 1) ...
    (z - e + 1) in the powers of z."""
    row = [1]
    for i in range(e):
        row = [a - i * b for a, b in zip([0, *row], [*row, 0])]
    return row


def desymmetrize(q: SymPolynomial, n: int) -> YPolynomial:
    """Indicator polynomial that agrees with q on every function: substitute
    each count z_j by its column sum y[1,j] + ... + y[n,j] and normalize.

    Every monomial of one column pattern gets the same coefficient
    (`_pattern_coefficients`), so each is written down once, with it."""
    if type(n) is not int or n < 1:
        raise ValueError(f"desymmetrize needs an int n >= 1 rows, got n={n!r}")
    m = q.m
    terms: dict = {}
    for kappa, coeff in _pattern_coefficients(q, n).items():
        row_sets = list(combinations(range(1, n + 1), sum(kappa)))
        for columns in combinations(range(1, m + 1), len(kappa)):
            for counts in distinct_permutations(kappa):
                labels = [j for j, count in zip(columns, counts) for _ in range(count)]
                for arrangement in distinct_permutations(labels):
                    for rows in row_sets:
                        terms[tuple(zip(rows, arrangement))] = coeff
    return YPolynomial._canonical(n, m, terms)


def _pattern_coefficients(q: SymPolynomial, n: int) -> dict[Partition, Fraction]:
    """The coefficient, after substituting column sums over n rows into q,
    of each normalized monomial with column pattern kappa, for every kappa
    where it is nonzero (the surjection formula of the module docstring).
    Only a kappa with as many parts as some lambda, and weight at most
    min(n, |lambda|), can count, since surj(e, k) = 0 for k > e."""
    by_length: dict[int, list[tuple[Partition, Fraction]]] = {}
    for lam, c in q.terms.items():
        by_length.setdefault(len(lam), []).append((lam, c))
    result: dict[Partition, Fraction] = {}
    for r, lams in sorted(by_length.items()):
        orderings = [(list(distinct_permutations(lam)), c) for lam, c in lams]
        for k in range(r, min(n, max(sum(lam) for lam, _ in lams)) + 1):
            for kappa in partitions(k, max_parts=r):
                if len(kappa) < r:
                    continue
                total = sum(
                    c * sum(prod(map(surj, e, kappa)) for e in es) for es, c in orderings
                )
                if total:
                    result[kappa] = total
    return result


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
    they are counted as they come, so a wrong `size` cannot pass unnoticed.
    The coefficients are put over their common denominator once, so each
    function adds the int numerators of the terms it satisfies; the
    caller has checked that the functions are on p's grid."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    terms = [(key, c.numerator * (den // c.denominator)) for key, c in p.terms.items()]
    total = seen = 0
    for f in functions:
        true = set(enumerate(f.values, 1))
        total += sum(num for key, num in terms if true.issuperset(key))
        seen += 1
    if seen != size:
        raise RuntimeError(f"expected {size} functions, got {seen}")
    return Fraction(total, den * size)
