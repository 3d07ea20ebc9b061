"""Tests for class averaging and its inverse substitution.

The enumeration averages (`average_oracle`, `average_over_counts`) are the
ground truth here; the closed-form routes must reproduce them exactly.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symdeg.budget import BudgetExceededError
from symdeg.degreelp import approx_degree
from symdeg.properties import get_property
from symdeg.sympoly import (
    FrequencyVector,
    SymPolynomial,
    ZPolynomial,
    msym_to_zpoly,
    partitions,
)
from symdeg.symmetrize import (
    _exact_mean,
    average_oracle,
    average_over_counts,
    class_size,
    column_pattern,
    desymmetrize,
    functions_in_class,
    functions_with_counts,
    monomial_class_expectation,
    stirling_row,
    surj,
    symmetrize,
    symmetrize_monomial,
)
from symdeg.ypoly import FunctionTable, YPolynomial, normalize_monomial


def all_normalized_monomials(n, m, max_degree):
    """Every normalized monomial over the n x m grid with <= max_degree factors."""
    grid = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
    seen = set()
    for k in range(max_degree + 1):
        for factors in itertools.combinations(grid, k):
            mono = normalize_monomial(factors)
            if mono is not None and mono not in seen:
                seen.add(mono)
                yield mono


# ---------------------------------------------------------------------------
# monomial_class_expectation (ordered route)


def test_expectation_single_factor():
    # E[y11] with ordered counts z over two rows: z1/2
    p = monomial_class_expectation(((1, 1),), 2, 2)
    assert p == ZPolynomial(2, [(((1, 1),), Fraction(1, 2))])


def test_expectation_same_column_pair():
    # E[y11 y21] = z1 (z1 - 1) / 2
    p = monomial_class_expectation(((1, 1), (2, 1)), 2, 2)
    assert p == ZPolynomial(
        2, [(((1, 2),), Fraction(1, 2)), (((1, 1),), Fraction(-1, 2))]
    )


def test_expectation_distinct_column_pair():
    # E[y11 y22] = z1 z2 / 2
    p = monomial_class_expectation(((1, 1), (2, 2)), 2, 2)
    assert p == ZPolynomial(2, [(((1, 1), (2, 1)), Fraction(1, 2))])


def test_expectation_degree_is_factor_count():
    # the constant monomial has degree 0; every other product keeps degree k
    for mono in all_normalized_monomials(4, 3, 3):
        assert monomial_class_expectation(mono, 4, 3).degree() == len(mono)


def test_expectation_rejects_too_many_factors():
    with pytest.raises(ValueError):
        monomial_class_expectation(((1, 1), (2, 1), (3, 1)), 2, 2)


@pytest.mark.parametrize(
    "mono",
    [
        ((1, 1), (1, 1)),  # a row repeated with the same column
        ((1, 1), (1, 2)),  # a row repeated with different columns
        ((0, 1),),  # row 0
        ((3, 1),),  # row n + 1
    ],
)
def test_symmetrize_monomial_refuses_unnormalized_monomials(mono):
    # the closed form would give y11*y12 the average m[1, 1]/2, though it
    # is 0 on every function
    with pytest.raises(ValueError, match="not normalized"):
        symmetrize_monomial(mono, 2, 2)


def test_expectation_matches_ordered_average():
    n, m = 3, 2
    for mono in all_normalized_monomials(n, m, 2):
        p = YPolynomial(n, m, {mono: 1})
        formula = monomial_class_expectation(mono, n, m)
        for counts in itertools.product(range(n + 1), repeat=m):
            if sum(counts) != n:
                continue
            assert formula.evaluate(counts) == average_over_counts(p, counts)


def test_exact_mean_refuses_a_wrong_function_count():
    # the count is checked by a raise, so it holds under python -O as well
    p = YPolynomial(2, 2, {((1, 1),): 1})
    functions = list(functions_with_counts((1, 1)))
    assert _exact_mean(p, functions, 2) == Fraction(1, 2)
    for wrong in (1, 3):
        with pytest.raises(RuntimeError, match=f"expected {wrong} functions, got 2"):
            _exact_mean(p, functions, wrong)


@pytest.mark.parametrize("n, m", [*itertools.product(range(2, 5), repeat=2), (3, 5)])
def test_average_oracle_equals_the_mean_of_fraction_values(n, m):
    # the integer numerators against the mean of p.evaluate, a Fraction per
    # function, at every class: the zero polynomial, a constant, and every
    # monomial of degree <= 2 with its own denominator
    mixed = {
        mono: Fraction((-1) ** k * (k + 1), k + 2)
        for k, mono in enumerate(all_normalized_monomials(n, m, 2))
    }
    for p in (YPolynomial(n, m), YPolynomial(n, m, {(): Fraction(7, 3)}), YPolynomial(n, m, mixed)):
        for lam in partitions(n, max_parts=m):
            z = FrequencyVector(m, lam)
            functions = list(functions_in_class(z))
            want = sum((p.evaluate(f) for f in functions), Fraction(0)) / len(functions)
            assert average_oracle(p, z) == want, (p, lam)


# ---------------------------------------------------------------------------
# ordered average vs class average: these differ, deliberately


def test_ordered_and_class_averages_differ_on_asymmetric_monomial():
    # y11 y21 forces both rows into column 1.  Among functions with ordered
    # counts (2, 0) it is identically 1; the class {2, 0} also contains the
    # counts (0, 2) where it is identically 0, so the class average is 1/2.
    p = YPolynomial(2, 2, {((1, 1), (2, 1)): 1})
    assert average_over_counts(p, (2, 0)) == 1
    assert average_over_counts(p, (0, 2)) == 0
    z = FrequencyVector.from_counts((2, 0))
    assert average_oracle(p, z) == Fraction(1, 2)
    assert symmetrize_monomial(((1, 1), (2, 1)), 2, 2).evaluate(z) == Fraction(1, 2)


def test_average_oracle_single_variable():
    p = YPolynomial(2, 2, {((1, 1),): 1})
    assert average_oracle(p, FrequencyVector.from_counts((1, 1))) == Fraction(1, 2)
    assert average_oracle(p, FrequencyVector.from_counts((2, 0))) == Fraction(1, 2)


def test_average_argument_validation():
    p = YPolynomial(2, 2, {((1, 1),): 1})
    with pytest.raises(ValueError):
        average_over_counts(p, (1, 1, 1))
    with pytest.raises(ValueError):
        average_over_counts(p, (2, 1))
    with pytest.raises(ValueError):
        average_oracle(p, FrequencyVector.from_counts((1, 1, 1)))


@pytest.mark.parametrize("counts", [(1.7, 1.2), (True, 1), (2.0, 0), (3, -1)])
def test_average_over_counts_rejects_invalid_counts(counts):
    p = YPolynomial(2, 2, {((1, 1),): 1})
    with pytest.raises(ValueError, match="counts must be non-negative integers"):
        average_over_counts(p, counts)


# ---------------------------------------------------------------------------
# symmetrize_monomial and symmetrize against the enumeration oracle


def test_symmetrize_monomial_matches_oracle_small():
    for n in range(1, 4):
        for m in range(1, 3):
            classes = [FrequencyVector(m, lam) for lam in partitions(n, max_parts=m)]
            for mono in all_normalized_monomials(n, m, 2):
                q = symmetrize_monomial(mono, n, m)
                p = YPolynomial(n, m, {mono: 1})
                for z in classes:
                    assert q.evaluate(z) == average_oracle(p, z)


def test_symmetrize_column_sum_is_msym_one():
    # y11 + y12 over a single row averages to exactly m_(1)
    p = YPolynomial(1, 2, {((1, 1),): 1, ((1, 2),): 1})
    assert symmetrize(p) == SymPolynomial(2, {(1,): 1})


def test_symmetrize_cancellation_to_zero():
    # y11 and y21 average identically, so their difference vanishes
    p = YPolynomial(2, 2, {((1, 1),): 1, ((2, 1),): -1})
    q = symmetrize(p)
    assert q == SymPolynomial.zero(2)
    assert q.degree() is None


ypolys_3x2 = st.dictionaries(
    st.sampled_from(sorted(all_normalized_monomials(3, 2, 2))),
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
    max_size=4,
).map(lambda terms: YPolynomial(3, 2, terms))


@given(ypolys_3x2)
@settings(max_examples=30, deadline=None)
def test_symmetrize_matches_oracle_on_polynomials(p):
    q = symmetrize(p)
    for lam in partitions(3, max_parts=2):
        z = FrequencyVector(2, lam)
        assert q.evaluate(z) == average_oracle(p, z)
    dq, dp = q.degree(), p.degree()
    if dq is not None:
        assert dp is not None and dq <= dp


# ---------------------------------------------------------------------------
# enumeration helpers


def test_functions_with_counts_explicit():
    assert [f.values for f in functions_with_counts((2, 0))] == [(1, 1)]
    assert [f.values for f in functions_with_counts((1, 1))] == [(1, 2), (2, 1)]
    assert [f.values for f in functions_with_counts((1, 2))] == [
        (1, 2, 2),
        (2, 1, 2),
        (2, 2, 1),
    ]


def test_functions_with_counts_lists_each_function_once_in_order():
    for m in range(1, 5):
        for n in range(1, 6):
            by_counts = {}
            for f in FunctionTable.all(n, m):
                by_counts.setdefault(f.frequency_counts(), []).append(f.values)
            for counts in itertools.product(range(n + 1), repeat=m):
                if sum(counts) == n:
                    listed = [f.values for f in functions_with_counts(counts)]
                    assert listed == sorted(by_counts[counts])


@pytest.mark.parametrize("counts", [(1.9, 1), (True, 1), (1, 1.0)])
def test_functions_with_counts_rejects_invalid_counts(counts):
    with pytest.raises(ValueError, match="counts must be non-negative integers"):
        list(functions_with_counts(counts))


def test_class_size_matches_enumeration():
    for n in range(1, 5):
        for m in range(1, 4):
            for lam in partitions(n, max_parts=m):
                z = FrequencyVector(m, lam)
                listed = list(functions_in_class(z))
                assert len(listed) == class_size(z)
                assert len({f.values for f in listed}) == len(listed)
                assert all(FrequencyVector.of_function(f) == z for f in listed)


def test_class_sizes_partition_function_space():
    for n in range(1, 5):
        for m in range(1, 4):
            total = sum(
                class_size(FrequencyVector(m, lam))
                for lam in partitions(n, max_parts=m)
            )
            assert total == m**n


def test_functions_in_class_budget(monkeypatch):
    monkeypatch.setenv("SYMDEG_BUDGET", "5")
    z = FrequencyVector(3, (2, 1, 1))
    with pytest.raises(BudgetExceededError) as info:
        list(functions_in_class(z))
    assert info.value.required == class_size(z)
    assert info.value.budget == 5


def test_functions_in_class_budget_names_a_huge_count_by_its_size():
    # the class size has more decimal digits than str() may print
    z = FrequencyVector(3, (3034, 3033, 3033))
    with pytest.raises(BudgetExceededError) as info:
        list(functions_in_class(z))
    assert info.value.required == f"2**{class_size(z).bit_length() - 1} or more"
    assert str(info.value).startswith(f"enumeration of {info.value.required} items")


def test_functions_in_class_wide_range():
    # (2,) over 12 outputs has 12 functions; the arrangements of its 12
    # counts are generated once each, not as 12! permutations
    z = FrequencyVector(12, (2,))
    fs = list(functions_in_class(z))
    assert len(fs) == class_size(z) == 12
    assert len(set(fs)) == 12


def test_average_oracle_budget_propagates(monkeypatch):
    monkeypatch.setenv("SYMDEG_BUDGET", "2")
    p = YPolynomial(4, 3, {((1, 1),): 1})
    with pytest.raises(BudgetExceededError):
        average_oracle(p, FrequencyVector(3, (2, 1, 1)))


# ---------------------------------------------------------------------------
# desymmetrize and the round trip


def test_desymmetrize_msym_one():
    q = SymPolynomial(2, {(1,): 1})
    p = desymmetrize(q, 1)
    assert p.terms == {((1, 1),): Fraction(1), ((1, 2),): Fraction(1)}


def test_desymmetrize_pairs_drop_conflicts():
    # m_(1,1) -> (y11+y21)(y12+y22); same-row cross terms annihilate
    q = SymPolynomial(2, {(1, 1): 1})
    p = desymmetrize(q, 2)
    assert p.terms == {
        ((1, 1), (2, 2)): Fraction(1),
        ((1, 2), (2, 1)): Fraction(1),
    }


def test_desymmetrize_needs_rows():
    with pytest.raises(ValueError):
        desymmetrize(SymPolynomial(2, {(1,): 1}), 0)


@pytest.mark.parametrize("n", [2.0, True], ids=["float", "bool"])
def test_desymmetrize_needs_an_int_n(n):
    # refused up front, naming n, before any expansion runs
    with pytest.raises(ValueError, match="n="):
        desymmetrize(SymPolynomial(2, {(1, 1): 1}), n)


def test_desymmetrize_evaluates_like_source():
    n, m = 3, 2
    for lam_q in [(), (1,), (2,), (1, 1), (2, 1), (3,)]:
        q = SymPolynomial(m, {lam_q: Fraction(2, 3)})
        p = desymmetrize(q, n)
        for f in FunctionTable.all(n, m):
            assert p.evaluate(f) == q.evaluate(FrequencyVector.of_function(f))


@given(
    st.dictionaries(
        st.sampled_from([(), (1,), (2,), (1, 1), (2, 1), (3,), (2, 2)]),
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
        max_size=3,
    )
)
@settings(max_examples=30, deadline=None)
def test_round_trip_is_identity_on_classes(coeffs):
    n, m = 3, 2
    q = SymPolynomial(m, coeffs)
    back = symmetrize(desymmetrize(q, n))
    for lam in partitions(n, max_parts=m):
        z = FrequencyVector(m, lam)
        assert back.evaluate(z) == q.evaluate(z)


# ---------------------------------------------------------------------------
# the per-pattern routes against the per-monomial routes they replace


def symmetrize_by_monomial(p):
    """Reference: every term averaged on its own monomial, then summed."""
    terms = [
        (lam, coeff * c)
        for mono, coeff in p.terms.items()
        for lam, c in symmetrize_monomial(mono, p.n, p.m).terms.items()
    ]
    return SymPolynomial(p.m, terms)


def desymmetrize_by_substitution(q, n):
    """Reference: expand each m_lambda into named monomials, and multiply
    out the column sums with YPolynomial products, one factor at a time."""
    m = q.m
    column_sums = {
        j: YPolynomial(n, m, [(((i, j),), 1) for i in range(1, n + 1)])
        for j in range(1, m + 1)
    }
    result = YPolynomial.zero(n, m)
    for lam, coeff in q.terms.items():
        for zmono, zcoeff in msym_to_zpoly(lam, m).terms.items():
            term = YPolynomial.constant(n, m, coeff * zcoeff)
            for var, exp in zmono:
                for _ in range(exp):
                    term = term * column_sums[var]
            result = result + term
    return result


@st.composite
def normalized_polynomials(draw):
    """A polynomial on a grid up to 5x6 whose terms are normalized monomials
    drawn row set first, so none of them vanishes on construction."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    monos = st.sets(st.integers(1, n)).flatmap(
        lambda rows: st.tuples(*[st.tuples(st.just(i), st.integers(1, m)) for i in sorted(rows)])
    )
    coeffs = st.builds(Fraction, st.integers(-10, 10), st.integers(1, 12))
    return YPolynomial(n, m, draw(st.lists(st.tuples(monos, coeffs), max_size=12)))


@given(normalized_polynomials())
@example(YPolynomial.zero(2, 3))
@example(YPolynomial.constant(4, 4, Fraction(5, 3)))
@example(YPolynomial(4, 4, {((1, 1), (2, 2)): 1, ((3, 4), (4, 3)): -1}))
@example(YPolynomial(4, 2, {((1, 1), (2, 1), (3, 2), (4, 2)): Fraction(1, 7)}))
@example(YPolynomial(5, 2, {((1, 1), (2, 1), (3, 1), (4, 2), (5, 2)): 3, ((2, 2),): Fraction(-1, 4)}))
@example(YPolynomial(3, 5, {((1, 5), (2, 5), (3, 2)): Fraction(2, 3), ((1, 4),): 1, (): -1}))
@example(YPolynomial(5, 6, {((1, 1), (2, 1), (3, 2), (4, 3), (5, 3)): Fraction(2, 3), ((2, 6),): -1}))
@settings(max_examples=200, deadline=None)
def test_symmetrize_equals_the_sum_of_monomial_averages(p):
    q = symmetrize(p)
    assert q.terms == symmetrize_by_monomial(p).terms
    if p.m**p.n <= 256:  # small enough to average by enumeration too
        for lam in partitions(p.n, max_parts=p.m):
            z = FrequencyVector(p.m, lam)
            assert q.evaluate(z) == average_oracle(p, z)


def test_column_pattern():
    assert column_pattern(()) == ()
    assert column_pattern(((1, 3), (2, 1), (3, 3), (4, 2))) == (2, 1, 1)
    assert column_pattern(((1, 2), (2, 2), (3, 2))) == (3,)


@pytest.mark.parametrize(
    "q, n",
    [
        (SymPolynomial(3, {(): Fraction(-2, 5)}), 2),  # the constant term alone
        (SymPolynomial(3, {(1, 1, 1): 1}), 2),  # lambda longer than n: zero
        (SymPolynomial(4, {(1, 1, 1): 1, (2, 1, 1): 3}), 2),  # every lambda longer than n
        (SymPolynomial(2, {(3,): 1}), 2),  # |lambda| > n
        (SymPolynomial(3, {(4, 1): Fraction(1, 2), (2, 2): -1}), 3),  # |lambda| > n, two columns
        (SymPolynomial(2, {(1, 1, 1): 1}), 3),  # m < len(lambda): the zero polynomial
        (SymPolynomial(2, {(1, 1, 1): 1, (1,): 2}), 3),  # m < len(lambda) beside a term that stays
        (SymPolynomial(5, {(): 1, (1,): -1, (2, 1): Fraction(1, 3), (1, 1, 1): 2}), 3),  # m > n
        (SymPolynomial(1, {(2,): 1, (): 4}), 4),  # one column
    ],
)
def test_desymmetrize_equals_column_sum_substitution(q, n):
    result = desymmetrize(q, n)
    assert_canonical(result)
    assert result.terms == desymmetrize_by_substitution(q, n).terms


def assert_canonical(p):
    """The terms are exactly what the validating constructor would store:
    normalized, distinct monomials, each with a nonzero Fraction."""
    assert all(type(c) is Fraction and c for c in p.terms.values())
    assert p == YPolynomial(p.n, p.m, list(p.terms.items()))


def test_desymmetrize_of_lambdas_longer_than_n_is_zero():
    assert desymmetrize(SymPolynomial(4, {(1, 1, 1): 1, (2, 1, 1): 3}), 2) == YPolynomial.zero(2, 4)
    assert desymmetrize(SymPolynomial(2, {(1, 1, 1): 1}), 3) == YPolynomial.zero(3, 2)


sympolys = st.integers(1, 4).flatmap(
    lambda m: st.dictionaries(
        st.sampled_from([lam for w in range(5) for lam in partitions(w, max_parts=m)]),
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
        max_size=5,
    ).map(lambda coeffs: SymPolynomial(m, coeffs))
)


@given(sympolys, st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_desymmetrize_equals_column_sum_substitution_on_random_input(q, n):
    result = desymmetrize(q, n)
    assert_canonical(result)
    assert result.terms == desymmetrize_by_substitution(q, n).terms


def test_stirling_row_expands_the_falling_factorial():
    for e in range(8):
        row = stirling_row(e)
        assert len(row) == e + 1
        assert row[e] == 1 and row[0] == (e == 0)
        for z in range(-3, 10):
            assert sum(s * z**t for t, s in enumerate(row)) == math.prod(z - i for i in range(e))


def test_surj_counts_onto_maps():
    for e in range(7):
        for k in range(7):
            onto = sum(
                1 for f in itertools.product(range(k), repeat=e) if len(set(f)) == k
            )
            assert surj(e, k) == onto, (e, k)


def test_ed_n5_witness_round_trip():
    q = approx_degree(get_property("ed"), 5, 5).optimal_polynomial()
    assert symmetrize(desymmetrize(q, 5)) == q
