"""Tests for the indicator-variable polynomial layer."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symdeg.ypoly import (
    FunctionTable,
    YPolynomial,
    evaluate_factors,
    normalize_monomial,
)


# ---------------------------------------------------------------------------
# FunctionTable


def test_all_functions_count_and_order():
    fs = list(FunctionTable.all(2, 3))
    assert len(fs) == 9
    assert fs[0].values == (1, 1)
    assert fs[1].values == (1, 2)
    assert fs[-1].values == (3, 3)


@pytest.mark.parametrize("n,m", [(2, 0), (2, 1.0), (-1, 2), (0, 3), (True, 2)])
def test_all_functions_refuses_a_bad_shape_when_called(n, m):
    # refused on the call itself, before any table is drawn, with the
    # rule and message of a single table
    with pytest.raises(ValueError, match=r"a function table needs ints n >= 1 and m >= 1"):
        FunctionTable.all(n, m)


def test_all_functions_equal_checked_tables():
    for n in range(1, 4):
        for m in range(1, 4):
            expected = [FunctionTable(n, m, v) for v in itertools.product(range(1, m + 1), repeat=n)]
            assert list(FunctionTable.all(n, m)) == expected


def test_function_table_validates_range():
    with pytest.raises(ValueError):
        FunctionTable(2, 2, (1, 3))
    with pytest.raises(ValueError):
        FunctionTable(2, 2, (1,))


@pytest.mark.parametrize("n,m", [(2.0, 2), (2, 2.0), (True, 2), (2, True)])
def test_function_table_needs_int_shape(n, m):
    with pytest.raises(ValueError, match="ints"):
        FunctionTable(n, m, (1, 1))


@pytest.mark.parametrize("values", [(1.0, True), (1, 2.0), (True, 1), (1, "2"), (1, Fraction(2))])
def test_function_table_needs_int_values(values):
    # a float or a bool would pass the range check and then fail as a
    # list index in frequency_counts
    with pytest.raises(ValueError, match="values must be ints"):
        FunctionTable(2, 2, values)


def test_indicator_and_counts():
    f = FunctionTable(3, 2, (2, 1, 2))
    assert f.indicator(1, 2) == 1
    assert f.indicator(1, 1) == 0
    assert f.frequency_counts() == (1, 2)
    assert not f.is_one_to_one()
    assert FunctionTable(2, 2, (2, 1)).is_one_to_one()


# ---------------------------------------------------------------------------
# normalize_monomial


def test_normalize_squares_collapse():
    # y11 * y11 * y21  ->  y11 * y21
    assert normalize_monomial([(1, 1), (1, 1), (2, 1)]) == ((1, 1), (2, 1))


def test_normalize_row_conflict_annihilates():
    # y11 * y12 share row 1 with different columns
    assert normalize_monomial([(1, 1), (1, 2)]) is None


def test_normalize_sorts_by_row():
    assert normalize_monomial([(3, 1), (1, 2)]) == ((1, 2), (3, 1))


def test_normalize_empty_is_constant_monomial():
    assert normalize_monomial([]) == ()


def test_normalize_idempotent_exhaustive():
    # every factor list over a 3x3 grid, length <= 3
    grid = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    for k in range(4):
        for factors in itertools.product(grid, repeat=k):
            norm = normalize_monomial(factors)
            if norm is None:
                continue
            assert normalize_monomial(norm) == norm


factor_lists = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=5
)


@given(factor_lists)
def test_normalize_preserves_semantics(factors):
    """The raw product and the normalized monomial agree on every function."""
    norm = normalize_monomial(factors)
    for f in FunctionTable.all(3, 3):
        raw = evaluate_factors(factors, f)
        if norm is None:
            assert raw == 0
        else:
            assert raw == evaluate_factors(norm, f)


# ---------------------------------------------------------------------------
# YPolynomial construction and arithmetic


def test_annihilating_terms_drop_at_construction():
    p = YPolynomial(2, 2, {((1, 1), (1, 2)): Fraction(7)})
    assert p.terms == {}
    assert p.degree() is None


def test_zero_polynomial_degree_is_none():
    assert YPolynomial.zero(2, 2).degree() is None
    assert YPolynomial.constant(2, 2, 0).degree() is None


def test_constant_degree_zero():
    assert YPolynomial.constant(2, 2, Fraction(1, 2)).degree() == 0


def test_variable_and_product():
    y11 = YPolynomial.variable(2, 2, 1, 1)
    y21 = YPolynomial.variable(2, 2, 2, 1)
    p = y11 * y21
    assert p.degree() == 2
    assert p.terms == {((1, 1), (2, 1)): Fraction(1)}
    # same row distinct columns annihilate under multiplication
    y12 = YPolynomial.variable(2, 2, 1, 2)
    assert (y11 * y12).terms == {}


def test_square_is_identity_on_variables():
    y11 = YPolynomial.variable(2, 2, 1, 1)
    assert (y11 * y11).terms == y11.terms


def test_evaluate_example():
    # P = y11*y21 + 2*y12 on f with f(1)=1, f(2)=1: 1 + 0 = 1
    p = YPolynomial(2, 2, {((1, 1), (2, 1)): 1, ((1, 2),): 2})
    assert p.evaluate(FunctionTable(2, 2, (1, 1))) == 1
    # on f(1)=2, f(2)=1: 0 + 2
    assert p.evaluate(FunctionTable(2, 2, (2, 1))) == 2


def test_addition_and_scaling():
    y11 = YPolynomial.variable(2, 2, 1, 1)
    p = y11 + y11.scale(Fraction(-1))
    assert p.terms == {}
    q = y11.scale(Fraction(1, 3)) + YPolynomial.constant(2, 2, 1)
    f = FunctionTable(2, 2, (1, 2))
    assert q.evaluate(f) == Fraction(4, 3)


def test_dimension_mismatch_rejected():
    a = YPolynomial.variable(2, 2, 1, 1)
    b = YPolynomial.variable(2, 3, 1, 1)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_canonical_terms_are_taken_as_they_are_but_the_shape_is_checked():
    terms = {(): Fraction(1, 3), ((1, 2), (2, 3)): Fraction(-1, 2)}
    p = YPolynomial._canonical(2, 3, terms)
    assert p.terms is terms and p == YPolynomial(2, 3, terms)
    for n in (0, 2.0, True):
        with pytest.raises(ValueError, match="n must be an int >= 1"):
            YPolynomial._canonical(n, 3, terms)


def test_variable_bounds_checked():
    with pytest.raises(ValueError):
        YPolynomial(2, 2, {((3, 1),): 1})
    with pytest.raises(ValueError):
        YPolynomial(2, 2, {((1, 0),): 1})


def test_non_integer_factor_rejected():
    # the factor (1.5, 2) is inside the 2x2 grid's bounds but names no indicator
    with pytest.raises(ValueError, match="integer row and column"):
        YPolynomial(2, 2, {((1.5, 2),): 1})
    with pytest.raises(ValueError, match="integer row and column"):
        YPolynomial(2, 2, {((1, 2.0),): 1})


@st.composite
def raw_polynomials(draw):
    """A grid up to 3x3 and unnormalized factor lists on it: repeated
    rows, repeated columns and repeated factors all allowed."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    factors = st.lists(st.tuples(st.integers(1, n), st.integers(1, m)), max_size=5)
    coeffs = st.builds(Fraction, st.integers(-10, 10), st.integers(1, 7))
    return n, m, draw(st.lists(st.tuples(factors, coeffs), max_size=6))


@given(raw_polynomials())
@settings(max_examples=200, deadline=None)
def test_evaluate_matches_raw_factor_products(drawn):
    n, m, raw = drawn
    p = YPolynomial(n, m, raw)
    for f in FunctionTable.all(n, m):
        assert p.evaluate(f) == sum(c * evaluate_factors(factors, f) for factors, c in raw)


@st.composite
def grid_polynomials(draw, rows: int, cols: int, factors_max: int):
    """A polynomial on a grid of up to rows x cols, m < n allowed, with up
    to 6 raw terms of up to factors_max factors; the zero polynomial and
    constant-only ones come up as draws with no terms and with only empty
    factor lists."""
    n, m = draw(st.integers(1, rows)), draw(st.integers(1, cols))
    factors = st.lists(st.tuples(st.integers(1, n), st.integers(1, m)), max_size=factors_max)
    coeffs = st.builds(Fraction, st.integers(-10, 10), st.integers(1, 12))
    return YPolynomial(n, m, draw(st.lists(st.tuples(factors, coeffs), max_size=6)))


@given(st.one_of(grid_polynomials(4, 4, 4), grid_polynomials(5, 3, 5)))
@example(YPolynomial.zero(1, 1))
@example(YPolynomial.zero(4, 2))
@example(YPolynomial.constant(1, 4, Fraction(-3, 7)))
@example(YPolynomial.constant(3, 1, 5))
@example(YPolynomial(4, 1, {((1, 1), (4, 1)): Fraction(1, 2), (): 1}))
@example(YPolynomial(3, 2, {((1, 2), (3, 1)): Fraction(2, 3), ((2, 2),): Fraction(-1, 6)}))
# n = 1, where the root's links are the whole answer; n = 2, where the root
# emits the one m x m block (links ending on row 1, on row 2, and pairs);
# and n = 5, where each node for f(1..3) emits one
@example(YPolynomial(1, 3, {((1, 2),): Fraction(1, 2), ((1, 3),): -2, (): 3}))
@example(YPolynomial(2, 3, {((1, 2), (2, 3)): 5, ((1, 2),): -1, ((2, 3),): Fraction(2, 3), ((1, 1), (2, 1)): 7}))
@example(YPolynomial(5, 2, {((4, 1), (5, 2)): 1, ((1, 2), (4, 2)): 3, ((5, 1),): -1, (): 2}))
@settings(max_examples=300, deadline=None)
def test_numerators_match_evaluate_in_order(p):
    den, sums = p.numerators()
    assert all(type(s) is int for s in sums) and type(den) is int and den > 0
    assert all((c * den).denominator == 1 for c in p.terms.values())
    assert [Fraction(s, den) for s in sums] == [p.evaluate(f) for f in FunctionTable.all(p.n, p.m)]


def assert_numerators_on_every_monomial(n: int, m: int) -> None:
    """Each row is either absent or picks one of the m columns: (m + 1)**n
    monomials, so every kind of link at rows n - 1 and n comes up."""
    for cols in itertools.product([None, *range(1, m + 1)], repeat=n):
        mono = tuple((i, j) for i, j in enumerate(cols, 1) if j is not None)
        p = YPolynomial(n, m, {mono: Fraction(5, 3)})
        expected = [p.evaluate(f) for f in FunctionTable.all(n, m)]
        den, sums = p.numerators()
        assert den == 3 and [Fraction(s, den) for s in sums] == expected
        assert expected.count(Fraction(5, 3)) == m ** (n - len(mono))


def test_numerators_on_every_monomial_of_the_2x3_grid():
    assert_numerators_on_every_monomial(2, 3)  # 16 monomials


def test_numerators_on_every_monomial_of_the_3x2_grid():
    assert_numerators_on_every_monomial(3, 2)  # 27 monomials


def test_constructor_coefficients_are_fractions_summed_per_key():
    third = Fraction(1, 3)
    p = YPolynomial(2, 2, [(((1, 1),), 2), (((2, 2),), "3/4"), ((), third)])
    assert p.terms == {((1, 1),): Fraction(2), ((2, 2),): Fraction(3, 4), (): third}
    assert all(type(c) is Fraction for c in p.terms.values())
    # a repeated key adds, whatever the spelling of its factors
    p = YPolynomial(2, 2, [(((1, 1),), 2), (((1, 1), (1, 1)), "1/2"), (((2, 1),), third)])
    assert p.terms == {((1, 1),): Fraction(5, 2), ((2, 1),): third}
    assert all(type(c) is Fraction for c in p.terms.values())
    # a zero sum drops its key, as a zero coefficient does
    p = YPolynomial(2, 2, [(((1, 1),), third), (((1, 1),), "-1/3"), (((2, 2),), 0), ((), 1)])
    assert p.terms == {(): Fraction(1)}


@given(factor_lists, factor_lists)
@settings(max_examples=60)
def test_product_degree_bound(fa, fb):
    pa = YPolynomial(3, 3, {tuple(fa): 1})
    pb = YPolynomial(3, 3, {tuple(fb): 1})
    prod = pa * pb
    da, db, dp = pa.degree(), pb.degree(), prod.degree()
    if dp is not None:
        assert da is not None and db is not None
        assert dp <= da + db


@given(
    st.dictionaries(
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(1, 3)),
            max_size=3,
        ).map(tuple),
        st.fractions(min_value=-5, max_value=5, max_denominator=20),
        max_size=4,
    )
)
def test_serialization_round_trip(terms):
    p = YPolynomial(3, 3, terms)
    q = YPolynomial.from_dict(p.to_dict())
    assert q.n == p.n and q.m == p.m and q.terms == p.terms


def test_to_dict_shape():
    p = YPolynomial(2, 2, {((1, 1), (2, 2)): Fraction(1, 2)})
    d = p.to_dict()
    assert d["vars"] == "y"
    assert d["n"] == 2 and d["m"] == 2
    assert d["terms"] == [{"factors": [[1, 1], [2, 2]], "coeff": "1/2"}]
