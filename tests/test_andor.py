"""Tests for the AND-OR tree encoding and its indicator substitution."""

import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdeg.andor import (
    BoolAssignment,
    XPolynomial,
    andor_value,
    degree_chain,
    f_to_assignment,
    position_factor,
    substitute,
)
from symdeg.ypoly import FunctionTable


# ---------------------------------------------------------------------------
# assignments and the tree value


def test_assignment_validation():
    with pytest.raises(ValueError):
        BoolAssignment(2, (1, 0, 1))
    with pytest.raises(ValueError):
        BoolAssignment(2, (1, 0, 2, 0))
    with pytest.raises(ValueError):
        BoolAssignment(0, ())


@pytest.mark.parametrize("n", [2.0, True, "2", None], ids=repr)
def test_assignment_needs_int_n(n):
    with pytest.raises(ValueError, match="an int n >= 1"):
        BoolAssignment(n, (1, 0, 0, 1))


def test_andor_value_small_cases():
    # n = 2: groups are positions (1, 2) and (3, 4)
    assert andor_value(BoolAssignment(2, (1, 0, 0, 1))) == 1
    assert andor_value(BoolAssignment(2, (1, 1, 0, 0))) == 0
    assert andor_value(BoolAssignment(2, (0, 0, 1, 1))) == 0
    assert andor_value(BoolAssignment(1, (1,))) == 1
    assert andor_value(BoolAssignment(1, (0,))) == 0


def test_andor_value_is_and_of_ors():
    n = 2
    for bits in itertools.product((0, 1), repeat=n * n):
        x = BoolAssignment(n, bits)
        expected = int(all(any(bits[i * n : (i + 1) * n]) for i in range(n)))
        assert andor_value(x) == expected


# ---------------------------------------------------------------------------
# the function encoding


def test_position_factor_layout():
    # position (i-1)*n + j carries y[j, i]
    assert position_factor(1, 2) == (1, 1)
    assert position_factor(2, 2) == (2, 1)
    assert position_factor(3, 2) == (1, 2)
    assert position_factor(4, 2) == (2, 2)
    with pytest.raises(ValueError):
        position_factor(5, 2)
    with pytest.raises(ValueError):
        position_factor(0, 2)


def test_f_to_assignment_bits():
    f = FunctionTable(2, 2, (2, 1))  # f(1)=2, f(2)=1
    x = f_to_assignment(f)
    # group 1 (output 1): position 2 set because f(2)=1
    # group 2 (output 2): position 3 set because f(1)=2
    assert x.bits == (0, 1, 1, 0)


def test_f_to_assignment_has_one_bit_per_input():
    for f in FunctionTable.all(3, 3):
        x = f_to_assignment(f)
        for j in range(1, 4):
            column = [x.bits[(i - 1) * 3 + (j - 1)] for i in range(1, 4)]
            assert sum(column) == 1
            assert column[f(j) - 1] == 1


def test_f_to_assignment_requires_square():
    with pytest.raises(ValueError):
        f_to_assignment(FunctionTable(2, 3, (1, 2)))


def test_tree_value_is_injectivity():
    for n in range(1, 5):
        for f in FunctionTable.all(n, n):
            assert andor_value(f_to_assignment(f)) == int(f.is_one_to_one())


# ---------------------------------------------------------------------------
# XPolynomial


def test_xpoly_is_multilinear_and_deduped():
    p = XPolynomial(2, [((1, 1, 3), 1), ((3, 1), 2)])
    assert p.terms == {(1, 3): Fraction(3)}
    assert p.degree() == 2
    assert XPolynomial(2).degree() is None


def test_xpoly_position_bounds():
    with pytest.raises(ValueError):
        XPolynomial(2, [((5,), 1)])


def test_xpoly_rejects_non_integer_positions():
    # int() would truncate 1.5 to 1
    with pytest.raises(ValueError, match="position 1.5 is not an integer"):
        XPolynomial(2, {(1.5, 3): 1})


@st.composite
def raw_xpolynomials(draw):
    """n <= 2 and unnormalized position lists, repeats allowed."""
    n = draw(st.integers(1, 2))
    positions = st.lists(st.integers(1, n * n), max_size=5)
    coeffs = st.builds(Fraction, st.integers(-10, 10), st.integers(1, 7))
    return n, draw(st.lists(st.tuples(positions, coeffs), max_size=6))


@given(raw_xpolynomials())
@settings(max_examples=200, deadline=None)
def test_xpoly_evaluate_matches_product_of_bits(drawn):
    n, raw = drawn
    p = XPolynomial(n, raw)
    for bits in itertools.product((0, 1), repeat=n * n):
        x = BoolAssignment(n, bits)
        expected = sum(c * prod(x.bit(pos) for pos in positions) for positions, c in raw)
        assert p.evaluate(x) == expected


def test_xpoly_evaluate():
    p = XPolynomial(2, {(1,): 1, (2, 3): Fraction(1, 2), (): -1})
    x = BoolAssignment(2, (1, 1, 1, 0))
    assert p.evaluate(x) == 1 + Fraction(1, 2) - 1
    with pytest.raises(ValueError):
        p.evaluate(BoolAssignment(3, (0,) * 9))


def test_xpoly_serialization_round_trip():
    p = XPolynomial(3, {(1, 5): Fraction(2, 7), (9,): -1, (): 3})
    d = p.to_dict()
    assert d["vars"] == "x" and d["n"] == 3
    assert XPolynomial.from_dict(d) == p
    with pytest.raises(ValueError):
        XPolynomial.from_dict({"vars": "y", "n": 2, "terms": []})


# ---------------------------------------------------------------------------
# substitution


def test_substitute_single_positions():
    p = XPolynomial(2, {(1,): 1})
    q = substitute(p)
    assert q.n == 2 and q.m == 2
    assert q.terms == {((1, 1),): Fraction(1)}
    p = XPolynomial(2, {(4,): 1})
    assert substitute(p).terms == {((2, 2),): Fraction(1)}


def test_substitute_annihilates_impossible_pairs():
    # positions 1 and 3 are y[1,1] and y[1,2]: same input, two outputs
    p = XPolynomial(2, {(1, 3): 1})
    assert substitute(p).terms == {}


def test_substitute_preserves_values_exhaustively():
    for n in (2, 3):
        positions = list(range(1, n * n + 1))
        rng = random.Random(1234 + n)
        for _ in range(50):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                size = rng.randint(0, 2)
                mono = tuple(rng.sample(positions, size))
                terms[mono] = terms.get(mono, 0) + Fraction(
                    rng.randint(-6, 6), rng.randint(1, 4)
                )
            p = XPolynomial(n, list(terms.items()))
            q = substitute(p)
            dq, dp = q.degree(), p.degree()
            assert dq is None or (dp is not None and dq <= dp)
            for f in FunctionTable.all(n, n):
                assert q.evaluate(f) == p.evaluate(f_to_assignment(f))


# ---------------------------------------------------------------------------
# the lower-bound chain


def test_degree_chain_values():
    chain = degree_chain(2, Fraction(1, 3))
    assert chain["n"] == 2
    assert chain["tree_variables"] == 4
    assert chain["one_to_one_degree"] == 2
    assert chain["andor_degree_lower_bound"] == 2
    assert chain["query_lower_bound"] == 1
    assert chain["eps"] == "1/3"


def test_degree_chain_n3():
    chain = degree_chain(3)
    assert chain["one_to_one_degree"] == 3
    assert chain["query_lower_bound"] == 2
