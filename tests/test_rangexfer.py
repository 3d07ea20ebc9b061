"""Tests for range restriction, extension, and the transfer pipeline."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdeg.degreelp import approx_degree
from symdeg.oracle import verify_approximation
from symdeg.properties import COLLISION, ELEMENT_DISTINCTNESS
from symdeg.rangexfer import extend, restrict, transfer_approximation
from symdeg.symmetrize import desymmetrize
from symdeg.sympoly import FrequencyVector, SymPolynomial, partitions

THIRD = Fraction(1, 3)


# ---------------------------------------------------------------------------
# restrict and extend


def test_extend_keeps_coefficients():
    q = SymPolynomial(2, {(2, 1): 1, (1,): Fraction(-1, 2)})
    wide = extend(q, 4)
    assert wide.m == 4
    assert wide.terms == q.terms


def test_extend_same_size_is_identity():
    q = SymPolynomial(2, {(1, 1): 1})
    assert extend(q, 2) == q


def test_restrict_drops_long_partitions():
    q = SymPolynomial(4, {(1, 1, 1): 1, (2,): 5})
    narrow = restrict(q, 2)
    assert narrow.m == 2
    assert narrow.terms == {(2,): Fraction(5)}


def test_restrict_rejects_bad_targets():
    q = SymPolynomial(3, {(1,): 1})
    with pytest.raises(ValueError):
        restrict(q, 0)
    with pytest.raises(ValueError):
        restrict(q, 4)
    with pytest.raises(ValueError):
        extend(q, 2)


partition_pool = [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2)]


@given(
    st.dictionaries(
        st.sampled_from(partition_pool),
        st.fractions(min_value=-5, max_value=5, max_denominator=16),
        max_size=5,
    ),
    st.integers(0, 3),
)
@settings(max_examples=60)
def test_round_trip_is_exact_identity(coeffs, extra):
    q = SymPolynomial(3, coeffs)
    assert restrict(extend(q, 3 + extra), 3) == q


def test_extension_preserves_values_on_narrow_classes():
    # on classes whose nonzero counts fit in the original range, the
    # extended polynomial takes the very same values
    q = SymPolynomial(2, {(2,): 1, (1, 1): Fraction(1, 3), (): 2})
    wide = extend(q, 5)
    for n in range(1, 5):
        for lam in partitions(n, max_parts=2):
            assert wide.evaluate(FrequencyVector(5, lam)) == q.evaluate(
                FrequencyVector(2, lam)
            )


def test_restriction_changes_nothing_within_reach():
    q = SymPolynomial(4, {(2, 1): 1, (1, 1, 1): 4})
    narrow = restrict(q, 3)
    assert narrow.terms == q.terms  # all partitions fit in 3 variables
    assert restrict(q, 2).terms == {(2, 1): Fraction(1)}


# ---------------------------------------------------------------------------
# the transfer pipeline


def test_transfer_verifies_ed_witness():
    cert = approx_degree(ELEMENT_DISTINCTNESS, 2, 2, THIRD)
    p = desymmetrize(cert.optimal_polynomial(), 2)
    result = transfer_approximation(p, ELEMENT_DISTINCTNESS, 4, THIRD)
    assert result.status == "verified"
    assert result.report is not None and result.report.passed
    assert result.poly.m == 4 and result.poly.n == 2
    degree = result.poly.degree()
    assert degree is not None and degree <= cert.degree
    # and the result actually approximates on the wider range
    assert verify_approximation(
        result.poly, ELEMENT_DISTINCTNESS, 2, 4, THIRD
    ).passed


def test_transfer_verifies_collision_witness():
    cert = approx_degree(COLLISION, 4, 4, THIRD)
    p = desymmetrize(cert.optimal_polynomial(), 4)
    result = transfer_approximation(p, COLLISION, 5, THIRD)
    assert result.status == "verified"


def test_transfer_flags_bad_input():
    from symdeg.ypoly import YPolynomial

    result = transfer_approximation(
        YPolynomial.zero(2, 2), ELEMENT_DISTINCTNESS, 3, THIRD
    )
    assert result.status == "failed"
    assert result.report is not None and not result.report.passed


def test_transfer_reports_unchecked_when_over_budget(monkeypatch):
    monkeypatch.setenv("SYMDEG_BUDGET", "3")
    cert = approx_degree(ELEMENT_DISTINCTNESS, 2, 2, THIRD)
    p = desymmetrize(cert.optimal_polynomial(), 2)
    result = transfer_approximation(p, ELEMENT_DISTINCTNESS, 5, THIRD)
    assert result.status == "unchecked"
    assert result.report is None
    assert result.poly.m == 5  # the polynomial is still produced


def test_transfer_requires_square_start():
    from symdeg.ypoly import YPolynomial

    with pytest.raises(ValueError):
        transfer_approximation(YPolynomial.zero(2, 3), ELEMENT_DISTINCTNESS, 4, THIRD)
