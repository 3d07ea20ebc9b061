"""Tests for the brute-force verification oracle."""

from fractions import Fraction

import pytest

from symdeg.budget import BudgetExceededError
from symdeg.degreelp import approx_degree, sweep
from symdeg.oracle import (
    Report,
    bounds_for,
    enumerate_functions,
    verify_approximation,
)
from symdeg.properties import (
    ALWAYS_ONE,
    COLLISION,
    ELEMENT_DISTINCTNESS,
    Label,
)
from symdeg.symmetrize import desymmetrize
from symdeg.sympoly import SymPolynomial
from symdeg.ypoly import YPolynomial

THIRD = Fraction(1, 3)


# ---------------------------------------------------------------------------
# enumeration and bounds


def test_enumerate_functions_counts_and_order():
    fs = list(enumerate_functions(3, 2))
    assert len(fs) == 8
    assert fs[0].values == (1, 1, 1)
    assert fs[-1].values == (2, 2, 2)
    values = [f.values for f in fs]
    assert values == sorted(values)


def test_enumerate_functions_budget(monkeypatch):
    monkeypatch.setenv("SYMDEG_BUDGET", "80")
    with pytest.raises(BudgetExceededError) as info:
        list(enumerate_functions(4, 3))
    assert info.value.required == 81
    with pytest.raises(ValueError):
        list(enumerate_functions(0, 2))


def test_bounds_for_labels():
    assert bounds_for(Label.ONE, THIRD) == (Fraction(2, 3), Fraction(1))
    assert bounds_for(Label.ZERO, THIRD) == (Fraction(0), THIRD)
    assert bounds_for(Label.UNDEFINED, THIRD) == (Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# the symmetric route


def test_msym_one_one_approximates_ed_2_2():
    q = SymPolynomial(2, {(1, 1): 1})
    report = verify_approximation(q, ELEMENT_DISTINCTNESS, 2, 2, THIRD)
    assert report.passed
    assert report.violations == ()
    assert [entry["kind"] for entry in report.table] == ["class", "class"]


def test_constant_half_fails_both_sides():
    q = SymPolynomial.constant(2, Fraction(1, 2))
    report = verify_approximation(q, ELEMENT_DISTINCTNESS, 2, 2, THIRD)
    assert not report.passed
    assert len(report.violations) == 2
    kinds = {(v.label, v.value) for v in report.violations}
    assert kinds == {
        (Label.ZERO, Fraction(1, 2)),
        (Label.ONE, Fraction(1, 2)),
    }


def test_eps_half_is_rejected():
    # the verifier takes eps from [0, 1/2), like the degree search and the CLI
    q = SymPolynomial.constant(2, Fraction(1, 2))
    with pytest.raises(ValueError, match=r"\[0, 1/2\)"):
        verify_approximation(q, ELEMENT_DISTINCTNESS, 2, 2, Fraction(1, 2))


def test_sym_route_argument_validation():
    q = SymPolynomial(2, {(1, 1): 1})
    with pytest.raises(ValueError):
        verify_approximation(q, ELEMENT_DISTINCTNESS, 2, 3, THIRD)
    with pytest.raises(ValueError):
        verify_approximation(q, ELEMENT_DISTINCTNESS, 2, 2, 1)
    with pytest.raises(TypeError):
        verify_approximation("nope", ELEMENT_DISTINCTNESS, 2, 2, THIRD)


# ---------------------------------------------------------------------------
# the indicator route


def test_indicator_route_checks_functions_only():
    # y11 + y12 equals 1 on both functions over the 1x2 grid; the assignment
    # that sets both indicators at once is no function and is never visited
    p = YPolynomial(1, 2, {((1, 1),): 1, ((1, 2),): 1})
    report = verify_approximation(p, ALWAYS_ONE, 1, 2, 0)
    assert report.passed
    assert len(report.table) == 2


def test_indicator_route_finds_violations():
    p = YPolynomial.zero(2, 2)
    report = verify_approximation(p, ELEMENT_DISTINCTNESS, 2, 2, THIRD)
    assert not report.passed
    bad = {v.where for v in report.violations}
    assert bad == {(1, 2), (2, 1)}  # the two one-to-one functions
    assert all(v.kind == "function" for v in report.violations)


def test_indicator_route_dimension_check():
    p = YPolynomial.zero(2, 3)
    with pytest.raises(ValueError):
        verify_approximation(p, ELEMENT_DISTINCTNESS, 2, 2, THIRD)


def test_indicator_route_budget(monkeypatch):
    monkeypatch.setenv("SYMDEG_BUDGET", "26")
    p = YPolynomial.zero(3, 3)
    with pytest.raises(BudgetExceededError):
        verify_approximation(p, ELEMENT_DISTINCTNESS, 3, 3, THIRD)


def test_routes_agree_through_desymmetrize():
    for prop, n, m in [
        (ELEMENT_DISTINCTNESS, 2, 2),
        (ELEMENT_DISTINCTNESS, 3, 3),
        (COLLISION, 2, 3),
        (COLLISION, 4, 4),
    ]:
        q = approx_degree(prop, n, m, THIRD).optimal_polynomial()
        class_report = verify_approximation(q, prop, n, m, THIRD)
        function_report = verify_approximation(desymmetrize(q, n), prop, n, m, THIRD)
        assert class_report.passed and function_report.passed
    # and a failing polynomial fails through both routes
    q = SymPolynomial.constant(2, 10)
    assert not verify_approximation(q, ELEMENT_DISTINCTNESS, 2, 2, THIRD).passed
    assert not verify_approximation(
        desymmetrize(q, 2), ELEMENT_DISTINCTNESS, 2, 2, THIRD
    ).passed


# ---------------------------------------------------------------------------
# report serialization


def test_report_to_dict_shape():
    q = SymPolynomial.constant(2, Fraction(1, 2))
    report = verify_approximation(q, ELEMENT_DISTINCTNESS, 2, 2, THIRD)
    data = report.to_dict()
    assert set(data) == {"pass", "violations", "table"}
    assert data["pass"] is False
    violation = data["violations"][0]
    assert set(violation) == {"kind", "where", "label", "value", "lower", "upper"}
    assert violation["value"] == "1/2"


# ---------------------------------------------------------------------------
# range invariance


def test_range_invariance_ed():
    certs = sweep(ELEMENT_DISTINCTNESS, 2, range(2, 5), THIRD)
    assert [cert.m for cert in certs] == [2, 3, 4]
    assert all(cert.degree == 2 for cert in certs)
    # the polynomial found once for m = n must pass the oracle at every m
    for cert in certs:
        poly = cert.optimal_polynomial()
        assert verify_approximation(poly, ELEMENT_DISTINCTNESS, 2, cert.m, THIRD).passed


def test_range_invariance_report_serializes():
    certs = sweep(COLLISION, 2, [2, 3], THIRD)
    data = [cert.to_dict() for cert in certs]
    assert [entry["m"] for entry in data] == [2, 3]
    assert [entry["degree"] for entry in data] == [2, 2]
    for cert in certs:
        report = verify_approximation(cert.optimal_polynomial(), COLLISION, 2, cert.m, THIRD)
        assert report.to_dict()["pass"] is True
