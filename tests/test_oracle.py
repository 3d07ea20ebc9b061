"""Tests for the brute-force verification oracle."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from symdeg.budget import BudgetExceededError, check_grid_budget
from symdeg.degreelp import approx_degree, sweep
from symdeg.oracle import (
    Report,
    Violation,
    bounds_for,
    class_indices,
    enumerate_functions,
    verify_approximation,
)
from symdeg.properties import (
    ALWAYS_ONE,
    COLLISION,
    ELEMENT_DISTINCTNESS,
    MODIFIED_ELEMENT_DISTINCTNESS,
    Label,
    PropertySpec,
    enumerate_classes,
    property_from_dict,
)
from symdeg.symmetrize import desymmetrize
from symdeg.sympoly import FrequencyVector, SymPolynomial, partitions
from symdeg.ypoly import FunctionTable, YPolynomial
from test_sympoly import direct_msym_value

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


def test_grid_budget_refuses_by_bit_length(monkeypatch):
    # a budget of 20 bits: n * (bits(m) - 1) >= 20 is refused as "m**n",
    # anything smaller is counted exactly
    monkeypatch.setenv("SYMDEG_BUDGET", str(2**20 - 1))
    check_grid_budget(19, 2)
    check_grid_budget(10**9, 1)
    with pytest.raises(BudgetExceededError) as info:
        check_grid_budget(20, 2)
    assert info.value.required == "2**20"
    with pytest.raises(BudgetExceededError) as info:
        check_grid_budget(13, 3)
    assert info.value.required == 3**13


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


def per_class_report(q, prop, n, eps):
    """The class route written out class by class: classify each class and
    sum its terms, each m_lambda from `direct_msym_value`, which lists the
    monomials one by one and never calls `msym_columns`."""
    violations, table = [], []
    for lam in partitions(n, max_parts=q.m):
        z = FrequencyVector(q.m, lam)
        label = prop.classify(z)
        value = sum((c * direct_msym_value(mu, z.counts()) for mu, c in q.terms.items()), Fraction(0))
        lower, upper = bounds_for(label, eps)
        ok = lower <= value <= upper
        table.append(
            {"kind": "class", "where": list(lam), "label": label.value, "value": str(value), "ok": ok}
        )
        if not ok:
            violations.append(Violation("class", lam, label, value, lower, upper))
    return Report(not violations, tuple(violations), tuple(table))


# (polynomial, n): the zero and a constant polynomial, a term with more
# parts than n where m > n, and m < n (under a labeling that allows it)
EDGE_SYM_POLYNOMIALS = [
    (SymPolynomial.zero(3), 3),
    (SymPolynomial.constant(4, Fraction(1, 5)), 3),
    (SymPolynomial(6, {(1, 1, 1, 1): 7, (1, 1): Fraction(1, 6), (): Fraction(-1, 3)}), 3),
    (SymPolynomial(2, {(2,): Fraction(1, 9), (1, 1): Fraction(-2, 5), (): Fraction(1, 2)}), 4),
    (SymPolynomial(1, {(3,): Fraction(1, 27), (1,): 1}), 3),
]


def test_class_route_matches_the_per_class_reference():
    rng = random.Random(1969)
    polys = []
    for _ in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(1, 7)
        raw = [
            (
                sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 4))), reverse=True),
                Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
            )
            for _ in range(rng.randint(0, 6))
        ]
        polys.append((SymPolynomial(m, raw), n))
    failing = checked = 0
    for q, n in polys + EDGE_SYM_POLYNOMIALS:
        props = [ELEMENT_DISTINCTNESS, MODIFIED_ELEMENT_DISTINCTNESS, COLLISION, random_labels(rng, n)]
        for prop in props:
            if prop.requires_m_ge_n and q.m < n:
                continue
            report = verify_approximation(q, prop, n, q.m, THIRD)
            expected = per_class_report(q, prop, n, THIRD)
            assert report.to_dict() == expected.to_dict()
            assert report.violations == expected.violations
            failing += not report.passed
            checked += 1
    assert checked > 100 and 0 < failing < checked


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


def test_indicator_route_checks_the_budget_first(monkeypatch):
    # 3**3 = 27 functions over a budget of 20: refused before the walk runs
    def no_walk(self):
        raise AssertionError("the polynomial was evaluated past the budget")

    monkeypatch.setenv("SYMDEG_BUDGET", "20")
    monkeypatch.setattr(YPolynomial, "numerators", no_walk)
    with pytest.raises(BudgetExceededError) as info:
        verify_approximation(YPolynomial.constant(3, 3, 1), ELEMENT_DISTINCTNESS, 3, 3, THIRD)
    assert (info.value.required, info.value.budget) == (27, 20)
    # within the budget, verify does run the walk that was replaced
    monkeypatch.setenv("SYMDEG_BUDGET", "27")
    with pytest.raises(AssertionError, match="evaluated past the budget"):
        verify_approximation(YPolynomial.constant(3, 3, 1), ELEMENT_DISTINCTNESS, 3, 3, THIRD)


def per_function_report(p, prop, eps):
    """The indicator route written out point by point: classify and
    evaluate every function on its own."""
    violations, table = [], []
    for f in FunctionTable.all(p.n, p.m):
        label = prop.classify(FrequencyVector.of_function(f))
        value = p.evaluate(f)
        lower, upper = bounds_for(label, eps)
        ok = lower <= value <= upper
        table.append(
            {"kind": "function", "where": list(f.values), "label": label.value,
             "value": str(value), "ok": ok}
        )
        if not ok:
            violations.append(Violation("function", f.values, label, value, lower, upper))
    return Report(not violations, tuple(violations), tuple(table))


def random_labels(rng, n):
    """A property over n given by a class table with random labels."""
    labels = [label.value for label in Label]
    classes = [{"partition": list(lam), "label": rng.choice(labels)} for lam in partitions(n)]
    return property_from_dict({"n": n, "classes": classes}, name="random")


EDGE_POLYNOMIALS = [
    YPolynomial.zero(1, 1),
    YPolynomial.constant(1, 1, Fraction(2, 3)),
    YPolynomial(1, 4, {((1, 2),): Fraction(1, 2), (): Fraction(1, 3)}),
    YPolynomial(3, 1, {((2, 1),): Fraction(1, 4), (): Fraction(-1, 2)}),  # m = 1
    YPolynomial.zero(3, 4),
    # one value everywhere: it passes on the Zero classes and fails on the One class
    YPolynomial.constant(3, 4, Fraction(1, 5)),
    # no term has a factor at row n
    YPolynomial(4, 4, {((1, 2), (3, 1)): Fraction(2, 3), ((2, 4),): Fraction(-1, 6), (): Fraction(1, 2)}),
]


def test_indicator_route_matches_the_per_function_reference():
    rng = random.Random(2003)
    polys = []
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(n, 5)
        raw = [
            (
                [(i, rng.randint(1, m)) for i in rng.sample(range(1, n + 1), rng.randint(0, n))],
                Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
            )
            for _ in range(rng.randint(0, 8))
        ]
        polys.append(YPolynomial(n, m, raw))
    failing = 0
    for p in polys + EDGE_POLYNOMIALS:
        props = [ELEMENT_DISTINCTNESS, MODIFIED_ELEMENT_DISTINCTNESS, COLLISION, random_labels(rng, p.n)]
        for prop in props:
            if prop.requires_m_ge_n and p.m < p.n:
                continue
            report = verify_approximation(p, prop, p.n, p.m, THIRD)
            expected = per_function_report(p, prop, THIRD)
            assert report.to_dict() == expected.to_dict()
            assert report.violations == expected.violations
            assert report == expected
            failing += not report.passed
    assert failing > 100  # most of the 181 reports carry violations
    shared = verify_approximation(EDGE_POLYNOMIALS[5], ELEMENT_DISTINCTNESS, 3, 4, THIRD)
    assert {(row["label"], row["value"], row["ok"]) for row in shared.table} == {
        ("Zero", "1/5", True), ("One", "1/5", False),
    }


@pytest.mark.parametrize(
    "p, prop",
    [(YPolynomial.zero(3, 4), ELEMENT_DISTINCTNESS), (YPolynomial.constant(3, 4, 1), ALWAYS_ONE)],
    ids=["failing", "passing"],
)
def test_report_builds_its_table_when_first_read(p, prop):
    # the verdict and the violations are read without building the rows;
    # the first read of the table builds all m**n of them, once
    report = verify_approximation(p, prop, 3, 4, THIRD)
    expected = per_function_report(p, prop, THIRD)
    assert (report.passed, report.violations) == (expected.passed, expected.violations)
    assert type(report._table) is not tuple
    assert len(report.table) == 4**3
    assert report.table is report.table
    assert report == expected and report.to_dict() == expected.to_dict()


def test_indicator_route_classifies_each_class_once():
    seen = []

    def rule(z):
        seen.append(z)
        return ELEMENT_DISTINCTNESS.classify(z)

    counting = PropertySpec("counting", rule)
    report = verify_approximation(YPolynomial.constant(3, 4, 1), counting, 3, 4, THIRD)
    assert len(report.table) == 64
    # 64 functions, 3 classes, each classified when first met in lexicographic order
    assert [z.parts for z in seen] == [(3,), (2, 1), (1, 1, 1)]
    assert all(z.m == 4 for z in seen)


def test_indicator_route_at_n_16_with_two_values():
    # 2**16 functions, inside the default budget; the walk keeps one node
    # per row, far from a table over all (m+1)**n = 3**16 partial points
    p = YPolynomial(16, 2, {((1, 1), (5, 2)): 1, ((3, 2),): Fraction(1, 3), (): Fraction(-1, 7)})
    balance = property_from_dict(
        {"n": 16, "classes": [
            {"partition": [16 - k, k] if k else [16],
             "label": "One" if k >= 6 else "Zero" if k <= 2 else "Undefined"}
            for k in range(9)
        ]},
        name="balance",
    )
    parts = [lam for lam, _ in enumerate_classes(balance, 16, 2)]
    tracemalloc.start()
    try:
        den, sums = p.numerators()
        ids = class_indices(16, 2, parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sums) == len(ids) == 2**16
    assert peak < 8 * 2**20
    assert [parts[k] for k in ids[:3]] == [(16,), (15, 1), (15, 1)]
    report = verify_approximation(p, balance, 16, 2, THIRD)
    assert len(report.table) == 2**16
    assert [row["value"] for row in report.table] == [str(Fraction(s, den)) for s in sums]
    assert report.table[0] == {
        "kind": "function", "where": [1] * 16, "label": "Zero", "value": "-1/7", "ok": False,
    }
    assert len(report.violations) == sum(not row["ok"] for row in report.table) > 0


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
