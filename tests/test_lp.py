"""Tests for the exact rational simplex solver."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdeg.lp import K_DEGENERATE, LinearProgram, Simplex, solve


def make_lp(num_vars, objective, free=None):
    return LinearProgram(
        num_vars=num_vars,
        objective=[Fraction(c) for c in objective],
        free=list(free) if free is not None else [False] * num_vars,
    )


def test_one_variable_lower_bound():
    lp = make_lp(1, [1])
    lp.add_row([1], ">=", 3)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.value == 3
    assert sol.x == [Fraction(3)]


def test_two_variable_cover():
    # min x + 2y  s.t.  x + y >= 1  ->  all weight on the cheap variable
    lp = make_lp(2, [1, 2])
    lp.add_row([1, 1], ">=", 1)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.value == 1
    assert sol.x == [Fraction(1), Fraction(0)]


def test_equality_row():
    lp = make_lp(2, [3, 1])
    lp.add_row([1, 1], "==", 4)
    sol = solve(lp)
    assert sol.value == 4
    assert sol.x == [Fraction(0), Fraction(4)]


def test_free_variable_can_go_negative():
    # min x with x free, x >= -5: the split representation must reach -5
    lp = make_lp(1, [1], free=[True])
    lp.add_row([1], ">=", -5)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.value == -5
    assert sol.x == [Fraction(-5)]


def test_free_variable_equality():
    # min |x| is not linear, but min u with u >= x, u >= -x, x == 7 is
    lp = make_lp(2, [0, 1], free=[True, False])
    lp.add_row([1, 0], "==", 7)
    lp.add_row([1, -1], "<=", 0)
    lp.add_row([-1, -1], "<=", 0)
    sol = solve(lp)
    assert sol.value == 7
    assert sol.x[0] == 7


def test_infeasible():
    lp = make_lp(1, [1])
    lp.add_row([1], ">=", 2)
    lp.add_row([1], "<=", 1)
    sol = solve(lp)
    assert sol.status == "infeasible"
    assert sol.value is None and sol.x is None


def test_unbounded():
    lp = make_lp(1, [-1])
    lp.add_row([1], ">=", 0)
    sol = solve(lp)
    assert sol.status == "unbounded"


def test_negative_rhs_reoriented():
    # -x <= -2 means x >= 2
    lp = make_lp(1, [1])
    lp.add_row([-1], "<=", -2)
    sol = solve(lp)
    assert sol.value == 2


def test_redundant_equality_rows_dropped():
    lp = make_lp(2, [1, 0])
    lp.add_row([1, 1], "==", 1)
    lp.add_row([1, 1], "==", 1)
    lp.add_row([1, -1], "==", 0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.value == Fraction(1, 2)
    assert sol.x == [Fraction(1, 2), Fraction(1, 2)]


def test_beale_cycling_instance_terminates():
    """Beale's classic degenerate instance cycles under Dantzig's rule;
    after K_DEGENERATE degenerate pivots Bland's rule takes over, and the
    run must terminate at the optimum."""
    lp = make_lp(4, [Fraction(-3, 4), 150, Fraction(-1, 50), 6])
    lp.add_row([Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0)
    lp.add_row([Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0)
    lp.add_row([0, 0, 1, 0], "<=", 1)
    simplex = Simplex()
    sol = solve(lp, simplex)
    assert simplex.pivots > K_DEGENERATE  # the fallback ran
    assert sol.status == "optimal"
    assert sol.value == Fraction(-1, 20)
    assert sol.x == [Fraction(1, 25), Fraction(0), Fraction(1), Fraction(0)]


def test_degenerate_instance_with_a_free_column():
    """Beale's instance with a free variable w in front (w >= -1): w enters
    decreasing at the degenerate start, ends basic at -1, and the run
    terminates at HiGHS's optimum."""
    lp = make_lp(
        5, [Fraction(1, 100), Fraction(-3, 4), 150, Fraction(-1, 50), 6], free=[True] + [False] * 4
    )
    lp.add_row([-1, Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0)
    lp.add_row([1, Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0)
    lp.add_row([0, 0, 0, 1, 0], "<=", 1)
    lp.add_row([1, 0, 0, 0, 0], ">=", -1)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.value == Fraction(-9, 100)
    assert sol.x == [Fraction(-1), Fraction(492, 25), Fraction(49, 500), Fraction(1), Fraction(0)]
    reference = scipy_solve(lp)
    assert reference.status == 0
    assert abs(float(sol.value) - reference.fun) < 1e-9


def test_solver_is_deterministic():
    lp = make_lp(3, [1, 1, 1])
    lp.add_row([1, 2, 3], ">=", 6)
    lp.add_row([3, 2, 1], ">=", 6)
    first = solve(lp)
    second = solve(lp)
    assert first == second


def test_add_row_keeps_ints():
    # the tableau takes ints without a Fraction; anything else is converted
    lp = make_lp(3, [1, 1, 1])
    lp.add_row([1, Fraction(1, 2), Fraction(4, 2)], "<=", 3)
    lp.add_row([-2, 0, True], ">=", Fraction(1, 3))
    assert [type(c) for c in lp.lhs[0]] == [int, Fraction, Fraction]
    assert [type(c) for c in lp.lhs[1]] == [int, int, Fraction]
    assert [type(v) for v in lp.rhs] == [int, Fraction]


def test_row_validation():
    lp = make_lp(2, [1, 1])
    with pytest.raises(ValueError):
        lp.add_row([1], ">=", 0)
    with pytest.raises(ValueError):
        lp.add_row([1, 1], ">", 0)
    with pytest.raises(ValueError):
        LinearProgram(num_vars=2, objective=[1], free=[False, False])


# ---------------------------------------------------------------------------
# warm solves of a program widened by columns


def first_columns(lp, k):
    narrow = make_lp(k, lp.objective[:k], lp.free[:k])
    for coeffs, rel, rhs in zip(lp.lhs, lp.rel, lp.rhs):
        narrow.add_row(coeffs[:k], rel, rhs)
    return narrow


def satisfies(lp, x):
    holds = {"<=": lambda a, b: a <= b, ">=": lambda a, b: a >= b, "==": lambda a, b: a == b}
    return all(v >= 0 for v, f in zip(x, lp.free) if not f) and all(
        holds[rel](sum(c * v for c, v in zip(coeffs, x)), rhs)
        for coeffs, rel, rhs in zip(lp.lhs, lp.rel, lp.rhs)
    )


def check_integer_tableau(simplex):
    # every row over a positive denominator in lowest terms, and each basic
    # column's entry in its own row equal to that denominator
    rows = [*zip(simplex.rows, simplex.dens), (simplex.costrow, simplex.costden)]
    for row, den in rows:
        assert all(type(v) is int for v in row)
        assert den > 0 and gcd(den, *row) == 1
    for row, den, bv in zip(simplex.rows, simplex.dens, simplex.basis):
        assert row[bv] == den


def check_warm_against_cold(lp, widths):
    simplex = Simplex()
    for k in widths:
        narrow = first_columns(lp, k)
        warm = solve(narrow, simplex)
        check_integer_tableau(simplex)
        cold = solve(narrow)
        assert (warm.status, warm.value) == (cold.status, cold.value)
        if warm.status == "optimal":
            assert satisfies(narrow, warm.x)
            assert sum(c * v for c, v in zip(narrow.objective, warm.x)) == warm.value


# ints, and Fractions that make the tableau scale a column to ints
INTS_AND_FRACTIONS = st.integers(-3, 3) | st.builds(
    Fraction, st.integers(-12, 12), st.integers(1, 4)
)


@st.composite
def widened_programs(draw, small=st.integers(-3, 3)):
    widths = [draw(st.integers(1, 3))]
    for extra in draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)):
        widths.append(widths[-1] + extra)
    num_vars = widths[-1]
    lp = make_lp(
        num_vars,
        draw(st.lists(st.integers(-2, 2), min_size=num_vars, max_size=num_vars)),
        draw(st.lists(st.booleans(), min_size=num_vars, max_size=num_vars)),
    )
    for _ in range(draw(st.integers(1, 4))):
        lp.add_row(
            draw(st.lists(small, min_size=num_vars, max_size=num_vars)),
            draw(st.sampled_from(["<=", ">=", "=="])),
            draw(small),
        )
    return lp, widths


@settings(max_examples=300, deadline=None)
@given(widened_programs(INTS_AND_FRACTIONS))
def test_warm_solves_match_cold_solves(case):
    check_warm_against_cold(*case)


def reference_status(lp):
    """HiGHS's verdict in this solver's terms.  Presolve is off: with it,
    HiGHS 1.12 calls some unbounded programs (min x1 - x2 with x0 - x2 <= 1,
    x0 + x1 - x2 >= 0) infeasible."""
    result = scipy_solve(lp, presolve=False)
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(result.status)
    assert status is not None, result.message
    return status, result.fun


@settings(max_examples=300, deadline=None)
@given(widened_programs())
def test_solves_match_highs(case):
    # an independent reference for the free-column rule: every prefix of the
    # program, warm and cold, against scipy's HiGHS
    lp, widths = case
    simplex = Simplex()
    for k in widths:
        narrow = first_columns(lp, k)
        status, value = reference_status(narrow)
        for exact in (solve(narrow, simplex), solve(narrow)):
            assert exact.status == status
            if status == "optimal":
                assert abs(float(exact.value) - value) < 1e-9


def test_warm_solve_through_a_redundant_row():
    # the repeated row keeps its artificial basic at 0 after phase 1; the
    # third column gives that row a nonzero, so the artificial must leave
    # (z = 0 is forced, which an artificial left in the basis would miss)
    lp = make_lp(3, [1, 0, -1])
    lp.add_row([1, 1, 0], "==", 1)
    lp.add_row([1, 1, -1], "==", 1)
    lp.add_row([1, -1, 0], ">=", 0)
    simplex = Simplex()
    solve(first_columns(lp, 2), simplex)
    warm = solve(lp, simplex)
    assert warm == solve(lp)
    assert warm.x == [Fraction(1, 2), Fraction(1, 2), Fraction(0)]


def test_warm_solve_needs_the_previous_rows():
    lp = make_lp(1, [1])
    lp.add_row([1], ">=", 2)
    simplex = Simplex()
    solve(lp, simplex)
    other = make_lp(2, [1, 0])
    other.add_row([1, 1], ">=", 3)
    with pytest.raises(ValueError):
        solve(other, simplex)


# ---------------------------------------------------------------------------
# float cross-check on the instances this package actually produces


def scipy_solve(lp: LinearProgram, presolve: bool = True):
    import numpy as np
    from scipy.optimize import linprog

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, rel, rhs in zip(lp.lhs, lp.rel, lp.rhs):
        row = [float(c) for c in coeffs]
        if rel == "<=":
            a_ub.append(row)
            b_ub.append(float(rhs))
        elif rel == ">=":
            a_ub.append([-c for c in row])
            b_ub.append(-float(rhs))
        else:
            a_eq.append(row)
            b_eq.append(float(rhs))
    bounds = [(None, None) if f else (0, None) for f in lp.free]
    return linprog(
        np.array([float(c) for c in lp.objective]),
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
        options={"presolve": presolve},
    )


def test_degree_instances_match_scipy():
    from symdeg.degreelp import build_lp
    from symdeg.properties import COLLISION, ELEMENT_DISTINCTNESS

    for prop, n, m in [
        (ELEMENT_DISTINCTNESS, 2, 2),
        (ELEMENT_DISTINCTNESS, 3, 3),
        (COLLISION, 2, 3),
        (COLLISION, 4, 4),
    ]:
        for degree in range(0, 3):
            lp = build_lp(prop, n, m, degree).program
            exact = solve(lp)
            assert exact.status == "optimal"
            approx = scipy_solve(lp)
            assert approx.status == 0
            assert abs(float(exact.value) - approx.fun) < 1e-9
