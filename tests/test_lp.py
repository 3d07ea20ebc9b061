"""Tests for the exact rational simplex solver."""

from fractions import Fraction
from math import gcd
from unittest.mock import patch

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
    # min x for a free x with the lower bound -x <= 3
    lp = make_lp(1, [1], free=[True])
    lp.add_row([-1], "<=", 3)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.value == -3
    assert sol.x == [Fraction(-3)]


def test_two_variable_cover():
    # max x + 2y  s.t.  x + y <= 1  ->  all weight on the better variable
    lp = make_lp(2, [-1, -2])
    lp.add_row([1, 1], "<=", 1)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.value == -2
    assert sol.x == [Fraction(0), Fraction(1)]


def test_free_variable_can_go_negative():
    # min x with x free, x >= -5: the split representation must reach -5
    lp = make_lp(1, [1], free=[True])
    lp.add_row([1], ">=", -5)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.value == -5
    assert sol.x == [Fraction(-5)]


def test_unbounded():
    lp = make_lp(1, [-1])
    lp.add_row([1], ">=", 0)
    sol = solve(lp)
    assert sol.status == "unbounded"


def test_negative_rhs_reoriented():
    # a >= row with a right-hand side <= 0 is negated into a <= row:
    # -x >= -2 means x <= 2
    lp = make_lp(1, [-1])
    lp.add_row([-1], ">=", -2)
    sol = solve(lp)
    assert sol.value == -2
    assert sol.x == [Fraction(2)]


def test_origin_must_be_feasible():
    # the start is the slack basis at the origin; a program that the origin
    # does not satisfy is refused before anything is pivoted
    for rel, rhs in ((">=", 1), ("<=", Fraction(-1, 2))):
        lp = make_lp(2, [1, 1])
        lp.add_row([1, 0], "<=", 1)
        lp.add_row([1, 1], rel, rhs)
        simplex = Simplex()
        with pytest.raises(ValueError, match="origin"):
            solve(lp, simplex)
        assert simplex.pivots == 0 and simplex.program is None


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
    terminates at the reference's optimum."""
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
    assert reference_solve(lp) == ("optimal", sol.value)


def test_solver_is_deterministic():
    lp = make_lp(3, [-1, -1, -1])
    lp.add_row([1, 2, 3], "<=", 6)
    lp.add_row([3, 2, 1], "<=", 6)
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
        lp.add_row([1, 1], "==", 0)
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
    holds = {"<=": lambda a, b: a <= b, ">=": lambda a, b: a >= b}
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


# pivots allowed in one check_prefixes call, over its (at most 8) warm and
# cold solves.  The most measured over both strategies' 600 examples was 17
# (22 over 3000); the cap also leaves room for every solve to stall for
# K_DEGENERATE degenerate pivots before Bland's rule takes over.
PIVOT_CAP = 500


def check_prefixes(lp, widths):
    # every prefix of the program, warm and cold, against the exact
    # reference below: the same verdict and the same optimum.  A solver
    # that cycles fails at the pivot cap instead of running forever.
    pivots = 0
    pivot = Simplex._pivot

    def capped(self, r, col):
        nonlocal pivots
        pivots += 1
        assert pivots <= PIVOT_CAP, f"more than {PIVOT_CAP} pivots: the solver cycles"
        pivot(self, r, col)

    with patch.object(Simplex, "_pivot", capped):
        simplex = Simplex()
        for k in widths:
            narrow = first_columns(lp, k)
            warm = solve(narrow, simplex)
            check_integer_tableau(simplex)
            cold = solve(narrow)
            assert (warm.status, warm.value) == (cold.status, cold.value) == reference_solve(narrow)
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
    # every row holds at the origin: rhs >= 0 on a <= row, <= 0 on a >= row
    for _ in range(draw(st.integers(1, 4))):
        coeffs = draw(st.lists(small, min_size=num_vars, max_size=num_vars))
        rel = draw(st.sampled_from(["<=", ">="]))
        rhs = abs(draw(small))
        lp.add_row(coeffs, rel, rhs if rel == "<=" else -rhs)
    return lp, widths


@settings(max_examples=300, deadline=None)
@given(widened_programs(INTS_AND_FRACTIONS))
def test_warm_solves_match_cold_solves(case):
    check_prefixes(*case)


@settings(max_examples=300, deadline=None)
@given(widened_programs())
def test_solves_match_reference(case):
    # small ints, where ties and degenerate pivots are common
    check_prefixes(*case)


def test_warm_solve_needs_the_previous_rows():
    lp = make_lp(1, [1])
    lp.add_row([1], "<=", 2)
    simplex = Simplex()
    solve(lp, simplex)
    other = make_lp(2, [1, 0])
    other.add_row([1, 1], "<=", 3)
    with pytest.raises(ValueError):
        solve(other, simplex)


# ---------------------------------------------------------------------------
# an exact reference that shares no code with symdeg.lp


def reference_solve(lp):
    """(status, optimum) of a program whose origin is feasible, by a dense
    Fraction tableau: a free variable is split into a +/- pair of columns,
    a >= row is negated, and Bland's rule alone pivots from the slack
    basis (the first column with a negative reduced cost enters, the
    smallest ratio leaves, ties to the smallest basic column), so the
    reference cannot cycle."""
    columns = [(j, s) for j, free in enumerate(lp.free) for s in ((1, -1) if free else (1,))]
    num_rows = len(lp.lhs)
    tableau = []
    for i, (coeffs, rel, rhs) in enumerate(zip(lp.lhs, lp.rel, lp.rhs)):
        t = 1 if rel == "<=" else -1
        assert t * rhs >= 0, "the reference starts at the origin"
        row = [Fraction(t * s * coeffs[j]) for j, s in columns]
        tableau.append(row + [Fraction(int(i == r)) for r in range(num_rows)] + [Fraction(t * rhs)])
    # reduced costs, minus the objective's value last
    reduced = [Fraction(s * lp.objective[j]) for j, s in columns] + [Fraction(0)] * (num_rows + 1)
    basis = [len(columns) + r for r in range(num_rows)]
    while True:
        entering = next((j for j, c in enumerate(reduced[:-1]) if c < 0), None)
        if entering is None:
            return "optimal", -reduced[-1]
        candidates = [
            (row[-1] / row[entering], basis[r], r) for r, row in enumerate(tableau) if row[entering] > 0
        ]
        if not candidates:
            return "unbounded", None
        _, _, leaving = min(candidates)
        pivot_row = tableau[leaving]
        pivot_row[:] = [v / pivot_row[entering] for v in pivot_row]
        for row in tableau + [reduced]:
            if row is not pivot_row and row[entering]:
                f = row[entering]
                row[:] = [v - f * w for v, w in zip(row, pivot_row)]
        basis[leaving] = entering


def moved_to(lp, x0):
    """lp posed in x' = x - x0 for a feasible point x0, so that its origin
    is feasible: a sign-constrained variable with x0_j > 0 becomes free,
    with the row -x'_j <= x0_j."""
    moved = make_lp(lp.num_vars, lp.objective, [f or v != 0 for f, v in zip(lp.free, x0)])
    for j, v in enumerate(x0):
        if v and not lp.free[j]:
            moved.add_row([-int(i == j) for i in range(lp.num_vars)], "<=", v)
    for coeffs, rel, rhs in zip(lp.lhs, lp.rel, lp.rhs):
        moved.add_row(coeffs, rel, rhs - sum(a * v for a, v in zip(coeffs, x0)))
    return moved


def test_reference_on_known_optima():
    # the reference itself, on programs whose optimum is known by hand
    assert reference_solve(make_lp(1, [1], free=[True])) == ("unbounded", None)
    lp = make_lp(2, [-1, -2])
    lp.add_row([1, 1], "<=", 1)
    lp.add_row([-1, 1], ">=", -3)
    assert reference_solve(lp) == ("optimal", -2)
    lp = make_lp(2, [1, -1], free=[True, False])
    lp.add_row([1, 0], ">=", Fraction(-5, 2))
    lp.add_row([-1, 1], "<=", 0)
    assert reference_solve(lp) == ("optimal", 0)


def test_degree_instances_match_reference():
    # the degree LPs, moved to their feasible point eps = 1/2 with the
    # constant 1/2, against the exact reference
    from symdeg.degreelp import build_lp, solve_lp
    from symdeg.properties import COLLISION, ELEMENT_DISTINCTNESS

    for prop, n, m in [
        (ELEMENT_DISTINCTNESS, 2, 2),
        (ELEMENT_DISTINCTNESS, 3, 3),
        (COLLISION, 2, 3),
        (COLLISION, 4, 4),
    ]:
        for degree in range(0, 3):
            inst = build_lp(prop, n, m, degree)
            half = Fraction(1, 2)
            moved = moved_to(inst.program, [half, half] + [0] * (inst.program.num_vars - 2))
            status, value = reference_solve(moved)
            assert status == "optimal"
            assert solve(moved).value == value
            assert solve_lp(inst)[0] == value + half
