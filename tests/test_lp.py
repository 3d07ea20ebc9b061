"""Tests for the exact simplex solver: integer programs, rational optima."""

from fractions import Fraction
from math import lcm
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdeg.lp import K_DEGENERATE, LinearProgram, Simplex, solve


def make_lp(num_vars, objective, free=None):
    return LinearProgram(
        num_vars=num_vars,
        objective=list(objective),
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
    for rel, rhs in ((">=", 1), ("<=", -1)):
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
    run must terminate at the optimum.

    The objective and the first two rows are Beale's times 100, which makes
    them integer.  Scaling a row by 100 also divides its slack column's
    reduced cost by 100, and then Dantzig's rule no longer cycles, so each
    of those rows carries its slack as an explicit column t with entry 100:
    the reduced costs of x and t are Beale's times 100 at every basis, and
    the cycle is Beale's with t in place of the slacks."""
    lp = make_lp(6, [-75, 15000, -2, 600, 0, 0])
    lp.add_row([25, -6000, -4, 900, 100, 0], "<=", 0)
    lp.add_row([50, -9000, -2, 300, 0, 100], "<=", 0)
    lp.add_row([0, 0, 1, 0, 0, 0], "<=", 1)
    simplex = Simplex()
    sol = solve(lp, simplex)
    assert simplex.pivots > K_DEGENERATE  # the fallback ran
    assert sol.status == "optimal"
    assert sol.value == -5  # Beale's -1/20, times 100
    assert sol.x == [Fraction(1, 25), Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    assert reference_solve(lp) == ("optimal", sol.value)


def test_degenerate_instance_with_a_free_column():
    """Beale's instance with a free variable w in front (w >= -1): w enters
    decreasing at the degenerate start, ends basic at -1, and the run
    terminates at the reference's optimum.  The objective and the first
    two rows are scaled by 100 to integers, which keeps the pivots and x."""
    lp = make_lp(5, [1, -75, 15000, -2, 600], free=[True] + [False] * 4)
    lp.add_row([-100, 25, -6000, -4, 900], "<=", 0)
    lp.add_row([100, 50, -9000, -2, 300], "<=", 0)
    lp.add_row([0, 0, 0, 1, 0], "<=", 1)
    lp.add_row([1, 0, 0, 0, 0], ">=", -1)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.value == -9  # -9/100 before the scaling
    assert sol.x == [Fraction(-1), Fraction(492, 25), Fraction(49, 500), Fraction(1), Fraction(0)]
    assert reference_solve(lp) == ("optimal", sol.value)


def test_dantzig_ties_go_to_the_smallest_column():
    """Ties in Dantzig's rule go to the smallest column, not the first slot.
    After two pivots (column 6 in row 2, then column 5 in row 1), slack 2
    has left into column 6's slot, after the slot of x (column 4), and the
    two tie at the largest reduced cost.  Column 2 enters and its ray is
    unbounded; x would have taken a third pivot first."""
    lp = make_lp(3, [-1, -1, 2], free=[False, False, True])
    lp.add_row([3, -3, 2], "<=", 3)
    lp.add_row([-3, -3, -3], "<=", 1)
    lp.add_row([-2, -3, -2], "<=", 0)
    lp.add_row([1, 1, 3], "<=", 3)
    simplex = Simplex()
    assert solve(lp, simplex).status == "unbounded"
    assert simplex.pivots == 2
    assert reference_solve(lp) == ("unbounded", None)


def test_kernel_shrinks_and_slacks_trade_places():
    """Pivots that change which rows are stored in full, each checked
    against the recomputed tableau: slack 1 leaves for x2 and slack 2 for
    x0 (two kernel rows stored), slack 1 enters in place of slack 0 (the
    pivot row is derived in full, and row 0 stays a slack row), and slack
    2 enters in place of the sign-constrained x2, whose row turns into a
    slack row.  Columns 0..2 are the slacks, 3..5 are x0..x2."""
    lp = make_lp(3, [-1, 3, -2])
    lp.add_row([1, -3, 3], "<=", 4)
    lp.add_row([-1, 2, 3], "<=", 1)
    lp.add_row([0, -1, -2], ">=", -1)
    pivots = []
    pivot = Simplex._pivot

    def checked(self, r, col, column):
        pivots.append((self.basis[r], col))
        pivot(self, r, col, column)
        check_integer_tableau(self)

    with patch.object(Simplex, "_pivot", checked):
        simplex = Simplex()
        sol = solve(lp, simplex)
    assert pivots == [(1, 5), (2, 3), (0, 1), (5, 2)]
    assert [len(row) > 1 for row in simplex.rows] == [False, False, True]
    assert sol.x == [Fraction(4), Fraction(0), Fraction(0)]
    assert reference_solve(lp) == ("optimal", sol.value) == ("optimal", -4)
    # the same program with a row the origin violates is refused unpivoted
    lp.rhs[2] = 1
    simplex = Simplex()
    with pytest.raises(ValueError, match="origin"):
        solve(lp, simplex)
    assert simplex.pivots == 0 and simplex.rows == []


def test_solver_is_deterministic():
    lp = make_lp(3, [-1, -1, -1])
    lp.add_row([1, 2, 3], "<=", 6)
    lp.add_row([3, 2, 1], "<=", 6)
    first = solve(lp)
    second = solve(lp)
    assert first == second


@pytest.mark.parametrize(
    "bad", [Fraction(1, 2), Fraction(2), 1.0, True], ids=["half", "whole-fraction", "float", "bool"]
)
def test_non_int_entries_are_refused(bad):
    # a program is ints: a Fraction (even a whole one), a float or a bool in
    # a row, a right-hand side or the objective is refused where it enters
    lp = make_lp(2, [1, 1])
    with pytest.raises(ValueError, match="ints"):
        lp.add_row([1, bad], "<=", 1)
    with pytest.raises(ValueError, match="ints"):
        lp.add_row([1, 1], "<=", bad)
    assert lp.lhs == [] and lp.rhs == []
    # in a block, one bad entry or right-hand side in a middle row refuses
    # the whole block, and the rows added before it stay as they were
    lp.add_row([2, 3], ">=", 0)
    for rows, rhss in (
        ([[1, 1], [1, bad], [0, 1]], [1, 1, 1]),
        ([[1, 1], [1, 1], [0, 1]], [1, bad, 1]),
    ):
        with pytest.raises(ValueError, match="ints"):
            lp.add_rows(rows, ["<=", ">=", "<="], rhss)
        assert (lp.lhs, lp.rel, lp.rhs) == ([[2, 3]], [">="], [0])
    with pytest.raises(ValueError, match="ints"):
        make_lp(2, [bad, 1])


@pytest.mark.parametrize(
    "bad", [Fraction(1, 2), Fraction(2), 1.0, True], ids=["half", "whole-fraction", "float", "bool"]
)
def test_non_int_columns_are_refused(bad):
    lp = make_lp(1, [1])
    lp.add_row([1], "<=", 1)
    lp.add_row([1], ">=", 0)
    with pytest.raises(ValueError, match="ints"):
        lp.add_column(0, True, [1, bad])
    with pytest.raises(ValueError, match="ints"):
        lp.add_column(bad, True, [1, 1])
    assert lp == first_columns(lp, 1) and lp.num_vars == 1


def test_column_needs_one_entry_per_row():
    lp = make_lp(1, [1])
    lp.add_row([1], "<=", 1)
    lp.add_row([1], ">=", 0)
    for column in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="entries"):
            lp.add_column(0, False, column)
    assert lp.lhs == [[1], [1]] and lp.num_vars == 1


def test_added_column_equals_a_column_from_the_start():
    wide = make_lp(2, [1, -1], [False, True])
    wide.add_row([1, 2], "<=", 4)
    wide.add_row([3, -1], ">=", -2)
    grown = make_lp(1, [1])
    grown.add_row([1], "<=", 4)
    grown.add_row([3], ">=", -2)
    grown.add_column(-1, True, [2, -1])
    assert grown == wide


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
    # a block with a bad width or relation in a middle row, or without one
    # relation and one right-hand side per row, is refused whole
    lp.add_row([1, 1], "<=", 2)
    for rows, rels, rhss in (
        ([[1, 0], [1], [0, 1]], ["<=", "<=", "<="], [1, 1, 1]),
        ([[1, 0], [1, 1, 1], [0, 1]], ["<=", "<=", "<="], [1, 1, 1]),
        ([[1, 0], [1, 1], [0, 1]], ["<=", "==", "<="], [1, 1, 1]),
        ([[1, 0], [1, 1], [0, 1]], ["<=", ["<="], "<="], [1, 1, 1]),
        ([[1, 0], [1, 1], [0, 1]], ["<=", "<="], [1, 1, 1]),
        ([[1, 0], [1, 1], [0, 1]], ["<=", "<=", "<="], [1, 1]),
    ):
        with pytest.raises(ValueError):
            lp.add_rows(rows, rels, rhss)
        assert (lp.lhs, lp.rel, lp.rhs) == ([[1, 1]], ["<="], [2])
    # a good block is appended whole, each row a list of its own
    rows = [[1, 0], (0, 1)]
    lp.add_rows(rows, ["<=", ">="], [1, 0])
    assert (lp.lhs, lp.rel, lp.rhs) == ([[1, 1], [1, 0], [0, 1]], ["<=", "<=", ">="], [2, 1, 0])
    assert lp.lhs[1] is not rows[0]


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


def recomputed_tableau(simplex):
    """(|det B|, B^-1 A on the nonbasic columns with B^-1 b last, the
    reduced costs of the nonbasic columns with minus the objective last),
    recomputed in Fractions from the program the simplex last solved and
    its basis alone: A is [I | sign * lhs] and b is sign * rhs, each >= row
    negated, and c is 0 on the slacks."""
    rel, rhs, objective, _, lhs = simplex.program
    sign = [1 if r == "<=" else -1 for r in rel]
    width = len(rhs)

    def column(j):
        if j < width:
            return [Fraction(int(i == j)) for i in range(width)]
        return [Fraction(s * row[j - width]) for s, row in zip(sign, lhs)]

    cost = [0] * width + objective
    # Gauss-Jordan on [B | A_N | b], keeping det B
    matrix = [list(entries) for entries in zip(*map(column, simplex.basis + simplex.nonbasic))]
    for row, s, b in zip(matrix, sign, rhs):
        row.append(Fraction(s * b))
    det = Fraction(1)
    for r in range(width):
        pivot = next(i for i in range(r, width) if matrix[i][r])
        if pivot != r:
            matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
            det = -det
        det *= matrix[r][r]
        matrix[r] = [v / matrix[r][r] for v in matrix[r]]
        for i in range(width):
            if i != r and matrix[i][r]:
                f = matrix[i][r]
                matrix[i] = [v - f * w for v, w in zip(matrix[i], matrix[r])]
    entries = [row[width:] for row in matrix]
    costs = [cost[j] for j in simplex.nonbasic] + [0]
    reduced = [
        c - sum(cost[bv] * row[k] for bv, row in zip(simplex.basis, entries))
        for k, c in enumerate(costs)
    ]
    return abs(det), entries, reduced


def check_integer_tableau(simplex):
    # ints over one positive denominator, basis and nonbasic columns a
    # partition of every column, a full row stored exactly for the rows of
    # basic program columns, and each entry of every row, the reduced costs
    # included, equal to den times the one recomputed from the program:
    # den = |det B| makes every one an integer.  A slack row's entries are
    # derived from the kernel rows, as the pivot derives them, both a row
    # at a time and a slot at a time.
    assert all(type(v) is int for row in [*simplex.rows, simplex.costrow] for v in row)
    assert type(simplex.den) is int and simplex.den > 0
    assert sorted(simplex.basis + simplex.nonbasic) == list(range(len(simplex.free)))
    slots = len(simplex.nonbasic)
    assert [len(row) for row in simplex.rows] == [
        slots + 1 if bv >= simplex.width else 1 for bv in simplex.basis
    ]
    det, entries, reduced = recomputed_tableau(simplex)
    assert simplex.den == det
    full = [
        row if bv >= simplex.width else simplex._derived_row(i)
        for i, (row, bv) in enumerate(zip(simplex.rows, simplex.basis))
    ]
    assert full == [[simplex.den * v for v in row] for row in entries]
    assert [simplex._column(k) for k in range(slots)] == [[row[k] for row in full] for k in range(slots)]
    assert simplex.costrow == [simplex.den * v for v in reduced]


# pivots allowed in one check_prefixes call, over its (at most 8) warm and
# cold solves.  The most measured over both strategies' 600 examples was 17
# (20 over 3000 each); the cap also leaves room for every solve to stall for
# K_DEGENERATE degenerate pivots before Bland's rule takes over.
PIVOT_CAP = 500


def check_prefixes(lp, widths):
    # every prefix of the program, warm and cold, against the exact
    # reference below: the same verdict and the same optimum.  A solver
    # that cycles fails at the pivot cap instead of running forever.
    pivots = 0
    pivot = Simplex._pivot

    def capped(self, *args):
        nonlocal pivots
        pivots += 1
        assert pivots <= PIVOT_CAP, f"more than {PIVOT_CAP} pivots: the solver cycles"
        pivot(self, *args)

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


# a wider int range than the default's, where ties are rarer and the
# tableau's entries grow larger
WIDE_INTS = st.integers(-12, 12)


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
@given(widened_programs(WIDE_INTS))
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
    with the row -x'_j <= x0_j.  Every moved row is scaled by the lcm of
    x0's denominators, so that it stays integer."""
    scale = lcm(*(Fraction(v).denominator for v in x0))

    def add_scaled(coeffs, rel, rhs):
        rhs = scale * Fraction(rhs)
        assert rhs.denominator == 1
        moved.add_row([scale * a for a in coeffs], rel, int(rhs))

    moved = make_lp(lp.num_vars, lp.objective, [f or v != 0 for f, v in zip(lp.free, x0)])
    for j, v in enumerate(x0):
        if v and not lp.free[j]:
            add_scaled([-int(i == j) for i in range(lp.num_vars)], "<=", v)
    for coeffs, rel, rhs in zip(lp.lhs, lp.rel, lp.rhs):
        add_scaled(coeffs, rel, rhs - sum(a * v for a, v in zip(coeffs, x0)))
    return moved


def test_reference_on_known_optima():
    # the reference itself, on programs whose optimum is known by hand
    assert reference_solve(make_lp(1, [1], free=[True])) == ("unbounded", None)
    lp = make_lp(2, [-1, -2])
    lp.add_row([1, 1], "<=", 1)
    lp.add_row([-1, 1], ">=", -3)
    assert reference_solve(lp) == ("optimal", -2)
    lp = make_lp(2, [1, -1], free=[True, False])
    lp.add_row([2, 0], ">=", -5)
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
