"""Tests for the minimum-error LPs and the approximate-degree search.

The frozen numbers in this file were produced by the exact solver and
cross-checked against the unrestricted per-function LP and a float solver;
they are asserted as exact rationals.
"""

import copy
import functools
import json
import pathlib
import random
from fractions import Fraction

import pytest

import symdeg.degreelp as degreelp
from symdeg.budget import BudgetExceededError
from symdeg.degreelp import (
    DegreeCertificate,
    approx_degree,
    build_lp,
    eps_min_indicator_basis,
    indicator_monomials,
    solve_lp,
    sweep,
)
from symdeg.lp import LinearProgram, Simplex, _prefix, solve
from symdeg.oracle import verify_approximation
from symdeg.properties import (
    ALWAYS_ONE,
    COLLISION,
    ELEMENT_DISTINCTNESS,
    Label,
    MODIFIED_ELEMENT_DISTINCTNESS,
    PropertySpec,
    enumerate_classes,
    property_from_classes,
)
from symdeg.sympoly import FrequencyVector, SymPolynomial, msym_columns, partitions

from test_sympoly import direct_msym_value


THIRD = Fraction(1, 3)


# ---------------------------------------------------------------------------
# LP assembly


def test_coefficient_basis_order_and_cap():
    assert build_lp(ELEMENT_DISTINCTNESS, 2, 2, 2).lambdas == ((), (1,), (2,), (1, 1))
    # partition length capped by min(n, m)
    assert build_lp(ALWAYS_ONE, 3, 1, 3).lambdas == ((), (1,), (2,), (3,))
    assert build_lp(ALWAYS_ONE, 1, 3, 2).lambdas == ((), (1,), (2,))


def test_one_degree_rule():
    # both LPs and the m_lambda columns refuse anything but an int >= 0;
    # True used to build the degree-1 LP, and a negative degree used to
    # give the columns the weight-0 block
    for degree in (True, False, 1.5, -1, "1"):
        for run in (
            lambda: build_lp(ELEMENT_DISTINCTNESS, 3, 3, degree),
            lambda: eps_min_indicator_basis(ELEMENT_DISTINCTNESS, 2, 2, degree),
            lambda: next(msym_columns([(2, 1)], degree, 2)),
        ):
            with pytest.raises(ValueError, match="degree must be >= 0 and an int"):
                run()


def test_build_lp_shape():
    inst = build_lp(ELEMENT_DISTINCTNESS, 2, 2, 1)
    assert inst.lambdas == ((), (1,))
    assert inst.classes == (((2,), Label.ZERO), ((1, 1), Label.ONE))
    assert inst.program.num_vars == 3  # eps + two coefficients
    assert len(inst.program.lhs) == 4  # two rows per class
    # eps is sign-constrained, coefficients are free
    assert inst.program.free == [False, True, True]
    with pytest.raises(ValueError):
        build_lp(ELEMENT_DISTINCTNESS, 2, 2, -1)


def test_build_lp_is_deterministic():
    a = build_lp(COLLISION, 4, 4, 2)
    b = build_lp(COLLISION, 4, 4, 2)
    assert a == b


def test_build_lp_bound_rows_per_label():
    # classes (3) Zero, (2,1) Undefined, (1,1,1) One; columns eps, m_(), m_(1)
    program = build_lp(MODIFIED_ELEMENT_DISTINCTNESS, 3, 3, 1).program
    assert list(zip(program.lhs, program.rel, program.rhs)) == [
        ([0, 1, 3], ">=", 0), ([-1, 1, 3], "<=", 0),
        ([0, 1, 3], ">=", 0), ([0, 1, 3], "<=", 1),
        ([1, 1, 3], ">=", 1), ([0, 1, 3], "<=", 1),
    ]


def test_bound_rows_per_label():
    # (eps entry, relation, rhs) of the lower and the upper row
    assert degreelp._bound_rows(Label.ZERO) == ((0, ">=", 0), (-1, "<=", 0))
    assert degreelp._bound_rows(Label.ONE) == ((1, ">=", 1), (0, "<=", 1))
    assert degreelp._bound_rows(Label.UNDEFINED) == ((0, ">=", 0), (0, "<=", 1))


# the oracle's values, shared by every property at the same (counts, lambda)
_direct_msym_value = functools.cache(direct_msym_value)


@pytest.mark.parametrize(
    "prop", [ELEMENT_DISTINCTNESS, MODIFIED_ELEMENT_DISTINCTNESS, COLLISION, ALWAYS_ONE]
)
def test_build_lp_rows_match_direct_expansion(prop):
    # each class's two rows carry m_lambda(z) in every coefficient column,
    # checked against the monomial-by-monomial oracle; m = n - 1 and below
    # cap the partition length, m = n + 2 leaves zero coordinates
    n = 6
    for m in (2, 3, n - 1, n, n + 2):
        for d in range(n + 1):
            inst = build_lp(prop, n, m, d)
            for k, (lam_class, _) in enumerate(inst.classes):
                counts = FrequencyVector(m, lam_class).counts()
                expected = [_direct_msym_value(lam, counts) for lam in inst.lambdas]
                for row in inst.program.lhs[2 * k : 2 * k + 2]:
                    assert row[1:] == expected


# ---------------------------------------------------------------------------
# frozen optima


def test_ed_2_2_eps_min_by_degree():
    values = [solve_lp(build_lp(ELEMENT_DISTINCTNESS, 2, 2, d))[0] for d in (0, 1, 2)]
    assert values == [Fraction(1, 2), Fraction(1, 2), Fraction(0)]


def test_ed_2_2_degree_two_witness_is_exact():
    eps_min, coeffs = solve_lp(build_lp(ELEMENT_DISTINCTNESS, 2, 2, 2))
    assert eps_min == 0
    from symdeg.sympoly import SymPolynomial

    q = SymPolynomial(2, coeffs)
    assert q.evaluate(FrequencyVector(2, (1, 1))) == 1
    assert q.evaluate(FrequencyVector(2, (2,))) == 0
    report = verify_approximation(q, ELEMENT_DISTINCTNESS, 2, 2, 0)
    assert report.passed


def test_always_one_is_degree_zero():
    cert = approx_degree(ALWAYS_ONE, 3, 3, THIRD)
    assert cert.degree == 0
    assert cert.steps[0].eps_min == 0
    assert cert.optimal_polynomial().evaluate(FrequencyVector(3, (2, 1))) == 1


def test_ed_2_2_certificate():
    cert = approx_degree(ELEMENT_DISTINCTNESS, 2, 2, THIRD)
    assert cert.degree == 2
    assert cert.query_lower_bound == 1
    assert [str(s.eps_min) for s in cert.steps] == ["1/2", "1/2", "0"]
    assert cert.eps_min_at(1) == Fraction(1, 2)
    with pytest.raises(KeyError):
        cert.eps_min_at(5)


def test_collision_2_3_certificate():
    cert = approx_degree(COLLISION, 2, 3, THIRD)
    assert cert.degree == 2
    assert cert.query_lower_bound == 1


@pytest.mark.parametrize(
    "n,expected",
    [(2, 2), (3, 3), (4, 3), (5, 4)],
)
def test_ed_square_degrees(n, expected):
    cert = approx_degree(ELEMENT_DISTINCTNESS, n, n, THIRD)
    assert cert.degree == expected


def test_med_degrees():
    got = [approx_degree(MODIFIED_ELEMENT_DISTINCTNESS, n, n, THIRD).degree for n in (3, 4)]
    assert got == [2, 2]


def test_collision_even_degrees():
    got = [approx_degree(COLLISION, n, n, THIRD).degree for n in (2, 4)]
    assert got == [2, 3]


GOLDEN_EPS_MIN = {
    (ELEMENT_DISTINCTNESS, 3): "1/2,1/2,2/5,0",
    (ELEMENT_DISTINCTNESS, 4): "1/2,1/2,5/11,1/3",
    (ELEMENT_DISTINCTNESS, 5): "1/2,1/2,9/19,21/52,1/4",
    (ELEMENT_DISTINCTNESS, 6): "1/2,1/2,14/29,18/41,27/79,1/5",
    (ELEMENT_DISTINCTNESS, 7): "1/2,1/2,20/41,36/79,3650/9551,108/409",
    (ELEMENT_DISTINCTNESS, 8): "1/2,1/2,27/55,50/107,636/1553,1851/5708",
    (MODIFIED_ELEMENT_DISTINCTNESS, 3): "1/2,1/2,0",
    (MODIFIED_ELEMENT_DISTINCTNESS, 4): "1/2,1/2,1/3",
    (MODIFIED_ELEMENT_DISTINCTNESS, 5): "1/2,1/2,7/17,3/13",
    (MODIFIED_ELEMENT_DISTINCTNESS, 6): "1/2,1/2,4/9,1/3",
    (MODIFIED_ELEMENT_DISTINCTNESS, 7): "1/2,1/2,6/13,11/29,1469/6529",
    (MODIFIED_ELEMENT_DISTINCTNESS, 8): "1/2,1/2,25/53,16/39,393/1388",
    (COLLISION, 4): "1/2,1/2,2/5,0",
    (COLLISION, 6): "1/2,1/2,4/9,5/21",
    (COLLISION, 8): "1/2,1/2,6/13,7/22",
    # the frontier; ED n = 14..22 is in ed_frontier.json, and CI checks n = 14..20
    (ELEMENT_DISTINCTNESS, 9): "1/2,1/2,35/71,55/116,169/394,693/1901,15041/55280",
    (ELEMENT_DISTINCTNESS, 10): "1/2,1/2,44/89,35/73,1310/2951,110902/283957,27134878/86902331",
    (ELEMENT_DISTINCTNESS, 11): (
        "1/2,1/2,54/109,156/323,705/1552,2093391/5128016,1044343604/3037116701,"
        "166784126/641040197"
    ),
    (ELEMENT_DISTINCTNESS, 12): (
        "1/2,1/2,65/131,189/389,34407/74447,82552/194609,82996528/225037371,"
        "1598311145/5383931159"
    ),
    (ELEMENT_DISTINCTNESS, 13): (
        "1/2,1/2,77/155,525/1076,2651/5667,2988328/6861145,109926573383/283679977665,"
        "7562650300964/23587952728465"
    ),
    (MODIFIED_ELEMENT_DISTINCTNESS, 10): "1/2,1/2,14/29,35/79,95/268,4751/19301",
    (MODIFIED_ELEMENT_DISTINCTNESS, 11): "1/2,1/2,52/107,105/232,3491/9231,20166587/71096785",
    (MODIFIED_ELEMENT_DISTINCTNESS, 12): "1/2,1/2,21/43,64/139,1134/2851,1164/3709",
    (COLLISION, 10): "1/2,1/2,8/17,9/25,57/595",
    (COLLISION, 12): "1/2,1/2,10/21,22/57,5/27",
}


@pytest.mark.parametrize(
    "prop,n", list(GOLDEN_EPS_MIN), ids=lambda v: getattr(v, "name", v)
)
def test_golden_eps_min_tables(prop, n):
    # pinned optima at n = m, eps = 1/3; the witness may be any optimal vertex
    cert = approx_degree(prop, n, n, THIRD)
    assert ",".join(str(step.eps_min) for step in cert.steps) == GOLDEN_EPS_MIN[prop, n]


# eps_min at d* for ED n = 19..22, as recorded when the search first
# reached them (ROADMAP item 1): n = 21 by the solver that stored every
# row of the dictionary, so its table in ed_frontier.json, found by the
# kernel dictionary, is checked by a second path.  The CI frontier step
# checks the full tables of n = 14..20.
ED_FRONTIER_LAST = {
    "19": (
        "1253975992086186528564656561670494633053795635794155896945/"
        "3849089056175650337969491191794282560702863431761522135894"
    ),
    "20": (
        "2771136059191519102639973504837103323728726172786122982891750693512099800/"
        "9514706741639733242923974083797957986054474669360796413892886582342491891"
    ),
    "21": (
        "4978690442324389733689782586471857339558810308949076594145043599511649580/"
        "16251796835510321038261948832485141021559863951252843645301934308888145369"
    ),
    "22": (
        "4614572510101166587467085897513422965298619740722589952811607457659051712636109254210/"
        "14291727068681353960303691023195915017917786721109194657119438530623831059646856358251"
    ),
}


def test_ed_frontier_tables_are_well_formed():
    with open(pathlib.Path(__file__).with_name("ed_frontier.json"), encoding="utf-8") as f:
        tables = json.load(f)
    assert list(tables) == [str(n) for n in range(14, 23)]
    for table in tables.values():
        values = [Fraction(v) for v in table]
        assert values[:2] == [Fraction(1, 2)] * 2
        assert values == sorted(values, reverse=True)
        assert values[-1] <= THIRD < values[-2]
    assert {n: tables[n][-1] for n in ED_FRONTIER_LAST} == ED_FRONTIER_LAST


def test_eps_min_table_is_non_increasing():
    for prop, n in [(ELEMENT_DISTINCTNESS, 4), (COLLISION, 4)]:
        cert = approx_degree(prop, n, n, THIRD)
        eps_values = [s.eps_min for s in cert.steps]
        assert eps_values == sorted(eps_values, reverse=True)
        assert eps_values[-1] <= THIRD
        assert all(e > THIRD for e in eps_values[:-1])


def test_exact_interpolation_at_eps_zero():
    # eps = 0 demands exact values on labeled classes; still within the cap
    cert = approx_degree(ELEMENT_DISTINCTNESS, 3, 3, 0)
    assert cert.steps[-1].eps_min == 0
    report = verify_approximation(
        cert.optimal_polynomial(), ELEMENT_DISTINCTNESS, 3, 3, 0
    )
    assert report.passed


def test_certificate_witness_verifies():
    for prop, n, m in [
        (ELEMENT_DISTINCTNESS, 3, 3),
        (COLLISION, 4, 4),
        (MODIFIED_ELEMENT_DISTINCTNESS, 4, 4),
    ]:
        cert = approx_degree(prop, n, m, THIRD)
        q = cert.optimal_polynomial()
        deg = q.degree()
        assert deg is None or deg <= cert.degree
        assert verify_approximation(q, prop, n, m, THIRD).passed


def test_eps_validation():
    with pytest.raises(ValueError):
        approx_degree(ELEMENT_DISTINCTNESS, 2, 2, Fraction(1, 2))
    with pytest.raises(ValueError):
        approx_degree(ELEMENT_DISTINCTNESS, 2, 2, -1)
    with pytest.raises(ValueError):
        approx_degree(ELEMENT_DISTINCTNESS, 0, 2)


def test_float_eps_is_rejected():
    # 0.3 is not 3/10 in binary; the exact value must come as a Fraction or "p/q"
    q = SymPolynomial(2, {(1, 1): 1})
    for call in (
        lambda: approx_degree(ELEMENT_DISTINCTNESS, 3, 3, 0.3),
        lambda: sweep(ELEMENT_DISTINCTNESS, 3, [3, 4], 0.3),
        lambda: verify_approximation(q, ELEMENT_DISTINCTNESS, 2, 2, 0.3),
    ):
        with pytest.raises(ValueError, match="Fraction"):
            call()


def test_eps_accepts_strings_and_ints():
    cert = approx_degree(ELEMENT_DISTINCTNESS, 2, 2, "1/3")
    assert cert.eps == THIRD
    cert = approx_degree(ALWAYS_ONE, 2, 2, 0)
    assert cert.eps == 0


BUMPY = property_from_classes(
    "bumpy",
    4,
    {
        (4,): Label.ONE,
        (3, 1): Label.ZERO,
        (2, 2): Label.ONE,
    },
)


def test_search_needs_high_degree_when_classes_are_few():
    """A labeling whose class count is far below the needed degree: the cap
    must come from n, not from the number of classes."""
    cert = approx_degree(BUMPY, 4, 2, THIRD)  # only 3 classes exist at m = 2
    assert cert.degree == 4
    assert verify_approximation(cert.optimal_polynomial(), BUMPY, 4, 2, THIRD).passed


# ---------------------------------------------------------------------------
# range sweeps


@pytest.mark.parametrize(
    "prop", [ELEMENT_DISTINCTNESS, MODIFIED_ELEMENT_DISTINCTNESS, COLLISION],
    ids=lambda p: p.name,
)
@pytest.mark.parametrize("n", [4, 5, 6])
def test_build_lp_is_the_same_for_every_m_at_least_n(prop, n):
    # the paper's collapse, literally: for m >= n no degree's LP depends on m
    for d in range(n + 1):
        base = build_lp(prop, n, n, d)
        for m in (n + 1, n + 2):
            inst = build_lp(prop, n, m, d)
            assert inst.lambdas == base.lambdas
            assert inst.classes == base.classes
            assert inst.program == base.program


# ED while the range is at most 2, always One above: the rule reads z.m, so
# m = 2, 3 have the same partitions and cap but different labels
RANGE_AWARE = PropertySpec(
    "range-aware",
    lambda z: Label.ONE if z.m > 2 else ELEMENT_DISTINCTNESS.classify(z),
)


@pytest.mark.parametrize(
    "prop, n, ms, searched",
    [
        (ELEMENT_DISTINCTNESS, 2, [2, 3, 4], [2]),
        (BUMPY, 4, [1, 2, 3, 4, 5], [1, 2, 3, 4]),
        (RANGE_AWARE, 2, [1, 2, 3, 4], [1, 2, 3]),
    ],
    ids=lambda v: getattr(v, "name", None),
)
def test_sweep_searches_each_lp_once(monkeypatch, prop, n, ms, searched):
    calls = []

    def counting(prop, n, m, eps):
        calls.append(m)
        return approx_degree(prop, n, m, eps)

    monkeypatch.setattr(degreelp, "approx_degree", counting)
    certs = sweep(prop, n, ms, THIRD)
    assert calls == searched
    assert certs == tuple(approx_degree(prop, n, m, THIRD) for m in ms)


def test_sweep_checks_every_m_before_solving(monkeypatch):
    monkeypatch.setattr(
        degreelp, "approx_degree", lambda *args: pytest.fail("searched before m = 2 was checked")
    )
    with pytest.raises(ValueError, match="m >= n"):
        sweep(ELEMENT_DISTINCTNESS, 3, [3, 2])


@pytest.mark.parametrize("ms", [range(3, 10**12), range(3, 10**30)], ids=["10**12", "10**30"])
def test_sweep_counts_its_sizes_before_checking_any(monkeypatch, ms):
    # never built: the count is refused before a size is checked
    monkeypatch.delenv("SYMDEG_BUDGET", raising=False)
    monkeypatch.setattr(
        degreelp, "check_instance", lambda *args: pytest.fail("checked a size before counting them")
    )
    with pytest.raises(BudgetExceededError):
        sweep(ELEMENT_DISTINCTNESS, 3, ms)


def seeded_labeling(seed, n):
    rng = random.Random(seed)
    return property_from_classes(
        f"seeded-{seed}", n, {lam: rng.choice(list(Label)) for lam in partitions(n)}
    )


@pytest.mark.parametrize(
    "prop,n,m",
    [(prop, n, n) for prop in (ELEMENT_DISTINCTNESS, MODIFIED_ELEMENT_DISTINCTNESS, COLLISION)
     for n in range(3, 7)]
    + [(BUMPY, 4, 2), (seeded_labeling(1, 5), 5, 5), (seeded_labeling(2, 5), 5, 4)],
    ids=lambda v: getattr(v, "name", v),
)
def test_warm_search_matches_cold_solves(prop, n, m):
    # the search re-optimizes one tableau across degrees; every optimum must
    # equal a fresh solve of that degree's LP
    cert = approx_degree(prop, n, m, THIRD)
    for step in cert.steps:
        assert step.eps_min == solve_lp(build_lp(prop, n, m, step.degree))[0]
    assert verify_approximation(cert.optimal_polynomial(), prop, n, m, THIRD).passed


def test_warm_search_pivot_count():
    # the ED n = 9 search (d* = 6) on one tableau, from the slack basis at
    # eps = 1/2
    simplex = Simplex()
    for d in range(7):
        solve_lp(build_lp(ELEMENT_DISTINCTNESS, 9, 9, d), simplex)
    assert simplex.pivots == 64


def test_search_extends_the_class_rows_in_place(monkeypatch):
    # the ED n = 9 search (d* = 6): build_lp draws the one block of its
    # degree-0 generator, and the search opens one generator of its own,
    # up to the interpolation cap, and draws blocks 0..6 once each, so
    # every column of the final LP is computed exactly once
    drawn = []

    def spy(points, degree, max_parts):
        opened = []
        drawn.append((degree, max_parts, opened))
        for block in msym_columns(points, degree, max_parts):
            opened.append([lam for lam, _ in block])
            yield block

    monkeypatch.setattr(degreelp, "msym_columns", spy)
    cert = approx_degree(ELEMENT_DISTINCTNESS, 9, 9, THIRD)
    assert cert.degree == 6
    classes = len(list(partitions(9)))
    blocks = [list(partitions(w)) for w in range(7)]
    assert drawn == [(0, 9, [[()]]), (max(9, classes), 9, blocks)]


def test_search_stores_full_rows_only_for_basic_program_columns(monkeypatch):
    # the ED n = 12 search (d* = 7) ends on a 155-row tableau, of which
    # only the rows of its 16 basic program columns are stored in full
    made = []

    def recorded():
        made.append(Simplex())
        return made[-1]

    monkeypatch.setattr(degreelp, "Simplex", recorded)
    assert approx_degree(ELEMENT_DISTINCTNESS, 12, 12, THIRD).degree == 7
    (simplex,) = made
    slots = len(simplex.nonbasic)
    stored = [bv >= simplex.width for bv in simplex.basis]
    assert [len(row) for row in simplex.rows] == [slots + 1 if full else 1 for full in stored]
    assert (len(stored), sum(stored)) == (155, 16)


def posed_by_rule(program):
    """The posing in x - x0 spelled row by row: the first row -2 eps' <= 1,
    then each row a.x ~ b as 2a.x' ~ 2b - a_0 - a_1, and eps' free."""
    posed = LinearProgram(program.num_vars, program.objective, [True] + program.free[1:])
    posed.add_row([-2] + [0] * (program.num_vars - 1), "<=", 1)
    for row, rel, b in zip(program.lhs, program.rel, program.rhs):
        posed.add_row([2 * a for a in row], rel, 2 * b - row[0] - row[1])
    return posed


@pytest.mark.parametrize(
    "prop,n,m",
    [(prop, n, n) for prop in (ELEMENT_DISTINCTNESS, MODIFIED_ELEMENT_DISTINCTNESS, COLLISION)
     for n in range(2, 8)]
    + [(BUMPY, 4, 2), (seeded_labeling(2, 5), 5, 4), (seeded_labeling(3, 6), 6, 3)],
    ids=lambda v: getattr(v, "name", v),
)
def test_search_program_is_the_posed_build_lp(monkeypatch, prop, n, m):
    # the search grows one posed program by columns; at every degree it must
    # be the posing of that degree's build_lp, entry for entry, and the
    # simplex must hold that program
    seen = []

    def recording(posed, simplex):
        solution = solve(posed, simplex)
        seen.append((copy.deepcopy(posed), simplex.program))
        return solution

    monkeypatch.setattr(degreelp, "solve", recording)
    cert = approx_degree(prop, n, m, THIRD)
    assert len(seen) == len(cert.steps)
    for d, (posed, held) in enumerate(seen):
        program = build_lp(prop, n, m, d).program
        expected = posed_by_rule(program)
        assert posed == expected == degreelp._pose(program)
        assert held == _prefix(expected, expected.num_vars)


@pytest.mark.parametrize(
    "prop,n,m",
    [(ELEMENT_DISTINCTNESS, 6, 6), (COLLISION, 6, 8), (BUMPY, 4, 2), (seeded_labeling(2, 5), 5, 4)],
    ids=lambda v: getattr(v, "name", v),
)
def test_search_enumerates_classes_once(monkeypatch, prop, n, m):
    calls = []

    def counting(*args):
        calls.append(args)
        return enumerate_classes(*args)

    monkeypatch.setattr(degreelp, "enumerate_classes", counting)
    cert = approx_degree(prop, n, m, THIRD)
    assert cert.degree > 0 and calls == [(prop, n, m)]


def test_each_program_adds_its_rows_in_one_block(monkeypatch):
    # build_lp's program takes all of its rows in one add_rows call, and so
    # does the search's posing of it: add_row, one add_rows call per row,
    # is not used (ED n = 6: 11 classes, two rows each, one more posed)
    blocks = []
    add_rows = LinearProgram.add_rows

    def spy(program, rows, rels, rhss):
        before = len(program.lhs)
        add_rows(program, rows, rels, rhss)
        blocks.append((program, before, len(program.lhs)))

    monkeypatch.setattr(LinearProgram, "add_rows", spy)
    inst = build_lp(ELEMENT_DISTINCTNESS, 6, 6, 4)
    assert [(id(p), a, b) for p, a, b in blocks] == [(id(inst.program), 0, 22)]
    blocks.clear()
    assert approx_degree(ELEMENT_DISTINCTNESS, 6, 6, THIRD).degree == 5
    (base, *base_rows), (posed, *posed_rows) = blocks
    assert (base_rows, posed_rows) == ([0, 22], [0, 23]) and base is not posed


def optimal_duals(simplex):
    """y_i = -sign_i * (slack i's reduced cost) / den for each row i of the
    program last solved, 0 where slack i is basic: the dual values the
    tableau holds, sign_i = -1 on a >= row."""
    rel = simplex.program[0]
    y = [Fraction(0)] * len(rel)
    for k, j in enumerate(simplex.nonbasic):
        if j < len(rel):
            y[j] = Fraction((1 if rel[j] == ">=" else -1) * simplex.costrow[k], simplex.den)
    return y


@pytest.mark.parametrize(
    "prop, n, nonzero",
    [
        (ELEMENT_DISTINCTNESS, 9, 11),
        (ELEMENT_DISTINCTNESS, 12, 16),
        (MODIFIED_ELEMENT_DISTINCTNESS, 8, None),
        (COLLISION, 8, None),
    ],
    ids=lambda v: getattr(v, "name", v),
)
def test_tableau_duals_certify_every_degree(prop, n, nonzero):
    # at every degree of the warm search, the duals read off the tableau are
    # feasible for the dual of the posed program and attain its optimum
    # eps_min - 1/2, which certifies that optimum without the solver
    simplex = Simplex()
    for d in range(n + 1):
        eps_min = solve_lp(build_lp(prop, n, n, d), simplex)[0]
        rel, rhs, objective, free, lhs = simplex.program
        y = optimal_duals(simplex)
        assert all(v >= 0 if r == ">=" else v <= 0 for v, r in zip(y, rel))
        for j, (c, is_free) in enumerate(zip(objective, free)):
            reduced = c - sum(row[j] * v for row, v in zip(lhs, y) if v)
            assert reduced == 0 if is_free else reduced >= 0
        assert sum(b * v for b, v in zip(rhs, y)) == eps_min - Fraction(1, 2)
        if eps_min <= THIRD:
            break
    if nonzero is not None:
        # at d*: the classes whose rows bind in the dual
        assert sum(v != 0 for v in y) == nonzero


def test_certificate_to_dict_shape():
    cert = approx_degree(ELEMENT_DISTINCTNESS, 2, 2, THIRD)
    data = cert.to_dict()
    assert data["property"] == "element-distinctness"
    assert data["n"] == 2 and data["m"] == 2
    assert data["eps"] == "1/3"
    assert data["degree"] == 2
    assert data["query_lower_bound"] == 1
    assert data["eps_min_by_degree"] == [
        {"degree": 0, "eps_min": "1/2"},
        {"degree": 1, "eps_min": "1/2"},
        {"degree": 2, "eps_min": "0"},
    ]
    assert all(
        set(entry) == {"partition", "coeff"} for entry in data["optimal_coefficients"]
    )


def test_search_is_deterministic():
    a = approx_degree(COLLISION, 4, 4, THIRD)
    b = approx_degree(COLLISION, 4, 4, THIRD)
    assert a == b


# ---------------------------------------------------------------------------
# the unrestricted per-function LP


def test_indicator_monomials_count():
    # sum over k of C(n, k) * m^k
    monos = indicator_monomials(2, 2, 2)
    assert len(monos) == 1 + 2 * 2 + 1 * 4
    assert monos[0] == ()
    assert len(set(monos)) == len(monos)


def test_indicator_basis_matches_symmetric_optimum():
    for prop, n, m in [
        (ELEMENT_DISTINCTNESS, 2, 2),
        (ELEMENT_DISTINCTNESS, 3, 3),
        (COLLISION, 2, 3),
    ]:
        for degree in range(0, 3):
            unrestricted = eps_min_indicator_basis(prop, n, m, degree)
            symmetric = solve_lp(build_lp(prop, n, m, degree))[0]
            assert unrestricted == symmetric


def test_indicator_basis_at_range_above_n():
    # the m >= n side of range invariance with no symmetry assumed: over all
    # 4**3 functions, the best degree-2 error is the symmetric one at m = n
    # (degrees 0 and 1 give 1/2 on both sides)
    unrestricted = eps_min_indicator_basis(ELEMENT_DISTINCTNESS, 3, 4, 2)
    assert unrestricted == Fraction(2, 5) == solve_lp(build_lp(ELEMENT_DISTINCTNESS, 3, 3, 2))[0]


@pytest.mark.parametrize("degree, expected", [(1, Fraction(1, 2)), (2, Fraction(0))])
def test_indicator_basis_at_range_above_n_med(degree, expected):
    # the same check for MED over all 4**3 functions: degree 2 interpolates it
    unrestricted = eps_min_indicator_basis(MODIFIED_ELEMENT_DISTINCTNESS, 3, 4, degree)
    symmetric = solve_lp(build_lp(MODIFIED_ELEMENT_DISTINCTNESS, 3, 3, degree))[0]
    assert unrestricted == expected == symmetric


@pytest.mark.parametrize("degree, expected", [(1, Fraction(1, 2)), (2, Fraction(2, 5))])
def test_indicator_basis_at_range_above_n_ed_m5(degree, expected):
    # ED over all 5**3 functions: the best error at each degree is the
    # symmetric optimum at m = n = 3
    unrestricted = eps_min_indicator_basis(ELEMENT_DISTINCTNESS, 3, 5, degree)
    symmetric = solve_lp(build_lp(ELEMENT_DISTINCTNESS, 3, 3, degree))[0]
    assert unrestricted == expected == symmetric


def test_indicator_basis_classifies_each_class_once():
    # 2**4 functions in 3 classes, two of them with two parts; each class is
    # classified when first met in lexicographic order, and the optimum is
    # the symmetric one
    seen = []

    def rule(z):
        seen.append(z)
        return COLLISION.classify(z)

    counting = PropertySpec("counting", rule)
    unrestricted = eps_min_indicator_basis(counting, 4, 2, 1)
    assert [z.parts for z in seen] == [(4,), (3, 1), (2, 2)]
    assert all(z.m == 2 for z in seen)
    assert unrestricted == solve_lp(build_lp(COLLISION, 4, 2, 1))[0]


def test_indicator_basis_refuses_a_negative_degree():
    # the same rule and message as build_lp
    with pytest.raises(ValueError, match="degree must be >= 0"):
        eps_min_indicator_basis(ELEMENT_DISTINCTNESS, 2, 2, -1)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        build_lp(ELEMENT_DISTINCTNESS, 2, 2, -1)


def test_indicator_basis_checks_the_instance():
    # the same rule as approx_degree: ED needs m >= n, and n must be an int
    for args in ((ELEMENT_DISTINCTNESS, 3, 2), (COLLISION, True, 2)):
        with pytest.raises(ValueError) as refused:
            approx_degree(*args, THIRD)
        with pytest.raises(ValueError, match=str(refused.value)):
            eps_min_indicator_basis(*args, 1)


def test_indicator_basis_checks_the_budget_first(monkeypatch):
    # 3**3 = 27 functions over a budget of 20: refused before any row is built
    def no_rows(*args):
        raise AssertionError("a bound row was built past the budget")

    monkeypatch.setenv("SYMDEG_BUDGET", "20")
    monkeypatch.setattr(degreelp, "_bound_rows", no_rows)
    with pytest.raises(BudgetExceededError) as info:
        eps_min_indicator_basis(ELEMENT_DISTINCTNESS, 3, 3, 1)
    assert (info.value.required, info.value.budget) == (27, 20)
