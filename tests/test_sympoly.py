"""Tests for partitions, frequency vectors, and the m_lambda basis."""

import functools
import itertools
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symdeg.sympoly as sympoly
from symdeg.ypoly import FunctionTable
from symdeg.sympoly import (
    FrequencyVector,
    SymPolynomial,
    ZPolynomial,
    check_partition,
    distinct_permutations,
    eval_msym,
    msym_columns,
    msym_to_zpoly,
    multinomial,
    partitions,
    symmetrize_variables,
)


# ---------------------------------------------------------------------------
# partitions and validation


def test_partitions_of_three_in_order():
    assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]


def test_partitions_of_zero():
    assert list(partitions(0)) == [()]


def test_partitions_respect_max_parts():
    assert list(partitions(4, max_parts=2)) == [(4,), (3, 1), (2, 2)]


def test_partitions_counts():
    # partition numbers p(1)..p(7)
    expected = [1, 2, 3, 5, 7, 11, 15]
    got = [sum(1 for _ in partitions(k)) for k in range(1, 8)]
    assert got == expected


def test_partitions_reverse_lex_order():
    for total in range(1, 9):
        seq = list(partitions(total))
        assert seq == sorted(seq, reverse=True)
        assert all(sum(lam) == total for lam in seq)


def test_partitions_match_brute_force_order():
    # every composition of the total (one per set of cut points) that is
    # non-increasing, sorted descending, for every bound on the number of
    # parts
    for total in range(15):
        every = [()] if total == 0 else []
        for k in range(total):
            for cuts in itertools.combinations(range(1, total), k):
                ends = (0, *cuts, total)
                parts = tuple(b - a for a, b in zip(ends, ends[1:]))
                if list(parts) == sorted(parts, reverse=True):
                    every.append(parts)
        for max_parts in [None, *range(total + 2)]:
            expected = sorted(
                (parts for parts in every if max_parts is None or len(parts) <= max_parts),
                reverse=True,
            )
            assert list(partitions(total, max_parts)) == expected, (total, max_parts)


def test_check_partition_rejects_bad_input():
    cases = [
        ((2, 1.0), "integers"),
        ((True,), "integers"),
        (("a", 1), "integers"),
        ((1, 2), "non-increasing"),
        ((3, 3, 4), "non-increasing"),
        ((2, 0), "positive"),
        ((-1,), "positive"),
    ]
    for parts, fault in cases:
        with pytest.raises(ValueError, match=f"partition parts must be {fault}"):
            check_partition(parts)


def test_distinct_permutations_match_set_of_permutations():
    for size in range(7):
        for items in itertools.combinations_with_replacement(range(4), size):
            expected = sorted(set(itertools.permutations(items)))
            assert list(distinct_permutations(items)) == expected
            assert list(distinct_permutations(reversed(items))) == expected


def test_multinomial_counts_distinct_permutations():
    for size in range(7):
        for items in itertools.combinations_with_replacement(range(4), size):
            ks = [items.count(v) for v in set(items)]
            assert multinomial(ks) == len(list(distinct_permutations(items)))


# ---------------------------------------------------------------------------
# FrequencyVector


def test_from_counts_canonicalizes():
    a = FrequencyVector.from_counts((0, 2, 1))
    b = FrequencyVector.from_counts((2, 1, 0))
    assert a == b
    assert a.parts == (2, 1)
    assert a.m == 3
    assert a.weight == 3
    assert a.counts() == (2, 1, 0)


def test_of_function():
    f = FunctionTable(3, 2, (2, 1, 2))
    v = FrequencyVector.of_function(f)
    assert v == FrequencyVector(2, (2, 1))


def test_frequency_vector_rejects_non_integer_parts():
    with pytest.raises(ValueError, match="partition parts must be integers"):
        FrequencyVector(3, (2.5, 1))


@pytest.mark.parametrize(
    "m, parts",
    [(3, (1, 2)), (3, (2, 0)), (3, (2, -1)), (3, (True, 1)), (0, ()), (True, (1,)), (2.0, (1,))],
)
def test_frequency_vector_refuses_what_is_no_class(m, parts):
    with pytest.raises(ValueError):
        FrequencyVector(m, parts)


@pytest.mark.parametrize("counts", [(2.5, 1), (True, 2), (1.0, 1), (-1, 2)])
def test_from_counts_rejects_invalid_counts(counts):
    with pytest.raises(ValueError, match="counts must be non-negative integers"):
        FrequencyVector.from_counts(counts)


def test_too_many_parts_rejected():
    with pytest.raises(ValueError):
        FrequencyVector(2, (1, 1, 1))
    with pytest.raises(ValueError):
        FrequencyVector.from_counts((-1, 2))


# ---------------------------------------------------------------------------
# eval_msym


def test_eval_msym_hand_values():
    assert eval_msym((1, 1), FrequencyVector.from_counts((1, 1))) == 1
    # z1^2 + z2^2 at (2, 0)
    assert eval_msym((2,), FrequencyVector.from_counts((2, 0))) == 4
    # z1 + z2 at (2, 2)
    assert eval_msym((1,), FrequencyVector.from_counts((2, 2))) == 4
    # sum of z_i^2 z_j over i != j at (2, 1, 1)
    assert eval_msym((2, 1), FrequencyVector.from_counts((2, 1, 1))) == 14


def test_eval_msym_empty_partition_is_one():
    assert eval_msym((), FrequencyVector.from_counts((3, 0))) == 1


def test_eval_msym_long_partition_is_zero():
    z = FrequencyVector.from_counts((2, 1, 0))
    assert eval_msym((1, 1, 1), z) == 0  # third coordinate is zero
    assert eval_msym((1, 1, 1, 1), z) == 0  # longer than m


def direct_msym_value(lam, counts):
    """Independent oracle: materialize every distinct monomial, then evaluate."""
    m = len(counts)
    if len(lam) > m:
        return Fraction(0)
    monomials = set()
    for positions in itertools.combinations(range(m), len(lam)):
        for exps in set(itertools.permutations(lam)):
            monomials.add(tuple(zip(positions, exps)))
    total = Fraction(0)
    for mono in monomials:
        term = Fraction(1)
        for pos, exp in mono:
            term *= Fraction(counts[pos]) ** exp
        total += term
    return total


def test_eval_msym_matches_direct_expansion():
    for n in range(1, 5):
        for m in range(1, 4):
            classes = {
                FrequencyVector.of_function(f) for f in FunctionTable.all(n, m)
            }
            for weight in range(0, 5):
                for lam in partitions(weight):
                    for z in classes:
                        assert eval_msym(lam, z) == direct_msym_value(lam, z.counts())


def test_numerators_match_direct_expansion_exhaustively():
    # every class of weight n <= 7, without and with a zero coordinate,
    # against every partition of weight <= n: one numerators call per
    # partition over all the points of its weight, and eval_msym at each
    for n in range(0, 8):
        points = [
            FrequencyVector(m, parts)
            for parts in partitions(n)
            for m in (len(parts), len(parts) + 1)
            if m >= 1
        ]
        for weight in range(n + 1):
            for lam in partitions(weight):
                for m in {z.m for z in points}:
                    at_m = [z for z in points if z.m == m]
                    den, nums = SymPolynomial(m, {lam: 1}).numerators(at_m)
                    assert den == 1
                    assert nums == [direct_msym_value(lam, z.counts()) for z in at_m]
                for z in points:
                    assert eval_msym(lam, z) == direct_msym_value(lam, z.counts())


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 3) | st.integers(0, 10**12), min_size=1, max_size=5),
    st.integers(0, 6),
)
def test_numerators_match_direct_expansion_on_arbitrary_counts(counts, degree):
    # one polynomial holding every partition of weight <= degree, with a
    # distinct coefficient each, so no term's value can hide another's
    z = FrequencyVector.from_counts(counts)
    basis = [lam for w in range(degree + 1) for lam in partitions(w)]
    coeffs = {lam: Fraction(1, k + 2) for k, lam in enumerate(basis)}
    q = SymPolynomial(z.m, coeffs)
    den, (num,) = q.numerators([z])
    expected = sum(c * direct_msym_value(lam, counts) for lam, c in coeffs.items())
    assert Fraction(num, den) == q.evaluate(z) == expected
    for lam in basis:
        assert eval_msym(lam, z) == direct_msym_value(lam, counts)


def weights_up_to(degree, max_parts):
    """Every partition of weight <= degree with at most `max_parts` parts,
    by weight, each weight in the order of `partitions`: the order of the
    columns of `msym_columns(points, degree, max_parts)`."""
    return [lam for w in range(degree + 1) for lam in partitions(w, max_parts=max_parts)]


def column_rows(points, degree, max_parts):
    """The partitions of all blocks of `msym_columns` in order, and each
    point's row of their columns' entries."""
    pairs = [pair for block in msym_columns(points, degree, max_parts) for pair in block]
    columns = [column for _, column in pairs]
    return [lam for lam, _ in pairs], [list(row) for row in zip(*columns)]


def test_msym_rows_matches_direct_expansion():
    # every class of weight n <= 7 under the LP's part cap min(n, m) at
    # every degree and every range m <= n + 1; for m < n the cap bounds
    # the length at m, so inserting a part can leave the basis
    direct = functools.cache(direct_msym_value)  # a value reads only the nonzero counts
    for n in range(1, 8):
        for m in range(1, n + 2):
            points = list(partitions(n, max_parts=m))
            for d in range(n + 1):
                basis = weights_up_to(d, min(n, m))
                expected = [[direct(lam, parts) for lam in basis] for parts in points]
                assert column_rows(points, d, min(n, m)) == (basis, expected)


@settings(max_examples=200, deadline=None)
@example(counts=[1, 1, 1], degree=2, cap=1)  # m_(1) = m_(2) = 3, past a cap of 1
@given(
    st.lists(st.integers(0, 4) | st.integers(0, 10**6), max_size=6),
    st.integers(0, 5),
    st.integers(0, 4),
)
def test_msym_rows_match_direct_expansion_on_arbitrary_counts(counts, degree, cap):
    # zeros anywhere, and more nonzero counts than the part cap: an entry
    # is m_lambda at the whole point, whatever the cap
    basis = weights_up_to(degree, cap)
    expected = [direct_msym_value(lam, counts) for lam in basis]
    assert column_rows([counts], degree, cap) == (basis, [expected])


def test_msym_rows_extend_rows_in_place():
    # a generator drawn block by block: after block d, the columns drawn
    # equal a fresh call at degree d under the same part cap, and no
    # column drawn earlier is replaced or changed by a later block
    for n in range(1, 8):
        for cap in range(n + 2):
            points = list(partitions(n, max_parts=cap))
            drawn = []
            for d, block in enumerate(msym_columns(points, n, cap)):
                kept = [(lam, column, column[:]) for lam, column in drawn]
                drawn += block
                fresh = [pair for b in msym_columns(points, d, cap) for pair in b]
                assert drawn == fresh, (n, cap, d)
                for (_, now), (_, column, copy) in zip(drawn, kept):
                    assert now is column and column == copy
            assert d == n


def insertion_table_rows(points, basis):
    """A second exact route to the m_lambda rows, independent of the
    power-sum recurrence: the truncated expansion of
    prod_i (1 + sum_p z_i^p x_p) over an insertion table.  For each
    basis index i, the table holds the pairs (p, j) with basis[j] =
    basis[i] with p inserted; each coordinate v of a point adds c * v^p
    from every entry c of the point's row into the entry the table names."""
    index = {lam: j for j, lam in enumerate(basis)}
    if not basis or basis[0] != () or len(index) != len(basis):
        raise ValueError("the basis must start with () and hold each partition once")
    top = max(map(sum, basis))
    table: list[tuple[int, list[tuple[int, int]]]] = []  # only indices with children
    parents = [0] * len(basis)
    for i, lam in enumerate(basis):
        children = []
        for p in range(1, top - sum(lam) + 1):
            k = 0
            while k < len(lam) and lam[k] >= p:
                k += 1
            j = index.get(lam[:k] + (p,) + lam[k:])
            if j is not None:
                children.append((p, j))
                parents[j] += 1
        if children:
            table.append((i, children))
    # a partition with k distinct parts has k parents, one per removed part
    if any(count != len(set(lam)) for count, lam in zip(parents, basis)):
        raise ValueError("the basis must be closed under removing a part")
    rows = []
    for point in points:
        row = [1] + [0] * (len(basis) - 1)
        for v in point:
            powers = [v**p for p in range(top + 1)]
            grown = row[:]
            for i, children in table:
                c = row[i]
                if c:
                    for p, j in children:
                        grown[j] += c * powers[p]
            row = grown
        rows.append(row)
    return rows


def assert_rows_match_insertion_table(ns, degrees):
    """At every class of each weight n in `ns` and every d in `degrees`,
    the blocks of `msym_columns` at degree d and part cap n list the
    partitions of weight <= d by weight, and their columns, read row by
    row, equal `insertion_table_rows` over those partitions."""
    for n in ns:
        points = list(partitions(n))
        for d in degrees:
            basis = weights_up_to(d, n)
            expected = insertion_table_rows(points, basis)
            assert column_rows(points, d, n) == (basis, expected), (n, d)


def test_msym_rows_match_the_insertion_table():
    # n = 13..18 at d <= 10 runs as a CI step of its own
    assert_rows_match_insertion_table(range(1, 13), range(9))


def test_msym_rows_takes_counts_with_zeros():
    width = len(weights_up_to(3, 4))
    assert column_rows([(0, 2, 0, 1, 1)], 3, 4) == column_rows([(2, 1, 1)], 3, 4)
    assert column_rows([(), (0, 0)], 3, 4)[1] == [[1] + [0] * (width - 1)] * 2


def test_msym_rows_at_degree_zero_or_cap_zero_is_the_constant():
    # the only column is m_() = 1: at degree 0 the one block holds it, and
    # under cap 0 every later block is empty
    points = [(), (0,), (3,), (2, 1, 1), (5, 0, 5)]
    ones = [((), [1] * len(points))]
    for k in range(6):
        assert list(msym_columns(points, 0, k)) == [ones]
    for d in range(6):
        assert list(msym_columns(points, d, 0)) == [ones] + [[]] * d
    assert list(msym_columns([], 2, 3)) == [[((), [])], [((1,), [])], [((2,), []), ((1, 1), [])]]


def test_partition_basis_lists_each_step_before_the_partition_it_feeds():
    # the order contract: block w lists exactly partitions(w, cap), and in
    # that order the recurrence for lambda != () finds mu (lambda without
    # its last part p) and each nu_a (mu with one distinct part a raised
    # to a + p, re-sorted) already drawn
    for d in range(13):
        for k in range(d + 2):
            blocks = list(msym_columns([(2, 1)], d, k))
            drawn = [lam for block in blocks for lam, _ in block]
            assert [[lam for lam, _ in block] for block in blocks] == [
                list(partitions(w, max_parts=k)) for w in range(d + 1)
            ], (d, k)
            index = {lam: j for j, lam in enumerate(drawn)}
            for j, lam in enumerate(drawn[1:], 1):
                mu, p = lam[:-1], lam[-1]
                assert index[mu] < j, (d, k, lam)
                for i, a in enumerate(mu):
                    nu = tuple(sorted(mu[:i] + (a + p,) + mu[i + 1 :], reverse=True))
                    assert index[nu] < j, (d, k, lam, nu)


def test_msym_columns_fail_loudly_out_of_order(monkeypatch):
    # in ascending order (1, 1) comes before the (2,) its recurrence
    # reads, so the lookup by partition raises instead of reading a
    # wrong entry
    ordered = sympoly.partitions
    monkeypatch.setattr(sympoly, "partitions", lambda w, k: iter(sorted(ordered(w, k))))
    with pytest.raises(KeyError):
        list(msym_columns([(2, 1)], 2, 2))


def test_partitions_need_int_arguments():
    for total, max_parts in [(True, None), (2.5, None), (3, 1.0), (3, True), ("3", None)]:
        with pytest.raises(ValueError):
            list(partitions(total, max_parts))
    assert list(partitions(3, None)) == list(partitions(3))


def test_eval_msym_long_all_ones_partition():
    # C(11, 8) distinct monomials, each equal to 1
    assert eval_msym((1,) * 8, FrequencyVector(11, (1,) * 11)) == comb(11, 8) == 165


def test_eval_msym_bound():
    # |m_lambda(z)| <= n^weight * C(m, len(lambda)) whenever sum(z) = n
    for n in range(1, 5):
        for m in range(1, 5):
            for zlam in partitions(n, max_parts=m):
                z = FrequencyVector(m, zlam)
                for weight in range(0, 4):
                    for lam in partitions(weight, max_parts=m):
                        bound = Fraction(n) ** weight * comb(m, len(lam))
                        assert abs(eval_msym(lam, z)) <= bound


# ---------------------------------------------------------------------------
# ZPolynomial and msym_to_zpoly


def test_msym_expansion_small():
    p = msym_to_zpoly((1, 1), 2)
    assert p.terms == {((1, 1), (2, 1)): Fraction(1)}
    q = msym_to_zpoly((2,), 2)
    assert q.terms == {((1, 2),): Fraction(1), ((2, 2),): Fraction(1)}


def test_msym_expansion_monomial_count():
    # number of distinct monomials: C(m, l) * l! / aut(lambda)
    for m in range(1, 5):
        for weight in range(0, 5):
            for lam in partitions(weight):
                p = msym_to_zpoly(lam, m)
                if len(lam) > m:
                    assert p.terms == {}
                else:
                    expected = (
                        comb(m, len(lam))
                        * factorial(len(lam))
                        // prod(factorial(lam.count(p)) for p in set(lam))
                    )
                    assert len(p.terms) == expected
                    assert all(c == 1 for c in p.terms.values())


def test_zpoly_merges_exponents():
    p = ZPolynomial(2, [(((1, 1), (1, 1)), 1)])
    assert p.terms == {((1, 2),): Fraction(1)}


def test_zpoly_arithmetic_and_eval():
    z1 = ZPolynomial.variable(2, 1)
    z2 = ZPolynomial.variable(2, 2)
    p = z1 * z1 - z2.scale(3) + ZPolynomial.constant(2, 1)
    assert p.evaluate([2, 1]) == 4 - 3 + 1
    assert p.degree() == 2
    assert ZPolynomial(2).degree() is None


def test_zpoly_rejects_bad_variables():
    with pytest.raises(ValueError):
        ZPolynomial(2, [(((3, 1),), 1)])
    with pytest.raises(ValueError):
        ZPolynomial(2, [(((1, 0),), 1)])


# ---------------------------------------------------------------------------
# SymPolynomial


def test_sym_constructor_drops_long_partitions():
    q = SymPolynomial(2, {(1, 1, 1): 5, (2,): 1})
    assert q.terms == {(2,): Fraction(1)}


def test_sym_constructor_rejects_non_integer_parts():
    with pytest.raises(ValueError, match="partition parts must be integers"):
        SymPolynomial(2, {(1.9,): 1})


def test_sym_evaluate_example():
    # 2*m_(1,1) + 3 at class {2,1} over m=2: 2*2 + 3... m_(1,1)(2,1) = 2
    q = SymPolynomial(2, {(1, 1): 2, (): 3})
    assert q.evaluate(FrequencyVector.from_counts((2, 1))) == 7


def test_sym_numerators_example():
    # over the denominator 12: 12 * (m_() / 3 - m_(1) / 4 + m_(1, 1, 1) / 6)
    # at (3), (2, 1) and (1, 1, 1) over m = 4; the last term is 0 at the
    # first two, and longer than every point it is 0 at all of them
    q = SymPolynomial(4, {(): Fraction(1, 3), (1,): Fraction(-1, 4), (1, 1, 1): Fraction(1, 6)})
    points = [FrequencyVector(4, parts) for parts in ((3,), (2, 1), (1, 1, 1))]
    assert q.numerators(points) == (12, [4 - 9, 4 - 9, 4 - 9 + 2])
    assert q.numerators(points[:2]) == (12, [-5, -5])
    assert q.numerators([]) == (12, [])
    assert SymPolynomial.zero(4).numerators(points) == (1, [0, 0, 0])


def test_sym_degree_and_zero():
    assert SymPolynomial.zero(3).degree() is None
    assert SymPolynomial.constant(3, 4).degree() == 0
    assert SymPolynomial(3, {(2, 1): 1, (1,): 9}).degree() == 3


def test_sym_sorted_coeffs_order():
    q = SymPolynomial(4, {(1, 1): 1, (2,): 1, (1,): 1, (): 1, (2, 1): 1})
    assert [lam for lam, _ in q.sorted_terms()] == [
        (),
        (1,),
        (2,),
        (1, 1),
        (2, 1),
    ]


def test_sym_dimension_mismatch():
    with pytest.raises(ValueError):
        SymPolynomial(2, {(1,): 1}).evaluate(FrequencyVector(3, (1,)))
    with pytest.raises(ValueError, match="3 variables"):
        SymPolynomial(2, {(1,): 1}).numerators([FrequencyVector(2, (1,)), FrequencyVector(3, (1,))])
    with pytest.raises(ValueError):
        SymPolynomial(2, {(1,): 1}) + SymPolynomial(3, {(1,): 1})


def test_sym_serialization_shape_and_round_trip():
    q = SymPolynomial(3, {(2, 1): Fraction(-1, 3), (): 2})
    d = q.to_dict()
    assert d["vars"] == "z" and d["m"] == 3
    assert d["terms"][0] == {"partition": [], "coeff": "2"}
    assert d["terms"][1] == {"partition": [2, 1], "coeff": "-1/3"}
    assert SymPolynomial.from_dict(d) == q


def test_sym_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        SymPolynomial.from_dict({"vars": "y", "m": 2, "terms": []})
    with pytest.raises(ValueError):
        SymPolynomial.from_dict({"vars": "z", "terms": []})
    with pytest.raises(ValueError):
        SymPolynomial.from_dict({"vars": "z", "m": 2, "terms": [{"coeff": "1"}]})


# ---------------------------------------------------------------------------
# symmetrize_variables


def permute_zpoly(p: ZPolynomial, sigma) -> ZPolynomial:
    return ZPolynomial(
        p.m,
        [
            (tuple(sorted((sigma[var - 1], exp) for var, exp in mono)), c)
            for mono, c in p.terms.items()
        ],
    )


def full_group_average(p: ZPolynomial) -> ZPolynomial:
    total = ZPolynomial(p.m)
    count = 0
    for sigma in itertools.permutations(range(1, p.m + 1)):
        total = total + permute_zpoly(p, sigma)
        count += 1
    return total.scale(Fraction(1, count))


def test_symmetrize_variables_hand_values():
    # z1^2 over two variables averages to (1/2) m_(2)
    p = ZPolynomial(2, [(((1, 2),), 1)])
    assert symmetrize_variables(p) == SymPolynomial(2, {(2,): Fraction(1, 2)})
    # z1 z2 over two variables is already symmetric: m_(1,1)
    p = ZPolynomial(2, [(((1, 1), (2, 1)), 1)])
    assert symmetrize_variables(p) == SymPolynomial(2, {(1, 1): 1})
    # z1 over three variables averages to (1/3) m_(1)
    p = ZPolynomial(3, [(((1, 1),), 1)])
    assert symmetrize_variables(p) == SymPolynomial(3, {(1,): Fraction(1, 3)})


zmonomial = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 2)), min_size=0, max_size=3
).map(tuple)

zpolys = st.lists(
    st.tuples(zmonomial, st.fractions(min_value=-4, max_value=4, max_denominator=12)),
    max_size=4,
).map(lambda items: ZPolynomial(3, items))


@given(zpolys)
@settings(max_examples=40, deadline=None)
def test_symmetrize_variables_matches_group_average(p):
    assert symmetrize_variables(p).to_zpoly() == full_group_average(p)


@given(
    st.dictionaries(
        st.sampled_from([(), (1,), (2,), (1, 1), (2, 1), (1, 1, 1), (3,)]),
        st.fractions(min_value=-4, max_value=4, max_denominator=12),
        max_size=4,
    )
)
@settings(max_examples=40, deadline=None)
def test_symmetrize_variables_fixes_symmetric_input(coeffs):
    q = SymPolynomial(3, coeffs)
    assert symmetrize_variables(q.to_zpoly()) == q


def test_expansion_evaluates_like_basis():
    for m in range(1, 4):
        for weight in range(0, 4):
            for lam in partitions(weight, max_parts=m):
                p = msym_to_zpoly(lam, m)
                for counts in itertools.product(range(3), repeat=m):
                    z = FrequencyVector.from_counts(counts)
                    assert p.evaluate(counts) == eval_msym(lam, z)
