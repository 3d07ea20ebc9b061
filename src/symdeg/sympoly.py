"""Symmetric polynomials in frequency variables, indexed by partitions.

The frequency representation of f:[N] -> [M] counts preimages:
z_j = |f^-1(j)|.  A polynomial that is invariant under permuting the M
frequency variables is stored by its coordinates in the monomial symmetric
basis {m_lambda}: for a partition lambda = (l1 >= l2 >= ... >= lk > 0),
m_lambda is the sum of all distinct monomials z_{i1}^{l1} * ... * z_{ik}^{lk}
over distinct variable indices, each distinct monomial counted once.
A partition longer than the variable count denotes the zero basis element
and is never stored.

Every m_lambda at a point z comes out of the power sums P_r(z) = sum_i
z_i^r by the product rule for m_mu * p_r (Macdonald, Symmetric Functions
and Hall Polynomials, 1995, ch. I sections 2 and 6).  Take lambda != ()
with smallest part p, and let mu be lambda with one p removed.  Times
z_i^p, a monomial of m_mu either gives the exponent p to a variable
outside its support, which makes a monomial of m_lambda, or raises one of
its exponents a to a + p, which makes a monomial of m_{nu_a}: nu_a is mu
with one a raised to a + p, or lambda with one a and one p merged.  Each
monomial of m_lambda arises mult_p(lambda) times (once per variable of
exponent p), and each monomial of m_{nu_a} c_a times, c_a being the
number of parts equal to a + p in nu_a, so

    m_mu * P_p = mult_p(lambda) * m_lambda + sum_a c_a * m_{nu_a}

over the distinct parts a of mu.  This is an identity of polynomials in
any number of variables, so at any integer point, whatever its number of
nonzero coordinates, m_lambda(z) is the exact quotient

    (m_mu(z) * P_p(z) - sum_a c_a * m_{nu_a}(z)) // mult_p(lambda).

`msym_columns(points, d, k)` is the one place that evaluates m_lambda:
a lazy generator that yields, for each weight w = 0..d in turn, the block
of columns [m_lambda(point) for point in points], one per partition
lambda of w with at most k parts, in the reverse-lexicographic order of
`partitions`.  mu weighs less than lambda, and each nu_a weighs the same
with one part fewer and comes earlier in that order, so every column is
computed once, from columns the generator already holds, with
O(distinct parts) integer operations per entry.  A column is one chain
of lazy `map`s, drawn into a list once: m_mu * P_p entry by entry, then
minus c_a * m_{nu_a} for each distinct part a, then floor division by
mult_p(lambda), so the work per entry runs in C.  Which mu, p, nu_a,
c_a and mult_p(lambda) each lambda needs depends on its weight w and
the part cap alone, not on the points, so it is planned once per
process and per (w, min(cap, w)) (`_msym_plan`, over the cached
`_partition_table`): the Python work per column is one read of its
plan entry and one `map` per step, and no partition is walked or built
per call.  nu_a is mu with a + p put in at its place, not sorted again,
and the power sums P_w at weight w are the sums of the powers z_i^w,
each a `map` over the weight w - 1 powers.  It looks mu and each nu_a
up by partition, so a wrong order fails with a KeyError, never with a
wrong number.  A caller that needs the partitions reads
them from the blocks: `build_lp` turns the blocks into its columns and
rows, and the degree search draws one block per degree.
`SymPolynomial.numerators` is the one rule that evaluates a symmetric
polynomial: the sum of coefficient times column over the partitions it
holds, in integers over the common denominator of its coefficients.
`SymPolynomial.evaluate` and `eval_msym` are its one-point `Fraction`
views.

`ZPolynomial` is the non-symmetric companion: a polynomial in the named
variables z_1..z_M with arbitrary integer exponents.  It appears as the
intermediate of the symmetrization pipeline and as the input of
`symmetrize_variables`, which averages it over all M! variable
permutations and lands back in the m_lambda basis.

The orbits behind every average here are orderings of a multiset: one walk,
`distinct_permutations`, lists them, and one count, `multinomial`, gives
how many there are.  Every class size and every orbit weight in the
package is a `multinomial` call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, repeat
from math import comb, lcm
from operator import floordiv, ge, mul, sub
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .sparse import CoeffLike, SparsePolynomial, concat_product
from .ypoly import FunctionTable

Partition = tuple[int, ...]


def check_partition(parts: Iterable[int]) -> Partition:
    """Validate and return a partition: positive parts, non-increasing."""
    parts = tuple(parts)
    if not {*map(type, parts)} <= {int}:
        raise ValueError(f"partition parts must be integers, got {parts}")
    if not all(map(ge, parts, parts[1:])):
        raise ValueError(f"partition parts must be non-increasing, got {parts}")
    if parts and parts[-1] <= 0:
        raise ValueError(f"partition parts must be positive, got {parts}")
    return parts


def check_counts(counts: Iterable[int]) -> tuple[int, ...]:
    """Validate and return an ordered frequency vector: every count a
    non-negative int (a bool is refused, as is any float)."""
    counts = tuple(counts)
    if not all(type(c) is int and c >= 0 for c in counts):
        raise ValueError(f"counts must be non-negative integers, got {counts}")
    return counts


def check_degree(degree: int) -> None:
    """The one degree rule: an int >= 0 (a bool is refused)."""
    if type(degree) is not int or degree < 0:
        raise ValueError(f"degree must be >= 0 and an int, got {degree!r}")


def _part_slots(total: int, max_parts: int | None) -> int:
    """The one rule for `partitions`' arguments: `total` an int >= 0 and
    `max_parts` an int or None (a bool is refused for either).  Returns
    the slots a partition of `total` can fill, min(max_parts, total)
    clamped at 0, so every cap >= total gives the same slots."""
    if type(total) is not int or type(max_parts) not in (int, type(None)):
        raise ValueError(f"partitions needs int arguments, got {total!r}, {max_parts!r}")
    if total < 0:
        raise ValueError("cannot partition a negative total")
    return total if max_parts is None else max(0, min(max_parts, total))


def partitions(total: int, max_parts: int | None = None) -> Iterator[Partition]:
    """Partitions of `total` in reverse-lexicographic order: (n), ..., (1,..,1).

    `max_parts` (an int, or None for no bound) bounds the number of parts.
    total = 0 yields exactly the empty partition.  Each step lowers the
    rightmost part that can drop by one while the parts from it on still
    fit in the slots left, each at most its new value, and refills those
    slots greedily from the left: the largest partition below the current
    one.
    """
    slots = _part_slots(total, max_parts)
    if total and not slots:
        return
    parts = [total] if total else []
    while True:
        yield tuple(parts)
        rest = 0
        for i in reversed(range(len(parts))):
            rest += parts[i]  # sum(parts[i:])
            lowered = parts[i] - 1
            if lowered and rest <= (slots - i) * lowered:
                break
        else:
            return
        full, left = divmod(rest, lowered)
        parts[i:] = [lowered] * full
        if left:
            parts.append(left)


# The shape tables below depend on two ints alone, so each is derived once
# per process and shared by every call, whatever the points or the range m.
# A caller checks its arguments by `_part_slots` before the lookup: the
# cache would take True or 1.0 for the key 1.


@lru_cache(maxsize=None)
def _partition_table(total: int, slots: int) -> tuple[Partition, ...]:
    """`partitions(total, slots)` as a tuple, for the `_part_slots` of a
    checked (total, max_parts)."""
    return tuple(partitions(total, slots))


@lru_cache(maxsize=None)
def _msym_plan(w: int, slots: int) -> tuple[tuple, ...]:
    """The recurrence of the module docstring at weight w >= 1, planned
    once: for each lambda of `_partition_table(w, slots)` in order, the
    tuple (lambda, mu, p, ((nu_a, c_a), ...), mult_p(lambda)), one (nu_a,
    c_a) per distinct part a of mu.  nu_a is mu with a + p put in at its
    place, not sorted again."""
    plan = []
    for lam in _partition_table(w, slots):
        mu, p = lam[:-1], lam[-1]
        steps = []
        j = 0  # mu[:j] are the parts >= a + p, so nu goes in at j
        for i, a in enumerate(mu):
            if i and a == mu[i - 1]:  # only the first a of each distinct part
                continue
            b = a + p
            while mu[j] >= b:
                j += 1
            steps.append((mu[:j] + (b,) + mu[j:i] + mu[i + 1 :], 1 + mu.count(b)))
        plan.append((lam, mu, p, tuple(steps), lam.count(p)))
    return tuple(plan)


def distinct_permutations(items: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """The distinct orderings of a multiset, each once, in lexicographic
    order.  Each step is the classical next-permutation move, so the cost
    grows with the number of distinct orderings, not with len(items)!."""
    a = sorted(items)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


def multinomial(ks: Iterable[int]) -> int:
    """(k1 + ... + kr)! / (k1! * ... * kr!): the number of distinct orderings
    of a multiset whose distinct items occur k1, ..., kr times, which is the
    number of tuples `distinct_permutations` yields for it."""
    result, total = 1, 0
    for k in ks:
        total += k
        result *= comb(total, k)
    return result


@dataclass(frozen=True)
class FrequencyVector:
    """A frequency class: the multiset of preimage counts of some f:[n] -> [m],
    stored canonically as its nonzero counts in non-increasing order.

    Two functions share a FrequencyVector exactly when one is obtained from
    the other by permuting inputs and renaming outputs, so a value of `m`
    plus the partition `parts` names a whole orbit of functions.
    """

    m: int
    parts: Partition

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", check_partition(self.parts))
        if type(self.m) is not int or self.m < 1:
            raise ValueError(f"a frequency vector needs an int m >= 1, got {self.m!r}")
        if len(self.parts) > self.m:
            raise ValueError(
                f"{len(self.parts)} nonzero counts cannot fit in {self.m} outputs"
            )

    @classmethod
    def _of_partition(cls, m: int, parts: Partition) -> "FrequencyVector":
        """The vector of a partition that `partitions(n, max_parts=m)` has
        just yielded, for an int m >= 1: every rule of `__post_init__`
        already holds, so it is not run again, and the fields are written
        into the instance `__dict__` directly."""
        z = object.__new__(cls)
        fields = z.__dict__
        fields["m"], fields["parts"] = m, parts
        return z

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "FrequencyVector":
        """Canonicalize an ordered tuple of per-output counts (zeros allowed)."""
        counts = check_counts(counts)
        return cls(len(counts), tuple(sorted((c for c in counts if c > 0), reverse=True)))

    @classmethod
    def of_function(cls, f: FunctionTable) -> "FrequencyVector":
        return cls.from_counts(f.frequency_counts())

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def counts(self) -> tuple[int, ...]:
        """The canonical ordered representative: parts padded with zeros."""
        return self.parts + (0,) * (self.m - len(self.parts))


def msym_columns(
    points: Iterable[Sequence[int]], degree: int, max_parts: int
) -> Iterator[list[tuple[Partition, list[int]]]]:
    """For each weight w = 0..degree in turn, the block [(lambda,
    [m_lambda(point) for point in points]) for lambda in partitions(w,
    max_parts)], by the power-sum recurrence of the module docstring, in
    exact integers.  A point is a sequence of counts (zeros change
    nothing) and may have more nonzero counts than `max_parts`: an entry
    is m_lambda at the whole point.  Each column is computed once, when
    its block is drawn, from the columns of the blocks before it and the
    ones before it in its own block.  The degree and the part cap are
    checked (`check_degree`, `_part_slots`) when the first block is
    drawn; each block's recurrence is read from `_msym_plan`.
    """
    check_degree(degree)
    _part_slots(degree, max_parts)
    points = list(points)
    columns = {(): [1] * len(points)}
    yield [((), columns[()])]
    sums: list[list[int]] = [[]]  # sums[p][k] = P_p(points[k]) for p >= 1
    powers = points  # powers[k][i] = points[k][i] ** w at weight w
    for w in range(1, degree + 1):
        if w > 1:
            powers = list(map(list, map(map, repeat(mul), powers, points)))
        sums.append(list(map(sum, powers)))
        block = []
        for lam, mu, p, steps, mult in _msym_plan(w, _part_slots(w, max_parts)):
            column = map(mul, columns[mu], sums[p])
            for nu, c in steps:
                scaled = map(mul, columns[nu], repeat(c)) if c > 1 else columns[nu]
                column = map(sub, column, scaled)
            if mult > 1:
                column = map(floordiv, column, repeat(mult))
            columns[lam] = column = list(column)
            block.append((lam, column))
        yield block


def eval_msym(lam: Partition, z: FrequencyVector) -> Fraction:
    """Value of the monomial symmetric basis element m_lambda at z: the
    polynomial m_lambda itself, evaluated by `SymPolynomial.evaluate`.
    The empty partition evaluates to 1, and a lambda longer than the number
    of nonzero coordinates to 0 (for one longer than m, by convention).
    To evaluate many partitions or many points, call `msym_columns` or
    `SymPolynomial.numerators` once.
    """
    return SymPolynomial(z.m, [(lam, 1)]).evaluate(z)


ZMonomial = tuple[tuple[int, int], ...]  # sorted ((variable, exponent), ...), exponents >= 1


class ZPolynomial(SparsePolynomial):
    """Polynomial in the named variables z_1..z_m with integer exponents.
    A key is the sorted tuple of (variable, exponent) pairs; keys sort
    plainly.  It has no JSON form."""

    __slots__ = ("m",)
    _SHAPE = ("m",)

    def __init__(
        self,
        m: int,
        terms: Mapping[ZMonomial, CoeffLike] | Iterable[tuple[ZMonomial, CoeffLike]] = (),
    ):
        self.m = m
        super().__init__(terms)

    def _key(self, mono: Iterable[tuple[int, int]]) -> ZMonomial:
        merged: dict[int, int] = {}
        for var, exp in mono:
            if not 1 <= var <= self.m:
                raise ValueError(f"variable z_{var} outside 1..{self.m}")
            if exp < 1:
                raise ValueError(f"exponent {exp} must be >= 1")
            merged[var] = merged.get(var, 0) + exp
        return tuple(sorted(merged.items()))

    @staticmethod
    def _key_degree(mono: ZMonomial) -> int:
        return sum(e for _, e in mono)

    def _order(self, mono: ZMonomial) -> ZMonomial:
        return mono

    @staticmethod
    def _show(mono: ZMonomial) -> str:
        return "*".join(f"z{var}^{exp}" for var, exp in mono)

    @classmethod
    def constant(cls, m: int, value: CoeffLike) -> "ZPolynomial":
        return cls(m, [((), value)])

    @classmethod
    def variable(cls, m: int, var: int) -> "ZPolynomial":
        return cls(m, [(((var, 1),), 1)])

    __mul__ = concat_product

    def evaluate(self, values: Sequence[CoeffLike]) -> Fraction:
        """Value at the ordered point (z_1, ..., z_m)."""
        if len(values) != self.m:
            raise ValueError(f"expected {self.m} values, got {len(values)}")
        point = [Fraction(v) for v in values]
        total = Fraction(0)
        for mono, c in self.terms.items():
            term = c
            for var, exp in mono:
                term *= point[var - 1] ** exp
            total += term
        return total


def msym_to_zpoly(lam: Partition, m: int) -> ZPolynomial:
    """Expand m_lambda over m named variables: every distinct monomial with
    exponent multiset lambda on distinct variables, each exactly once."""
    lam = check_partition(lam)
    if len(lam) > m:
        return ZPolynomial(m)
    arrangements = list(distinct_permutations(lam))
    terms = (
        (tuple(zip(positions, exps)), 1)
        for positions in combinations(range(1, m + 1), len(lam))
        for exps in arrangements
    )
    return ZPolynomial(m, terms)


class SymPolynomial(SparsePolynomial):
    """Symmetric polynomial over m frequency variables in the m_lambda basis.
    A key is a partition; a partition longer than m is the zero basis
    element and vanishes.  Keys sort by weight, then reverse-lex parts."""

    __slots__ = ("m",)
    _SHAPE = ("m",)
    _VARS, _FIELD = "z", "partition"

    def __init__(
        self,
        m: int,
        terms: Mapping[Iterable[int], CoeffLike] | Iterable[tuple[Iterable[int], CoeffLike]] = (),
    ):
        self.m = m
        super().__init__(terms)

    def _key(self, lam: Iterable[int]) -> Optional[Partition]:
        lam = check_partition(lam)
        return lam if len(lam) <= self.m else None

    _key_degree = staticmethod(sum)

    def _order(self, lam: Partition) -> tuple:
        return (sum(lam), tuple(-p for p in lam))

    @staticmethod
    def _show(lam: Partition) -> str:
        return f"m{list(lam)}"

    @classmethod
    def zero(cls, m: int) -> "SymPolynomial":
        return cls(m)

    @classmethod
    def constant(cls, m: int, value: CoeffLike) -> "SymPolynomial":
        return cls(m, [((), value)])

    def numerators(self, points: Sequence[FrequencyVector]) -> tuple[int, list[int]]:
        """The common denominator D of the coefficients, and D * q(z) as an
        int at each point z, in order (well defined: q is symmetric, so any
        ordering of a class's counts gives the same value).

        One `msym_columns` generator gives the columns of the partitions
        of weight <= deg q with at most as many parts as the longest
        point; a term longer than every point is 0 at all of them."""
        for z in points:
            if z.m != self.m:
                raise ValueError(f"point has {z.m} variables but polynomial has {self.m}")
        den = lcm(*(c.denominator for c in self.terms.values()))
        longest = max((len(z.parts) for z in points), default=0)
        values = [0] * len(points)
        for block in msym_columns((z.parts for z in points), self.degree() or 0, longest):
            for lam, column in block:
                c = self.terms.get(lam)
                if c:
                    k = c.numerator * (den // c.denominator)
                    values = [v + k * u for v, u in zip(values, column)]
        return den, values

    def evaluate(self, z: FrequencyVector) -> Fraction:
        """Value at a frequency class: the one-point view of `numerators`."""
        den, (num,) = self.numerators([z])
        return Fraction(num, den)

    def to_zpoly(self) -> ZPolynomial:
        """Expansion into named variables: the sum of each m_lambda expansion,
        scaled by its coefficient (used by tests)."""
        terms = (
            (mono, c * k)
            for lam, c in self.terms.items()
            for mono, k in msym_to_zpoly(lam, self.m).terms.items()
        )
        return ZPolynomial(self.m, terms)


def symmetrize_variables(p: ZPolynomial) -> SymPolynomial:
    """Average p over all m! permutations of its variables, in closed form.

    A named monomial with exponent multiset lambda averages to m_lambda
    divided by the number of distinct monomials of m_lambda: its orbit under
    the symmetric group is uniform over them.  That number is the multinomial
    of the multiplicities in its exponent vector padded with zeros to m.
    """
    m = p.m
    coeffs: dict[Partition, Fraction] = {}
    for mono, c in p.terms.items():
        exps = [exp for _, exp in mono]
        lam = tuple(sorted(exps, reverse=True))
        orbit = multinomial(Counter(exps + [0] * (m - len(exps))).values())
        coeffs[lam] = coeffs.get(lam, Fraction(0)) + c / orbit
    return SymPolynomial(m, coeffs)
