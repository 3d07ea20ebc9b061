"""Symmetric polynomials in frequency variables, indexed by partitions.

The frequency representation of f:[N] -> [M] counts preimages:
z_j = |f^-1(j)|.  A polynomial that is invariant under permuting the M
frequency variables is stored by its coordinates in the monomial symmetric
basis {m_lambda}: for a partition lambda = (l1 >= l2 >= ... >= lk > 0),
m_lambda is the sum of all distinct monomials z_{i1}^{l1} * ... * z_{ik}^{lk}
over distinct variable indices, each distinct monomial counted once.
A partition longer than the variable count denotes the zero basis element
and is never stored.

Every m_lambda at a point z comes out of one generating function,

    prod_i (1 + sum_{p >= 1} z_i^p x_p) = sum_lambda m_lambda(z) prod_{p in lambda} x_p,

because each factor picks at most one exponent for its coordinate, so a
product term is one distinct monomial.  `msym_rows` expands it over the
coordinates of many points at once, truncated to a basis of partitions
that is closed under removing a part (the LP's columns, or all partitions
of weight <= d).  It builds one insertion table per call: for each basis
partition and each part p, the index of the partition with p inserted.
Each coordinate v of a point then adds c * v^p from every entry c of the
point's row into the entry the table names, so with k coordinates and
P(d) basis partitions a point costs O(k * P(d) * d) exact integer
multiply-adds, with no tuple built and no partition rescanned.
`partition_basis` is the one spelling of "all partitions of weight <= d
with at most k parts", and `SymPolynomial.numerators` is the one rule
that evaluates a symmetric polynomial: one `msym_rows` call over that
basis for all its points, in integers over the common denominator of
its coefficients.  `SymPolynomial.evaluate` and `eval_msym` are its
one-point `Fraction` views.

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
from itertools import combinations
from math import comb, lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .sparse import CoeffLike, SparsePolynomial, concat_product
from .ypoly import FunctionTable

Partition = tuple[int, ...]


def check_partition(parts: Iterable[int]) -> Partition:
    """Validate and return a partition: positive parts, non-increasing."""
    parts = tuple(parts)
    if not all(type(p) is int for p in parts):
        raise ValueError(f"partition parts must be integers, got {parts}")
    for a, b in zip(parts, parts[1:]):
        if a < b:
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


def partitions(total: int, max_parts: int | None = None) -> Iterator[Partition]:
    """Partitions of `total` in reverse-lexicographic order: (n), ..., (1,..,1).

    `max_parts` bounds the number of parts.  total = 0 yields exactly the
    empty partition.
    """
    if total < 0:
        raise ValueError("cannot partition a negative total")
    slots = total if max_parts is None else min(max_parts, total)
    yield from _partitions(total, total, slots)


def partition_basis(degree: int, max_parts: int) -> tuple[Partition, ...]:
    """Every partition of weight <= degree with at most `max_parts` parts,
    by weight, then in the reverse-lexicographic order of `partitions`.
    It starts with () and is closed under removing a part, as `msym_rows`
    needs, and it holds every partition of weight <= degree whose m_lambda
    can be nonzero at a point with at most `max_parts` nonzero counts."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return tuple(lam for w in range(degree + 1) for lam in partitions(w, max_parts=max_parts))


def _partitions(remaining: int, largest: int, room: int) -> Iterator[Partition]:
    """Partitions of `remaining` into at most `room` parts, each at most
    `largest`, in reverse-lexicographic order.  A module function, not a
    closure: a recursive closure refers to itself, and each call would
    leave a reference cycle for the cyclic collector."""
    if remaining == 0:
        yield ()
        return
    if room == 0:
        return
    for head in range(min(largest, remaining), 0, -1):
        for tail in _partitions(remaining - head, head, room - 1):
            yield (head,) + tail


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


def msym_rows(points: Iterable[Sequence[int]], basis: Sequence[Partition]) -> list[list[int]]:
    """For each point (a sequence of counts; zeros change nothing), the
    list [m_lambda(point) for lambda in basis], from the truncated expansion
    of prod_i (1 + sum_p z_i^p x_p) (see the module docstring).

    The basis must start with () and be closed under removing a part: the
    coefficient of a partition then grows only from coefficients of its
    parents, all in the basis, so truncating the expansion to the basis is
    exact.  The insertion table is built once per call: for each basis
    index i, the pairs (p, j) with basis[j] = basis[i] with p inserted; an
    index with no child in the basis is left out.  p is stored with j
    because a child outside the basis is skipped, so the powers of a
    coordinate cannot be taken in sequence.
    """
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


def eval_msym(lam: Partition, z: FrequencyVector) -> Fraction:
    """Value of the monomial symmetric basis element m_lambda at z: the
    polynomial m_lambda itself, evaluated by `SymPolynomial.evaluate`.
    The empty partition evaluates to 1, and a lambda longer than the number
    of nonzero coordinates to 0 (for one longer than m, by convention).
    To evaluate many partitions or many points, call `msym_rows` or
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

        One `msym_rows` call gives every point's row over the partitions
        of weight <= deg q with at most as many parts as the longest
        point; a term longer than every point is 0 at all of them."""
        for z in points:
            if z.m != self.m:
                raise ValueError(f"point has {z.m} variables but polynomial has {self.m}")
        den = lcm(*(c.denominator for c in self.terms.values()))
        basis = partition_basis(self.degree() or 0, max((len(z.parts) for z in points), default=0))
        coeffs = {lam: c.numerator * (den // c.denominator) for lam, c in self.terms.items()}
        weights = [coeffs.get(lam, 0) for lam in basis]
        rows = msym_rows((z.parts for z in points), basis)
        return den, [sum(map(mul, row, weights)) for row in rows]

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
