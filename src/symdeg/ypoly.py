"""Multilinear polynomials over function-indicator variables.

A function f:[N] -> [M] is encoded by the N*M Boolean indicators
y[i,j] = 1 iff f(i) = j.  A monomial is a product of such indicators,
stored as a tuple of (row, column) factors, and a polynomial is a sparse
map from monomials to exact rational coefficients.

On assignments that come from actual functions two rewrite rules hold:
a repeated factor is idempotent (y[i,j]^2 = y[i,j]), and two factors that
share a row but name different columns annihilate the whole monomial,
because a row selects exactly one column.  `normalize_monomial` applies
both rules, so every stored monomial has pairwise distinct rows and at
most N factors.  All coefficients are `fractions.Fraction`; no floats
appear anywhere.

`YPolynomial.evaluate(f)` is the value at one function.
`YPolynomial.numerators()` gives the values at all m^N functions, in the
lexicographic order of `FunctionTable.all`, as integer numerators over
one common denominator, from one depth-first walk over the rows: a node
for the prefix f(1..r) carries the sum of the terms that prefix already
completes and the terms it still agrees with, so every term is looked at
once per node, not once per function, and a node at row N-1 emits its M
values at once.  `SymPolynomial.numerators` gives the same shape for a
symmetric polynomial at frequency classes, and `verify_approximation`
judges either from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Iterable, Iterator, Mapping, Optional

from .sparse import CoeffLike, SparsePolynomial, concat_product, json_int

Factor = tuple[int, int]
Monomial = tuple[Factor, ...]


@dataclass(frozen=True)
class FunctionTable:
    """A concrete function f:[n] -> [m], stored as the tuple (f(1), ..., f(n))."""

    n: int
    m: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if type(self.n) is not int or type(self.m) is not int or self.n < 1 or self.m < 1:
            raise ValueError(
                f"a function table needs ints n >= 1 and m >= 1, got n={self.n!r}, m={self.m!r}"
            )
        if len(self.values) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(self.values)}")
        for v in self.values:
            if type(v) is not int:
                raise ValueError(f"values must be ints, got {v!r}")
            if not 1 <= v <= self.m:
                raise ValueError(f"value {v} outside the range 1..{self.m}")

    @classmethod
    def all(cls, n: int, m: int) -> Iterator["FunctionTable"]:
        """All m**n function tables, in lexicographic order of value tuples."""
        for values in product(range(1, m + 1), repeat=n):
            yield cls(n, m, values)

    def __call__(self, i: int) -> int:
        return self.values[i - 1]

    def indicator(self, i: int, j: int) -> int:
        """The variable y[i,j] evaluated at this function: 1 iff f(i) = j."""
        return 1 if self.values[i - 1] == j else 0

    def frequency_counts(self) -> tuple[int, ...]:
        """Preimage sizes (|f^-1(1)|, ..., |f^-1(m)|) in column order."""
        counts = [0] * self.m
        for v in self.values:
            counts[v - 1] += 1
        return tuple(counts)

    def is_one_to_one(self) -> bool:
        return len(set(self.values)) == self.n


def normalize_monomial(factors: Iterable[Factor]) -> Optional[Monomial]:
    """Canonical form of a product of indicator factors, or None if the
    product vanishes on every function assignment.

    Duplicate factors collapse; two factors with the same row and different
    columns force the product to zero.  Surviving factors come back sorted
    by row (rows are distinct after reduction, so row order is total).
    """
    by_row: dict[int, int] = {}
    for i, j in factors:
        seen = by_row.get(i)
        if seen is None:
            by_row[i] = j
        elif seen != j:
            return None
    return tuple(sorted(by_row.items()))


def evaluate_factors(factors: Iterable[Factor], f: FunctionTable) -> int:
    """Product of raw indicator factors at f, without normalizing first."""
    result = 1
    for i, j in factors:
        result *= f.indicator(i, j)
        if result == 0:
            return 0
    return result


class YPolynomial(SparsePolynomial):
    """Sparse polynomial in the indicators y[i,j], kept in normal form.

    Construction normalizes every monomial, merges duplicates and drops
    zero coefficients, so the invariants (distinct rows per monomial,
    no zero terms) hold structurally.  Terms sort by factor count, then
    row-major factors.
    """

    __slots__ = ("n", "m")
    _SHAPE = ("n", "m")
    _VARS, _FIELD = "y", "factors"

    def __init__(
        self,
        n: int,
        m: int,
        terms: Mapping[Iterable[Factor], CoeffLike] | Iterable[tuple[Iterable[Factor], CoeffLike]] = (),
    ):
        self.n = n
        self.m = m
        super().__init__(terms)

    def _key(self, factors: Iterable[Factor]) -> Optional[Monomial]:
        factors = tuple(factors)
        n, m = self.n, self.m
        for i, j in factors:
            if not (type(i) is int and type(j) is int):
                raise ValueError(f"factor ({i!r},{j!r}) needs an integer row and column")
            if not (1 <= i <= n and 1 <= j <= m):
                raise ValueError(f"factor ({i},{j}) outside the {n}x{m} grid")
        return normalize_monomial(factors)

    @staticmethod
    def _show(mono: Monomial) -> str:
        return "*".join(f"y[{i},{j}]" for i, j in mono)

    @staticmethod
    def _encode(mono: Monomial) -> list:
        return [[i, j] for i, j in mono]

    @staticmethod
    def _decode(value) -> Monomial:
        return tuple((json_int(i, "a row"), json_int(j, "a column")) for i, j in value)

    @classmethod
    def zero(cls, n: int, m: int) -> "YPolynomial":
        return cls(n, m)

    @classmethod
    def constant(cls, n: int, m: int, value: CoeffLike) -> "YPolynomial":
        return cls(n, m, [((), value)])

    @classmethod
    def variable(cls, n: int, m: int, i: int, j: int) -> "YPolynomial":
        """The single indicator y[i,j]."""
        return cls(n, m, [(((i, j),), 1)])

    __mul__ = concat_product

    def evaluate(self, f: FunctionTable) -> Fraction:
        """Value at the indicator assignment of f."""
        if (f.n, f.m) != (self.n, self.m):
            raise ValueError(
                f"function is {f.n}->{f.m} but polynomial is over the {self.n}x{self.m} grid"
            )
        return self._value_at(set(enumerate(f.values, 1)))

    def numerators(self) -> tuple[int, list[int]]:
        """The common denominator D of the coefficients, and D * p(f) as an
        int for all m**n functions f, in the order of `FunctionTable.all`.

        One depth-first walk chooses f(1), f(2), ... in turn.  A held term
        is a chain of its factors (row, column) in row order, each link
        carrying the term's numerator; the node for a prefix f(1..r-1)
        holds the running sum of the terms that prefix completes and the
        links of the terms it agrees with so far.  At row r a link at a
        later row passes to every child, sharing the parent's list of them;
        a link (r, j) goes only to child j, as its next link, or into its
        running sum if it was the last.  A child reuses that shared list
        unless a link at its column goes on.  Every link a node at row
        n - 1 holds is at row n, so that node emits its m sums at once.
        Beyond the m**n numerators, the walk holds one node per row:
        O(n * terms) extra memory.  No budget is checked here; the caller
        bounds m**n.
        """
        n, m = self.n, self.m
        den = lcm(*(c.denominator for c in self.terms.values()))
        constant = 0
        held = []  # the first link (row, column, next link, numerator) of each non-constant term
        for mono, c in self.terms.items():
            num = c.numerator * (den // c.denominator)
            link = None
            for i, j in reversed(mono):
                link = (i, j, link, num)
            if link is None:
                constant += num
            else:
                held.append(link)

        def children(r: int, total: int, links: list) -> Iterator[tuple[int, list]]:
            """The running sum and held links of each child f(r) = 1..m of a
            node at row r, made one at a time."""
            passing, named = [], {}
            for link in links:
                if link[0] != r:
                    passing.append(link)
                    continue
                entry = named.get(link[1])
                if entry is None:
                    entry = named[link[1]] = [0, []]
                if link[2] is None:
                    entry[0] += link[3]
                else:
                    entry[1].append(link[2])
            for j in range(1, m + 1):
                entry = named.get(j)
                if entry is None:
                    yield total, passing
                else:
                    yield total + entry[0], passing + entry[1] if entry[1] else passing

        sums: list[int] = []
        path = [iter([(constant, held)])]  # one generator per row of the prefix
        while path:
            node = next(path[-1], None)
            if node is None:
                path.pop()
            elif len(path) == n:
                total, links = node
                leaves = [total] * m
                for link in links:
                    leaves[link[1] - 1] += link[3]
                sums += leaves
            else:
                path.append(children(len(path), *node))
        return den, sums
