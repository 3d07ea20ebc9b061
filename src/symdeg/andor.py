"""Two-level AND-OR trees and their reduction to one-to-one testing.

The tree on n*n Boolean variables is the AND over n groups of the OR over
n consecutive variables: group i spans positions (i-1)*n + 1 .. i*n.
Setting x_{(i-1)n+j} = 1 iff f(j) = i turns the tree into the one-to-one
test for f:[n] -> [n]: group i's OR says "output i is hit", and the AND
says every output is hit, which for equal domain and range is exactly
injectivity.  Substituting the indicator y[j,i] for position (i-1)n+j
therefore maps any polynomial in the tree's variables to an indicator
polynomial with the same values on functions, so a low-degree
approximation of the tree would yield one for the one-to-one test, and
degree lower bounds travel the other way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .degreelp import approx_degree
from .properties import ELEMENT_DISTINCTNESS
from .sparse import CoeffLike, SparsePolynomial
from .ypoly import FunctionTable, YPolynomial

XMonomial = tuple[int, ...]


@dataclass(frozen=True)
class BoolAssignment:
    """An assignment to the n*n tree variables, 1-based positions."""

    n: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(self.bits))
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"the tree needs an int n >= 1, got {self.n!r}")
        if len(self.bits) != self.n * self.n:
            raise ValueError(f"expected {self.n * self.n} bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    def bit(self, position: int) -> int:
        return self.bits[position - 1]


def andor_value(x: BoolAssignment) -> int:
    """AND over the n groups of the OR over each group's n variables."""
    n = x.n
    for i in range(n):
        group = x.bits[i * n : (i + 1) * n]
        if not any(group):
            return 0
    return 1


def position_factor(position: int, n: int) -> tuple[int, int]:
    """The indicator (row, column) substituted for a tree position:
    position (i-1)*n + j becomes y[j, i]."""
    if not 1 <= position <= n * n:
        raise ValueError(f"position {position} outside 1..{n * n}")
    i = (position - 1) // n + 1
    j = (position - 1) % n + 1
    return (j, i)


def f_to_assignment(f: FunctionTable) -> BoolAssignment:
    """The tree assignment of a function: position (i-1)*n + j is 1 iff f(j) = i."""
    if f.n != f.m:
        raise ValueError(f"the tree encoding needs n = m, got {f.n}x{f.m}")
    n = f.n
    bits = [0] * (n * n)
    for j in range(1, n + 1):
        i = f(j)
        bits[(i - 1) * n + (j - 1)] = 1
    return BoolAssignment(n, tuple(bits))


class XPolynomial(SparsePolynomial):
    """Multilinear polynomial in the n*n tree variables.  A key is the
    sorted tuple of distinct positions; keys sort by size, then position."""

    __slots__ = ("n",)
    _SHAPE = ("n",)
    _VARS, _FIELD = "x", "factors"

    def __init__(
        self,
        n: int,
        terms: Mapping[Iterable[int], CoeffLike] | Iterable[tuple[Iterable[int], CoeffLike]] = (),
    ):
        self.n = n
        super().__init__(terms)

    def _key(self, positions: Iterable[int]) -> XMonomial:
        key = set(positions)
        for p in key:
            if type(p) is not int:
                raise ValueError(f"position {p!r} is not an integer")
            if not 1 <= p <= self.n * self.n:
                raise ValueError(f"position {p} outside 1..{self.n * self.n}")
        return tuple(sorted(key))

    @staticmethod
    def _show(mono: XMonomial) -> str:
        return "*".join(f"x{p}" for p in mono)

    def evaluate(self, x: BoolAssignment) -> Fraction:
        if x.n != self.n:
            raise ValueError(f"assignment for n={x.n}, polynomial for n={self.n}")
        return self._value_at({p for p, bit in enumerate(x.bits, 1) if bit})


def substitute(p: XPolynomial) -> YPolynomial:
    """Rename tree variables to indicators and normalize.  For every f,
    the result at f equals p at f's tree assignment; the degree never grows."""
    n = p.n
    return YPolynomial(
        n,
        n,
        [
            (tuple(position_factor(pos, n) for pos in mono), c)
            for mono, c in p.sorted_terms()
        ],
    )


def degree_chain(n: int, eps: Fraction | int | str = Fraction(1, 3)) -> dict:
    """The lower-bound chain for the tree on n*n variables: its approximate
    degree is at least that of the one-to-one test on [n] -> [n], computed
    exactly."""
    cert = approx_degree(ELEMENT_DISTINCTNESS, n, n, eps)
    return {
        "n": n,
        "tree_variables": n * n,
        "eps": str(Fraction(eps)),
        "one_to_one_degree": cert.degree,
        "andor_degree_lower_bound": cert.degree,
        "query_lower_bound": cert.query_lower_bound,
    }
