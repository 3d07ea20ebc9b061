"""The sparse-polynomial core shared by every polynomial kind.

A polynomial is a map from canonical monomial keys to nonzero exact
rational coefficients over a fixed shape: the n x m indicator grid, the
m count variables, or the n*n tree variables.  The core owns what every
kind does the same way: normalizing, merging and zero-dropping terms on
construction, addition, scaling, equality, degree, canonical term order,
evaluation at a 0/1 point, the shared JSON envelope and the printed form.
A sum of many pieces is one constructor call on all their terms, since
the constructor already merges duplicate keys and drops zeros.  A
producer whose terms are canonical by construction hands its dict to
`_canonical`, which checks the shape alone.

A kind supplies its shape fields (`_SHAPE`, in constructor order), a key
normalizer and a few one-line hooks.  The core refuses a shape size that
is not an int >= 1 (a bool or a float included, as `json_int` does), so
every polynomial it builds can be written and read back.  The hooks:

- `_key(raw)`: the canonical key of a raw monomial, or None when the
  monomial vanishes; it raises ValueError for a monomial outside the shape
  or with an entry that is not an int (never truncating one);
- `_key_degree(key)` and `_order(key)`: a key's degree and sort key
  (by default the key's length, then the key);
- `_show(key)`: a non-constant key as text;
- `_VARS`, `_FIELD`, `_encode(key)` and `_decode(value)`: the JSON tag,
  the term field holding the key, and the key's JSON codec (by default a
  list of ints).  A kind without a JSON form leaves out the tag and field.

A multilinear kind (indicators y[i,j], tree positions x_p) evaluates at a
0/1 point through `_value_at(true)`: the sum of the coefficients of the
keys whose factors all lie in the set `true` of factors equal to 1 there.

Reading JSON is strict: a coefficient is a "p/q" string or a JSON integer
and every integer field a JSON integer (`json_fraction`, `json_int`), so a
float can neither reach a coefficient as its binary value nor be truncated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

CoeffLike = Union[Fraction, int, str]


def json_int(value: object, what: str) -> int:
    """A JSON integer field; a float, string or boolean is refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def json_fraction(value: object) -> Fraction:
    """An exact coefficient from JSON: a "p/q" string or a JSON integer."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"coeff must be a 'p/q' string or a JSON integer, got {value!r}")


class SparsePolynomial:
    """Sparse map from canonical monomial keys to nonzero `Fraction`s."""

    __slots__ = ("terms",)
    _SHAPE: tuple[str, ...] = ()

    def __init__(self, terms: Mapping | Iterable[tuple[object, CoeffLike]] = ()):
        for name, value in zip(self._SHAPE, self._shape()):
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        acc: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        key_of = self._key
        for raw, coeff in items:
            key = key_of(raw)
            if key is None:
                continue
            acc[key] = acc.get(key, Fraction(0)) + Fraction(coeff)
        self.terms = {key: c for key, c in acc.items() if c != 0}

    @classmethod
    def _canonical(cls, *args):
        """A polynomial from its shape and a dict already in canonical form:
        canonical keys, each with a nonzero `Fraction`.  The shape is still
        checked; the terms are taken as they are, not copied."""
        poly = cls(*args[:-1])
        poly.terms = args[-1]
        return poly

    def _shape(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in self._SHAPE)

    def _check_shape(self, other: "SparsePolynomial") -> None:
        if self._shape() != other._shape():
            raise ValueError(f"shape mismatch: {self._shape()} vs {other._shape()}")

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if type(other) is not type(self):
            return NotImplemented
        self._check_shape(other)
        merged = dict(self.terms)
        for key, c in other.terms.items():
            merged[key] = merged.get(key, Fraction(0)) + c
        return type(self)(*self._shape(), merged)

    def __neg__(self) -> "SparsePolynomial":
        return self.scale(-1)

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def scale(self, factor: CoeffLike) -> "SparsePolynomial":
        factor = Fraction(factor)
        return type(self)(*self._shape(), {key: c * factor for key, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self._shape(), self.terms) == (other._shape(), other.terms)

    def _value_at(self, true: set) -> Fraction:
        """Value of a multilinear kind at the 0/1 point whose true factors
        are `true`: a key counts when all its factors are true."""
        return sum((c for key, c in self.terms.items() if true.issuperset(key)), Fraction(0))

    def degree(self) -> Optional[int]:
        """Largest degree of a surviving term; None for the zero polynomial
        (kept non-numeric so it cannot leak into arithmetic)."""
        return max(map(self._key_degree, self.terms), default=None)

    _key_degree = staticmethod(len)

    def _order(self, key) -> object:
        return (self._key_degree(key), key)

    def sorted_terms(self) -> list[tuple[object, Fraction]]:
        """Terms in canonical order: by degree, then by key, unless the
        kind orders its keys otherwise."""
        return sorted(self.terms.items(), key=lambda kv: self._order(kv[0]))

    _encode = staticmethod(list)

    @staticmethod
    def _decode(value) -> tuple:
        return tuple(json_int(v, "each entry") for v in value)

    def to_dict(self) -> dict:
        """JSON-ready form; round-trips bit-exactly through from_dict."""
        data: dict = {"vars": self._VARS}
        data.update(zip(self._SHAPE, self._shape()))
        data["terms"] = [
            {self._FIELD: self._encode(key), "coeff": str(c)}
            for key, c in self.sorted_terms()
        ]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SparsePolynomial":
        if data.get("vars") != cls._VARS:
            raise ValueError(f"expected vars={cls._VARS!r}, got vars={data.get('vars')!r}")
        try:
            shape = [json_int(data[name], name) for name in cls._SHAPE]
            terms = []
            for entry in data["terms"]:
                try:
                    key = cls._decode(entry[cls._FIELD])
                    terms.append((key, json_fraction(entry["coeff"])))
                except ValueError as exc:
                    raise ValueError(f"bad term {entry!r}: {exc}") from None
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed {cls._VARS}-polynomial object: {exc}") from exc
        return cls(*shape, terms)

    def __repr__(self) -> str:
        shape = ", ".join(map(str, self._shape()))
        parts = [
            f"{c}*{self._show(key)}" if key else str(c) for key, c in self.sorted_terms()
        ]
        return f"{type(self).__name__}({shape}, {' + '.join(parts) or 0})"


def concat_product(a: SparsePolynomial, b: SparsePolynomial) -> SparsePolynomial:
    """Product for kinds whose keys are factor lists: every pair of terms
    multiplies by concatenating keys, and `_key` renormalizes the result."""
    if type(b) is not type(a):
        return NotImplemented
    a._check_shape(b)
    return type(a)(
        *a._shape(),
        [(ka + kb, ca * cb) for ka, ca in a.terms.items() for kb, cb in b.terms.items()],
    )
