"""Reading and writing the shared polynomial JSON files.

All three polynomial kinds share one envelope, distinguished by the
"vars" tag: "y" for indicator polynomials (factors are [row, column]
pairs), "z" for symmetric polynomials (terms carry partitions), and "x"
for tree polynomials (factors are variable positions).  Coefficients are
exact rational strings; writing and re-reading a file reproduces the
polynomial bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .andor import XPolynomial
from .sympoly import SymPolynomial
from .ypoly import YPolynomial

Polynomial = Union[YPolynomial, SymPolynomial, XPolynomial]

_KINDS = {kind._VARS: kind for kind in (YPolynomial, SymPolynomial, XPolynomial)}


def polynomial_to_dict(poly: Polynomial) -> dict:
    if isinstance(poly, tuple(_KINDS.values())):
        return poly.to_dict()
    raise TypeError(f"cannot serialize a {type(poly).__name__}")


def polynomial_from_dict(data: dict) -> Polynomial:
    if not isinstance(data, dict):
        raise ValueError("a polynomial file must hold a JSON object")
    tag = data.get("vars")
    if not isinstance(tag, str) or tag not in _KINDS:
        raise ValueError(
            f"missing or unknown vars tag {tag!r}; expected one of {sorted(_KINDS)}"
        )
    return _KINDS[tag].from_dict(data)


def dumps_polynomial(poly: Polynomial) -> str:
    return json.dumps(polynomial_to_dict(poly), indent=2) + "\n"


def load_polynomial(path: str | Path) -> Polynomial:
    with open(Path(path), encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return polynomial_from_dict(data)


def dump_polynomial(poly: Polynomial, path: str | Path) -> None:
    Path(path).write_text(dumps_polynomial(poly), encoding="utf-8")
