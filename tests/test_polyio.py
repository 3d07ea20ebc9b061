"""Tests for the shared polynomial file format."""

import json
import re
from fractions import Fraction

import pytest

from symdeg.andor import XPolynomial
from symdeg.polyio import (
    dump_polynomial,
    dumps_polynomial,
    load_polynomial,
    polynomial_from_dict,
    polynomial_to_dict,
)
from symdeg.rangexfer import extend, restrict
from symdeg.sympoly import FrequencyVector, SymPolynomial, ZPolynomial
from symdeg.ypoly import YPolynomial


SAMPLES = [
    YPolynomial(2, 3, {((1, 2), (2, 3)): Fraction(-5, 7), ((1, 1),): 2}),
    YPolynomial.zero(1, 1),
    SymPolynomial(3, {(2, 1): Fraction(1, 3), (): 1}),
    SymPolynomial.zero(2),
    XPolynomial(2, {(1, 4): Fraction(9, 2), (): -3}),
    XPolynomial(3),
]


@pytest.mark.parametrize("poly", SAMPLES, ids=lambda p: type(p).__name__)
def test_file_round_trip(tmp_path, poly):
    path = tmp_path / "poly.json"
    dump_polynomial(poly, path)
    loaded = load_polynomial(path)
    assert type(loaded) is type(poly)
    assert loaded == poly


@pytest.mark.parametrize("poly", SAMPLES, ids=lambda p: type(p).__name__)
def test_dict_round_trip_preserves_tag(poly):
    data = polynomial_to_dict(poly)
    assert data["vars"] in {"y", "z", "x"}
    again = polynomial_from_dict(json.loads(json.dumps(data)))
    assert again == poly


def test_tag_dispatch():
    y = polynomial_from_dict(YPolynomial.zero(2, 2).to_dict())
    z = polynomial_from_dict(SymPolynomial.zero(2).to_dict())
    x = polynomial_from_dict(XPolynomial(2).to_dict())
    assert isinstance(y, YPolynomial)
    assert isinstance(z, SymPolynomial)
    assert isinstance(x, XPolynomial)


def test_output_is_stable_text():
    poly = SymPolynomial(2, {(1, 1): Fraction(1, 2)})
    text = dumps_polynomial(poly)
    assert text == dumps_polynomial(poly)
    assert text.endswith("\n")
    assert json.loads(text)["terms"] == [{"partition": [1, 1], "coeff": "1/2"}]


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        polynomial_from_dict({"vars": "w", "terms": []})
    with pytest.raises(ValueError):
        polynomial_from_dict({"terms": []})
    with pytest.raises(ValueError):
        polynomial_from_dict(["not", "an", "object"])


@pytest.mark.parametrize("poly", [SAMPLES[0], SAMPLES[2], SAMPLES[4]], ids=lambda p: type(p).__name__)
def test_from_dict_requires_vars_tag(poly):
    data = poly.to_dict()
    del data["vars"]
    with pytest.raises(ValueError):
        type(poly).from_dict(data)


def test_serialize_rejects_foreign_types():
    with pytest.raises(TypeError):
        polynomial_to_dict({"vars": "y"})


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    with pytest.raises(ValueError):
        load_polynomial(path)


def test_missing_fields_rejected(tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"vars": "y", "n": 2}), encoding="utf-8")
    with pytest.raises(ValueError):
        load_polynomial(path)


def test_bad_coefficient_string(tmp_path):
    path = tmp_path / "coeff.json"
    data = {
        "vars": "z",
        "m": 2,
        "terms": [{"partition": [1], "coeff": "one half"}],
    }
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError):
        load_polynomial(path)


@pytest.mark.parametrize(
    "data, named",
    [
        ({"vars": "z", "m": 2, "terms": [{"partition": [1], "coeff": 0.1}]}, "0.1"),
        ({"vars": "z", "m": 2, "terms": [{"partition": [1], "coeff": "1/0"}]}, "1/0"),
        ({"vars": "z", "m": 2, "terms": [{"partition": [1.9], "coeff": "1"}]}, "1.9"),
        ({"vars": "y", "n": 2, "m": 2, "terms": [{"factors": [[1.5, 2]], "coeff": "1"}]}, "1.5"),
        ({"vars": "z", "m": 3.7, "terms": []}, "3.7"),
        ({"vars": "x", "n": 2, "terms": [{"factors": [1], "coeff": True}]}, "True"),
    ],
    ids=["float-coeff", "zero-denominator", "float-part", "float-factor", "float-m", "bool-coeff"],
)
def test_inexact_json_values_rejected(data, named):
    # a float must not reach a coefficient as its binary value or be truncated
    # to an index, and a zero denominator is bad input, not a crash
    with pytest.raises(ValueError, match=re.escape(named)):
        polynomial_from_dict(data)


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: YPolynomial(2.0, 2), "2.0"),
        (lambda: YPolynomial(2, True), "True"),
        (lambda: ZPolynomial(2.0), "2.0"),
        (lambda: SymPolynomial(True), "True"),
        (lambda: XPolynomial(2.0), "2.0"),
        (lambda: extend(SymPolynomial(2, {(1,): 1}), 3.0), "3.0"),
        (lambda: restrict(SymPolynomial(3, {(1,): 1}), 2.0), "2.0"),
        (lambda: FrequencyVector(True, (1,)), "True"),
    ],
    ids=["y-float-n", "y-bool-m", "z-named-float-m", "z-bool-m", "x-float-n",
         "extend-float", "restrict-float", "frequency-bool-m"],
)
def test_shape_sizes_must_be_ints(build, named):
    # a size that is not an int would be written as one the reader refuses,
    # so it is refused when the polynomial is built, as the reader would
    with pytest.raises(ValueError, match=re.escape(named)):
        build()


def test_integer_coefficients_accepted():
    data = {"vars": "z", "m": 2, "terms": [{"partition": [1], "coeff": -3}]}
    assert polynomial_from_dict(data) == SymPolynomial(2, {(1,): -3})


def test_io_helpers_exported_at_package_root():
    import symdeg
    from symdeg import polyio

    for name in (
        "load_polynomial",
        "dump_polynomial",
        "dumps_polynomial",
        "polynomial_to_dict",
        "polynomial_from_dict",
    ):
        assert getattr(symdeg, name) is getattr(polyio, name)
        assert name in symdeg.__all__
