"""Tests for class labelings: built-in properties and explicit tables."""

import json
import re
from fractions import Fraction

import pytest

from symdeg.degreelp import approx_degree, sweep
from symdeg.oracle import verify_approximation
from symdeg.properties import (
    ALWAYS_ONE,
    BUILTIN_PROPERTIES,
    COLLISION,
    ELEMENT_DISTINCTNESS,
    Label,
    MODIFIED_ELEMENT_DISTINCTNESS,
    PropertySpec,
    check_instance,
    enumerate_classes,
    get_property,
    property_from_classes,
    property_from_dict,
    property_from_file,
)
from symdeg.sympoly import FrequencyVector, SymPolynomial, partitions
from symdeg.ypoly import FunctionTable


def fv(*parts, m=None):
    return FrequencyVector(m if m is not None else max(len(parts), 1), parts)


# ---------------------------------------------------------------------------
# built-in rules on hand-picked classes


def test_element_distinctness_labels():
    assert ELEMENT_DISTINCTNESS.classify(fv(1, 1, m=3)) is Label.ONE
    assert ELEMENT_DISTINCTNESS.classify(fv(2, m=2)) is Label.ZERO
    assert ELEMENT_DISTINCTNESS.classify(fv(2, 1, m=3)) is Label.ZERO
    assert ELEMENT_DISTINCTNESS.classify(fv(m=1)) is Label.ONE  # empty class


def test_collision_labels():
    assert COLLISION.classify(fv(1, 1, m=2)) is Label.ONE
    assert COLLISION.classify(fv(2, m=2)) is Label.ZERO
    assert COLLISION.classify(fv(2, 2, m=4)) is Label.ZERO
    assert COLLISION.classify(fv(2, 1, m=3)) is Label.UNDEFINED
    assert COLLISION.classify(fv(3, 1, m=4)) is Label.UNDEFINED


def test_modified_element_distinctness_labels():
    assert MODIFIED_ELEMENT_DISTINCTNESS.classify(fv(1, 1, 1, m=3)) is Label.ONE
    assert MODIFIED_ELEMENT_DISTINCTNESS.classify(fv(3, m=3)) is Label.ZERO
    assert MODIFIED_ELEMENT_DISTINCTNESS.classify(fv(2, 1, m=3)) is Label.UNDEFINED
    assert MODIFIED_ELEMENT_DISTINCTNESS.classify(fv(2, 2, m=4)) is Label.UNDEFINED
    assert MODIFIED_ELEMENT_DISTINCTNESS.classify(fv(4, 2, m=6)) is Label.ZERO


def test_always_one():
    assert ALWAYS_ONE.classify(fv(3, 2, m=5)) is Label.ONE
    assert not ALWAYS_ONE.requires_m_ge_n


def test_one_to_one_properties_flagged():
    for prop in (COLLISION, ELEMENT_DISTINCTNESS, MODIFIED_ELEMENT_DISTINCTNESS):
        assert prop.requires_m_ge_n


def test_check_instance():
    assert check_instance(ELEMENT_DISTINCTNESS, 3, 3, "1/3") == Fraction(1, 3)
    assert check_instance(ALWAYS_ONE, 3, 1, 0) == 0  # no m >= n rule here
    for prop, n, m, eps, message in [
        (ALWAYS_ONE, 0, 2, 0, "n >= 1"),
        (ALWAYS_ONE, 2, 0, 0, "m >= 1"),
        (ALWAYS_ONE, 2, 2, Fraction(1, 2), r"\[0, 1/2\)"),
        (ALWAYS_ONE, 2, 2, -1, r"\[0, 1/2\)"),
        (ELEMENT_DISTINCTNESS, 3, 2, 0, "m >= n"),
        (ALWAYS_ONE, 2, 2, 0.25, "Fraction"),  # exact in binary, still refused
    ]:
        with pytest.raises(ValueError, match=message):
            check_instance(prop, n, m, eps)


@pytest.mark.parametrize("n, m", [(3, 3.5), (True, True), (2.0, 2), (3, Fraction(3)), (3, "3")])
def test_n_and_m_must_be_ints(n, m):
    # the degree search, the sweep and the verifier share check_instance,
    # which refuses anything but an int (a bool too) before any work
    q = SymPolynomial(3, {(): Fraction(1, 2)})
    for run in (
        lambda: approx_degree(ELEMENT_DISTINCTNESS, n, m),
        lambda: sweep(ELEMENT_DISTINCTNESS, n, [m]),
        lambda: verify_approximation(q, ELEMENT_DISTINCTNESS, n, m, Fraction(1, 3)),
    ):
        with pytest.raises(ValueError, match="n and m must be integers"):
            run()


def test_get_property_aliases():
    assert get_property("ed") is ELEMENT_DISTINCTNESS
    assert get_property("element-distinctness") is ELEMENT_DISTINCTNESS
    assert get_property("med") is MODIFIED_ELEMENT_DISTINCTNESS
    assert get_property("modified-ed") is MODIFIED_ELEMENT_DISTINCTNESS
    assert get_property("collision") is COLLISION
    with pytest.raises(ValueError):
        get_property("no-such-property")
    assert set(BUILTIN_PROPERTIES) >= {"ed", "med", "collision", "always-one"}


# ---------------------------------------------------------------------------
# the label is a function of the multiset only


def test_label_ignores_count_order_and_padding():
    a = FrequencyVector.from_counts((0, 1, 2))
    b = FrequencyVector.from_counts((2, 1, 0))
    assert a == b
    for prop in (COLLISION, ELEMENT_DISTINCTNESS, MODIFIED_ELEMENT_DISTINCTNESS):
        assert prop.classify(a) is prop.classify(b)


def direct_label(prop: PropertySpec, f: FunctionTable) -> Label:
    """Independent function-level classifiers for the built-in properties."""
    counts = [c for c in f.frequency_counts() if c > 0]
    injective = all(c == 1 for c in counts)
    if prop is ELEMENT_DISTINCTNESS:
        return Label.ONE if injective else Label.ZERO
    if prop is COLLISION:
        if injective:
            return Label.ONE
        if all(c == 2 for c in counts):
            return Label.ZERO
        return Label.UNDEFINED
    if prop is MODIFIED_ELEMENT_DISTINCTNESS:
        if injective:
            return Label.ONE
        if max(counts) >= 3:
            return Label.ZERO
        return Label.UNDEFINED
    raise AssertionError("unreachable")


def test_builtin_rules_agree_with_function_level_classifiers():
    for prop in (COLLISION, ELEMENT_DISTINCTNESS, MODIFIED_ELEMENT_DISTINCTNESS):
        for n in range(1, 5):
            for m in range(1, 5):
                for f in FunctionTable.all(n, m):
                    z = FrequencyVector.of_function(f)
                    assert prop.classify(z) is direct_label(prop, f)


def test_collision_odd_n_has_no_zero_class():
    for n in (3, 5):
        labels = [lab for _, lab in enumerate_classes(COLLISION, n, n)]
        assert Label.ZERO not in labels
        assert labels.count(Label.ONE) == 1


def test_ed_one_class_requires_enough_outputs():
    # the all-ones partition only fits when m >= n
    for n in range(1, 5):
        for m in range(1, 6):
            labels = [lab for _, lab in enumerate_classes(ELEMENT_DISTINCTNESS, n, m)]
            assert (Label.ONE in labels) == (m >= n)


# ---------------------------------------------------------------------------
# enumerate_classes


def test_enumerate_classes_order_and_content():
    got = enumerate_classes(COLLISION, 2, 2)
    assert got == [((2,), Label.ZERO), ((1, 1), Label.ONE)]
    got = enumerate_classes(ELEMENT_DISTINCTNESS, 3, 3)
    assert got == [
        ((3,), Label.ZERO),
        ((2, 1), Label.ZERO),
        ((1, 1, 1), Label.ONE),
    ]


def test_enumerate_classes_caps_partition_length():
    got = enumerate_classes(ELEMENT_DISTINCTNESS, 3, 2)
    assert [lam for lam, _ in got] == [(3,), (2, 1)]


def test_enumerate_classes_validates():
    with pytest.raises(ValueError):
        enumerate_classes(COLLISION, 0, 2)
    with pytest.raises(ValueError):
        enumerate_classes(COLLISION, 2, 0)


def test_class_count_equals_bounded_partition_count():
    for n in range(1, 7):
        for m in range(1, 7):
            classes = enumerate_classes(ALWAYS_ONE, n, m)
            assert len(classes) == sum(1 for _ in partitions(n, max_parts=m))


# ---------------------------------------------------------------------------
# explicit tables


def test_property_from_classes_defaults_to_undefined():
    prop = property_from_classes("p", 3, {(3,): Label.ONE})
    assert prop.classify(fv(3, m=3)) is Label.ONE
    assert prop.classify(fv(2, 1, m=3)) is Label.UNDEFINED
    with pytest.raises(ValueError):
        prop.classify(fv(2, m=2))  # weight 2, property over n=3


def test_property_from_dict():
    data = {
        "n": 3,
        "classes": [
            {"partition": [3], "label": "One"},
            {"partition": [2, 1], "label": "Zero"},
        ],
    }
    prop = property_from_dict(data, name="wavy")
    assert prop.name == "wavy"
    assert prop.classify(fv(3, m=1)) is Label.ONE
    assert prop.classify(fv(2, 1, m=2)) is Label.ZERO
    assert prop.classify(fv(1, 1, 1, m=3)) is Label.UNDEFINED


@pytest.mark.parametrize(
    "data",
    [
        {"classes": []},
        {"n": 0, "classes": []},
        {"n": 3, "classes": [{"partition": [2], "label": "One"}]},
        {"n": 3, "classes": [{"partition": [1, 2], "label": "One"}]},
        {"n": 3, "classes": [{"partition": [3], "label": "Maybe"}]},
        {"n": 3, "classes": [{"partition": [3]}]},
        {
            "n": 3,
            "classes": [
                {"partition": [3], "label": "One"},
                {"partition": [3], "label": "Zero"},
            ],
        },
    ],
)
def test_property_from_dict_rejects_malformed(data):
    with pytest.raises(ValueError):
        property_from_dict(data)


@pytest.mark.parametrize(
    "data, named",
    [
        ({"n": 3.7, "classes": []}, "3.7"),
        ({"n": 3, "classes": [{"partition": [2.9, 1.2], "label": "One"}]}, "2.9"),
        ({"n": "3", "classes": []}, "'3'"),
    ],
    ids=["float-n", "float-part", "string-n"],
)
def test_property_from_dict_rejects_non_integers(data, named):
    # truncation would read n = 3.7 as 3 and the class (2.9, 1.2) as (2, 1)
    with pytest.raises(ValueError, match=re.escape(named)):
        property_from_dict(data)


def test_property_from_file_names_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ nope", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: not valid JSON: ")):
        property_from_file(path)


def test_property_from_file(tmp_path):
    path = tmp_path / "steps.json"
    path.write_text(
        json.dumps(
            {"n": 2, "classes": [{"partition": [1, 1], "label": "One"}]}
        ),
        encoding="utf-8",
    )
    prop = property_from_file(path)
    assert prop.name == "steps"
    assert prop.classify(fv(1, 1, m=2)) is Label.ONE
    assert prop.classify(fv(2, m=2)) is Label.UNDEFINED
