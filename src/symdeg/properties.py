"""Symmetric properties of functions, as labelings of frequency classes.

A property assigns each frequency class one of three labels: One (the
property holds), Zero (it does not), or Undefined (the class is outside
the promise; an approximating polynomial only has to stay within [0, 1]
there).  Because the label depends only on the multiset of preimage
counts, a property is symmetric by construction: permuting inputs or
renaming outputs never changes the label.

`enumerate_classes` labels the classes of an instance: it builds each
class's `FrequencyVector` once, from the partition `partitions` yields,
without checking it again, and the built-in rules read only the ends of
the sorted parts (the largest and the smallest count), not every part.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .sparse import json_int
from .sympoly import FrequencyVector, Partition, check_partition, partitions


class Label(enum.Enum):
    ONE = "One"
    ZERO = "Zero"
    UNDEFINED = "Undefined"


def bounds_for(label: Label, eps: Fraction) -> tuple[Fraction, Fraction]:
    """The closed interval an approximating polynomial must hit for a label."""
    if label is Label.ONE:
        return Fraction(1) - eps, Fraction(1)
    if label is Label.ZERO:
        return Fraction(0), eps
    return Fraction(0), Fraction(1)


@dataclass(frozen=True)
class PropertySpec:
    """A named property: a classification rule over frequency classes.

    `requires_m_ge_n` marks properties whose One side is "f is one-to-one";
    they make no sense when the range is smaller than the domain, and
    `check_instance` rejects such instances up front.
    """

    name: str
    rule: Callable[[FrequencyVector], Label] = field(compare=False)
    requires_m_ge_n: bool = False

    def classify(self, z: FrequencyVector) -> Label:
        return self.rule(z)


# The built-in rules read the ends of z.parts, which FrequencyVector keeps
# positive and non-increasing: parts[0] is the largest count and parts[-1]
# the smallest.  The weight-0 vector has no parts and is one-to-one.


def _collision_rule(z: FrequencyVector) -> Label:
    if not z.parts or z.parts[0] <= 1:
        return Label.ONE
    if z.parts[0] == z.parts[-1] == 2:
        return Label.ZERO
    return Label.UNDEFINED


def _element_distinctness_rule(z: FrequencyVector) -> Label:
    if not z.parts or z.parts[0] <= 1:
        return Label.ONE
    return Label.ZERO


def _modified_element_distinctness_rule(z: FrequencyVector) -> Label:
    if not z.parts or z.parts[0] <= 1:
        return Label.ONE
    if z.parts[0] >= 3:
        return Label.ZERO
    return Label.UNDEFINED


COLLISION = PropertySpec("collision", _collision_rule, requires_m_ge_n=True)
ELEMENT_DISTINCTNESS = PropertySpec(
    "element-distinctness", _element_distinctness_rule, requires_m_ge_n=True
)
MODIFIED_ELEMENT_DISTINCTNESS = PropertySpec(
    "modified-element-distinctness",
    _modified_element_distinctness_rule,
    requires_m_ge_n=True,
)
ALWAYS_ONE = PropertySpec("always-one", lambda z: Label.ONE)

BUILTIN_PROPERTIES: dict[str, PropertySpec] = {
    "collision": COLLISION,
    "ed": ELEMENT_DISTINCTNESS,
    "element-distinctness": ELEMENT_DISTINCTNESS,
    "med": MODIFIED_ELEMENT_DISTINCTNESS,
    "modified-ed": MODIFIED_ELEMENT_DISTINCTNESS,
    "modified-element-distinctness": MODIFIED_ELEMENT_DISTINCTNESS,
    "always-one": ALWAYS_ONE,
}


def get_property(name: str) -> PropertySpec:
    try:
        return BUILTIN_PROPERTIES[name]
    except KeyError:
        known = ", ".join(sorted(set(BUILTIN_PROPERTIES)))
        raise ValueError(f"unknown property {name!r}; known: {known}") from None


def check_instance(prop: PropertySpec, n: int, m: int, eps: Fraction | int | str) -> Fraction:
    """The validity rule of an instance, shared by the degree search, the
    sweep and the verifier; returns eps as a Fraction.  A float is refused:
    its binary value, not the decimal the caller meant, would reach the answer.
    n and m must be ints, and a bool is refused for n, m and eps alike."""
    if type(n) is not int or type(m) is not int:
        raise ValueError(f"n and m must be integers, got n={n!r}, m={m!r}")
    if isinstance(eps, bool):
        raise ValueError(f"eps must be a number, not the bool {eps!r}")
    if isinstance(eps, float):
        raise ValueError(
            f"eps must be exact: pass a Fraction or a 'p/q' string, got the float {eps!r}"
        )
    eps = Fraction(eps)
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if not 0 <= eps < Fraction(1, 2):
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")
    if prop.requires_m_ge_n and m < n:
        raise ValueError(
            f"property {prop.name!r} tests one-to-one behaviour and needs m >= n, "
            f"got n={n}, m={m}"
        )
    return eps


def enumerate_classes(prop: PropertySpec, n: int, m: int) -> list[tuple[Partition, Label]]:
    """All frequency classes of functions [n] -> [m] with their labels:
    one entry per partition of n with at most m parts, in reverse-lex order.

    Each class's vector is built once, by `FrequencyVector._of_partition`,
    from the partition `partitions` yields: n and m are ints >= 1 (checked
    here and by `partitions`, which refuses a bool or any other non-int)
    and the parts are positive, non-increasing and at most m, so the
    checks of `FrequencyVector(m, lam)` are not run again."""
    if n < 1 or m < 1:
        raise ValueError("class enumeration needs n >= 1 and m >= 1")
    return [
        (lam, prop.classify(FrequencyVector._of_partition(m, lam)))
        for lam in partitions(n, max_parts=m)
    ]


def property_from_classes(
    name: str, n: int, labeled: dict[Partition, Label]
) -> PropertySpec:
    """A property given by an explicit class table; unlisted classes are
    Undefined.  The rule rejects frequency vectors whose weight is not n."""
    table = dict(labeled)

    def rule(z: FrequencyVector) -> Label:
        if z.weight != n:
            raise ValueError(f"property {name!r} is over n={n}, got weight {z.weight}")
        return table.get(z.parts, Label.UNDEFINED)

    return PropertySpec(name, rule)


def property_from_dict(data: dict, name: str = "custom") -> PropertySpec:
    """Parse {"n": N, "classes": [{"partition": [...], "label": "One"}, ...]};
    n and every part must be JSON integers."""
    try:
        n = json_int(data["n"], "n")
        entries = list(data["classes"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed property object: {exc}") from exc
    if n < 1:
        raise ValueError(f"property needs n >= 1, got {n}")
    labeled: dict[Partition, Label] = {}
    for entry in entries:
        try:
            lam = check_partition(json_int(p, "each part") for p in entry["partition"])
            label = Label(entry["label"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed class entry {entry!r}: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"bad class entry {entry!r}: {exc}") from exc
        if sum(lam) != n:
            raise ValueError(f"class {lam} has weight {sum(lam)}, expected {n}")
        if lam in labeled:
            raise ValueError(f"class {lam} listed twice")
        labeled[lam] = label
    return property_from_classes(name, n, labeled)


def property_from_file(path: str | Path) -> PropertySpec:
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return property_from_dict(data, name=path.stem)
