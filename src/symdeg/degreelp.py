"""Minimum-error linear programs and the approximate-degree search.

For a property over functions [n] -> [m] and a degree bound d, the best
achievable approximation error by a symmetric polynomial of degree <= d is
the optimum of a small exact LP: one free variable per partition of weight
<= d (the coordinates in the monomial symmetric basis) plus the error
variable eps, and two bound rows per frequency class.  One-classes demand
a value in [1 - eps, 1], Zero-classes a value in [0, eps], Undefined
classes a value in [0, 1].

The approximate degree d* is the smallest d whose optimum drops to the
requested eps.  eps_min is non-increasing in d (the feasible sets nest),
the search is capped by an exact-interpolation bound, and every quantity
is an exact rational, so certificates are reproducible bit for bit.

`sweep` runs the search across range sizes m, once per distinct LP: for
m >= n every m gives the same LP, which is the paper's collapse.

`eps_min_indicator_basis` solves the same question without the symmetry
restriction, over all normalized indicator monomials and all individual
functions; agreement of the two optima is the checkable form of the
"symmetric polynomials suffice" collapse.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Optional

from .lp import LinearProgram, Relation, Simplex, solve
from .oracle import _class_of, enumerate_functions
from .properties import Label, PropertySpec, bounds_for, check_instance, enumerate_classes
from .sympoly import (
    FrequencyVector,
    Partition,
    SymPolynomial,
    msym_rows,
    partitions,
)
from .ypoly import Monomial


@dataclass(frozen=True)
class LPInstance:
    """One minimum-error LP: variables eps + one coefficient per partition,
    two bound rows per class, objective min eps."""

    property_name: str
    n: int
    m: int
    degree: int
    lambdas: tuple[Partition, ...]
    classes: tuple[tuple[Partition, Label], ...]
    program: LinearProgram


def coefficient_basis(n: int, m: int, degree: int) -> tuple[Partition, ...]:
    """Partitions of weight <= degree with at most min(n, m) parts, ordered by
    weight then reverse-lex.  Longer partitions evaluate to zero on every
    weight-n frequency vector, so they would be useless LP columns."""
    cap = min(n, m)
    return tuple(
        lam for w in range(degree + 1) for lam in partitions(w, max_parts=cap)
    )


def _bound_rows(label: Label) -> tuple[tuple[int, Relation, int], ...]:
    """The (eps entry, relation, rhs) of the two rows lower(eps) <= value
    <= upper(eps) of a class or function with this label.  Each bound is
    affine in eps, so moving it to the left side puts bound(0) - bound(1)
    in the eps column and bound(0) on the right.  Every bound is 0, 1, eps
    or 1 - eps, so these are ints, as is every m_lambda entry of a row, and
    `lp` takes nothing else."""
    lower0, upper0 = bounds_for(label, Fraction(0))
    lower1, upper1 = bounds_for(label, Fraction(1))
    return (int(lower0 - lower1), ">=", int(lower0)), (int(upper0 - upper1), "<=", int(upper0))


def _min_error_program(width: int, rows: Iterable[tuple[list[int], Label]]) -> LinearProgram:
    """min eps over eps >= 0 and `width` free coefficients: for each
    (row, label), the two rows lower(eps) <= row . coefficients <=
    upper(eps) of the label's band."""
    program = LinearProgram(
        num_vars=1 + width,  # eps first, then the coefficients
        objective=[1] + [0] * width,
        free=[False] + [True] * width,
    )
    bounds = {label: _bound_rows(label) for label in Label}
    for row, label in rows:
        for eps_entry, rel, rhs in bounds[label]:
            program.add_row([eps_entry] + row, rel, rhs)
    return program


def build_lp(prop: PropertySpec, n: int, m: int, degree: int) -> LPInstance:
    """Assemble the minimum-error LP for the property at the given degree.
    Row and column order are fixed, so instances are deterministic."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    lambdas = coefficient_basis(n, m, degree)
    classes = tuple(enumerate_classes(prop, n, m))
    rows = msym_rows((lam for lam, _ in classes), lambdas)
    program = _min_error_program(len(lambdas), zip(rows, (label for _, label in classes)))
    return LPInstance(prop.name, n, m, degree, lambdas, classes, program)


def _solve_from_half(program: LinearProgram, simplex: Optional[Simplex] = None) -> list[Fraction]:
    """The optimal point of a minimum-error program, found from the
    feasible point x0: eps = 1/2, the constant 1/2, every other variable 0.
    Column 0 is eps and column 1 the constant (m_() or the empty indicator
    monomial, 1 everywhere), so x0 lies in the band of every class or
    function, whatever its label, and the program is always feasible, and
    bounded since eps >= 0.

    `solve` starts at the origin, so the program is posed in x' = x - x0:
    eps' is free, with one new first row -2 eps' <= 1 for eps >= 0, and
    every other row a.x ~ b becomes 2a.x' ~ 2b - a_0 - a_1, doubled so that
    its entries stay ints.  x0 touches only degree-0 columns, so the posed
    programs of a search across degrees still extend one another."""
    posed = LinearProgram(program.num_vars, program.objective, [True] + program.free[1:])
    posed.add_row([-2] + [0] * (program.num_vars - 1), "<=", 1)
    for row, rel, b in zip(program.lhs, program.rel, program.rhs):
        posed.add_row([2 * a for a in row], rel, 2 * b - row[0] - row[1])
    solution = solve(posed, simplex)
    if solution.status != "optimal":
        raise RuntimeError(f"minimum-error LP came back {solution.status}; it must be optimal")
    half = Fraction(1, 2)
    return [solution.x[0] + half, solution.x[1] + half] + solution.x[2:]


def solve_lp(
    inst: LPInstance, simplex: Optional[Simplex] = None
) -> tuple[Fraction, dict[Partition, Fraction]]:
    """Optimal (eps_min, coefficient map).  The solve starts from the
    feasible point eps = 1/2 with the constant 1/2 (`_solve_from_half`),
    and the pivot rule is deterministic, so the answer is a function of the
    instance alone, or, warm from `simplex`, of the instances it solved
    before.  eps_min is the same either way; the coefficients may be
    another optimal vertex."""
    x = _solve_from_half(inst.program, simplex)
    coeffs = {lam: value for lam, value in zip(inst.lambdas, x[1:]) if value != 0}
    return x[0], coeffs


@dataclass(frozen=True)
class DegreeStep:
    """Optimum of the LP at one degree."""

    degree: int
    eps_min: Fraction
    coefficients: dict[Partition, Fraction]


@dataclass(frozen=True)
class DegreeCertificate:
    """The full result of a degree search: per-degree optima up to and
    including the approximate degree d*, which is the last step."""

    property_name: str
    n: int
    m: int
    eps: Fraction
    steps: tuple[DegreeStep, ...]

    @property
    def degree(self) -> int:
        """d*: the smallest degree whose best error is <= eps."""
        return self.steps[-1].degree

    @property
    def query_lower_bound(self) -> int:
        """ceil(d*/2): quantum algorithms with T queries produce acceptance
        polynomials of degree at most 2T."""
        return (self.degree + 1) // 2

    def optimal_polynomial(self) -> SymPolynomial:
        return SymPolynomial(self.m, self.steps[-1].coefficients)

    def eps_min_at(self, degree: int) -> Fraction:
        for step in self.steps:
            if step.degree == degree:
                return step.eps_min
        raise KeyError(f"no step at degree {degree}")

    def to_dict(self) -> dict:
        return {
            "property": self.property_name,
            "n": self.n,
            "m": self.m,
            "eps": str(self.eps),
            "degree": self.degree,
            "query_lower_bound": self.query_lower_bound,
            "eps_min_by_degree": [
                {"degree": step.degree, "eps_min": str(step.eps_min)}
                for step in self.steps
            ],
            "optimal_coefficients": [
                {"partition": list(lam), "coeff": str(c)}
                for lam, c in self.optimal_polynomial().sorted_terms()
            ],
        }


def approx_degree(
    prop: PropertySpec, n: int, m: int, eps: Fraction | int | str = Fraction(1, 3)
) -> DegreeCertificate:
    """Smallest degree at which the property is eps-approximable, with the
    whole eps_min-by-degree table and an optimal witness polynomial.

    Searches d = 0, 1, 2, ... and stops at the first optimum <= eps.  The
    cap max(n, class count) is an exact-interpolation bound (summing the
    weight-n indicator polynomials of a class and averaging interpolates
    any labeling at degree n), so running past it signals a solver bug, as
    does any increase of eps_min with d.

    The LP at d + 1 is the LP at d with the columns of the new partitions
    appended (its rows are the same, and `coefficient_basis(d)` is a prefix
    of `coefficient_basis(d + 1)`), so one `Simplex` carries the whole
    search: d = 0 starts from the slack basis at eps = 1/2 (`_solve_from_half`),
    and each later degree re-optimizes from the previous optimal basis.
    """
    eps = check_instance(prop, n, m, eps)
    classes = enumerate_classes(prop, n, m)
    cap = max(n, len(classes))
    steps: list[DegreeStep] = []
    previous: Optional[Fraction] = None
    simplex = Simplex()
    for d in range(cap + 1):
        eps_min, coeffs = solve_lp(build_lp(prop, n, m, d), simplex)
        if previous is not None and eps_min > previous:
            raise RuntimeError(
                f"eps_min increased from {previous} to {eps_min} at degree {d}; "
                "the solver must be broken"
            )
        steps.append(DegreeStep(d, eps_min, coeffs))
        if eps_min <= eps:
            return DegreeCertificate(prop.name, n, m, eps, tuple(steps))
        previous = eps_min
    raise RuntimeError(
        f"no degree up to the interpolation cap {cap} reached eps = {eps}; "
        "the solver must be broken"
    )


def sweep(
    prop: PropertySpec, n: int, ms: Iterable[int], eps: Fraction | int | str = Fraction(1, 3)
) -> tuple[DegreeCertificate, ...]:
    """`approx_degree(prop, n, m, eps)` for each m in `ms`, every instance
    checked before anything is solved.

    The LP reads m only through the labelled classes and the column cap
    min(n, m) (`msym_rows` sees a class's nonzero counts alone), so two
    range sizes with the same (classes, cap) key share the LP at every
    degree, and each key is searched once.  For m >= n that key is the
    same for a built-in property: all partitions of n, cap n.  This is the
    paper's collapse of every range M >= N onto M = N.  The labels are
    compared, not assumed, since a custom rule may read m.
    """
    ms = list(ms)
    for m in ms:
        eps = check_instance(prop, n, m, eps)
    solved: dict[tuple, DegreeCertificate] = {}
    certs = []
    for m in ms:
        key = (tuple(enumerate_classes(prop, n, m)), min(n, m))
        if key not in solved:
            solved[key] = approx_degree(prop, n, m, eps)
        certs.append(replace(solved[key], m=m))
    return tuple(certs)


def indicator_monomials(n: int, m: int, degree: int) -> tuple[Monomial, ...]:
    """All normalized indicator monomials with at most `degree` factors:
    a set of rows plus one column choice per row."""
    monos: list[Monomial] = []
    for k in range(min(degree, n) + 1):
        for rows in combinations(range(1, n + 1), k):
            for cols in product(range(1, m + 1), repeat=k):
                monos.append(tuple(zip(rows, cols)))
    return tuple(monos)


def eps_min_indicator_basis(prop: PropertySpec, n: int, m: int, degree: int) -> Fraction:
    """Best error over *all* polynomials of the given degree in the
    indicators, one bound row pair per individual function.  No symmetry is
    imposed; matching `solve_lp` optima shows none was needed.  Exhaustive
    over m**n functions, each frequency class classified once, so the
    function count must fit the enumeration budget (which does not bound
    the LP's own cost: keep n and m small)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    monos = indicator_monomials(n, m, degree)
    functions = list(enumerate_functions(n, m))
    classes = [_class_of(f.values) for f in functions]
    labels = {parts: prop.classify(FrequencyVector(m, parts)) for parts in dict.fromkeys(classes)}
    rows = (
        ([int(all(f.values[i - 1] == j for i, j in mono)) for mono in monos], labels[parts])
        for f, parts in zip(functions, classes)
    )
    return _solve_from_half(_min_error_program(len(monos), rows))[0]
