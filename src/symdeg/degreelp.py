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
is an exact rational, so certificates are reproducible bit for bit.  The
LP at d + 1 is the LP at d with columns appended, so a search labels the
classes and poses the rows once, then grows that one posed program by
each degree's new columns, and one warm simplex follows it.

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
from typing import Iterable, Optional, Sequence

from .budget import check_budget
from .lp import LinearProgram, Relation, Simplex, solve
from .oracle import class_indices, enumerate_functions
from .properties import Label, PropertySpec, bounds_for, check_instance, enumerate_classes
from .sympoly import Partition, SymPolynomial, check_degree, msym_columns
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


def part_cap(n: int, m: int) -> int:
    """The LP's part cap min(n, m): a longer partition evaluates to zero
    on every weight-n frequency vector over m outputs, so it would be a
    useless LP column."""
    return min(n, m)


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


# keyed by the member's name: a str hashes in C, an Enum member through
# the Python-level Enum.__hash__
_BOUND_ROWS = {label._name_: _bound_rows(label) for label in Label}


def _min_error_program(width: int, rows: Iterable[tuple[list[int], Label]]) -> LinearProgram:
    """min eps over eps >= 0 and `width` free coefficients: for each
    (row, label), the two rows lower(eps) <= row . coefficients <=
    upper(eps) of the label's band, all added in one `add_rows` block."""
    program = LinearProgram(
        num_vars=1 + width,  # eps first, then the coefficients
        objective=[1] + [0] * width,
        free=[False] + [True] * width,
    )
    lhs, rels, rhss = [], [], []
    for row, label in rows:
        (lower, lower_rel, lower_rhs), (upper, upper_rel, upper_rhs) = _BOUND_ROWS[label._name_]
        lhs += [lower, *row], [upper, *row]
        rels += lower_rel, upper_rel
        rhss += lower_rhs, upper_rhs
    program.add_rows(lhs, rels, rhss)
    return program


def build_lp(prop: PropertySpec, n: int, m: int, degree: int) -> LPInstance:
    """Assemble the minimum-error LP for the property at the given degree:
    its columns are the blocks of `msym_columns` at the classes under the
    part cap, weight by weight, and a class's row reads its entry of each.
    Row and column order are fixed, so instances are deterministic."""
    check_degree(degree)
    classes = tuple(enumerate_classes(prop, n, m))
    blocks = msym_columns((lam for lam, _ in classes), degree, part_cap(n, m))
    lambdas, columns = zip(*(pair for block in blocks for pair in block))
    rows = zip(*columns)
    program = _min_error_program(len(lambdas), zip(rows, (label for _, label in classes)))
    return LPInstance(prop.name, n, m, degree, lambdas, classes, program)


def _add_posed_column(
    posed: LinearProgram, cost: int, free: bool, column: Iterable[int], first: int = 0
) -> None:
    """Append a column of a minimum-error program, one entry per row, to
    its posing (see `_pose`): `first` in the new first row, then each entry
    doubled."""
    posed.add_column(cost, free, [first] + [2 * a for a in column])


def _pose(program: LinearProgram) -> LinearProgram:
    """A minimum-error program posed so that `solve` can start at the
    origin, with the point x0 (eps = 1/2, the constant 1/2, every other
    variable 0) moved there.  Column 0 is eps and column 1 the constant
    (m_() or the empty indicator monomial, 1 everywhere), so x0 lies in the
    band of every class or function, whatever its label, and the program
    is always feasible, and bounded since eps >= 0.

    In x' = x - x0, eps' is free, with one new first row -2 eps' <= 1 for
    eps >= 0, and every other row a.x ~ b becomes 2a.x' ~ 2b - a_0 - a_1,
    doubled so that its entries stay ints.  The rows are posed first, in
    one `add_rows` block, and the columns appended one by one through
    `_add_posed_column`, which is also how the degree search appends each
    degree's new columns: x0 touches only degree-0 columns, so no
    right-hand side moves."""
    posed = LinearProgram(0, [], [])
    posed.add_rows(
        [()] * (1 + len(program.lhs)),
        ["<=", *program.rel],
        [1, *(2 * b - row[0] - row[1] for row, b in zip(program.lhs, program.rhs))],
    )
    for j, (cost, free) in enumerate(zip(program.objective, program.free)):
        column = (row[j] for row in program.lhs)
        _add_posed_column(posed, cost, free or j == 0, column, -2 if j == 0 else 0)
    return posed


def _solve_from_half(posed: LinearProgram, simplex: Optional[Simplex] = None) -> list[Fraction]:
    """The optimal point of a minimum-error program posed by `_pose`: the
    solve starts at the feasible point eps = 1/2 with the constant 1/2,
    and the point found is moved back by it."""
    solution = solve(posed, simplex)
    if solution.status != "optimal":
        raise RuntimeError(f"minimum-error LP came back {solution.status}; it must be optimal")
    half = Fraction(1, 2)
    return [solution.x[0] + half, solution.x[1] + half] + solution.x[2:]


def _coefficients(lambdas: Iterable[Partition], x: list[Fraction]) -> dict[Partition, Fraction]:
    """The nonzero coefficients of an optimal point x (eps first)."""
    return {lam: value for lam, value in zip(lambdas, x[1:]) if value != 0}


def solve_lp(
    inst: LPInstance, simplex: Optional[Simplex] = None
) -> tuple[Fraction, dict[Partition, Fraction]]:
    """Optimal (eps_min, coefficient map).  The solve starts from the
    feasible point eps = 1/2 with the constant 1/2 (`_solve_from_half`),
    and the pivot rule is deterministic, so the answer is a function of the
    instance alone, or, warm from `simplex`, of the instances it solved
    before.  eps_min is the same either way; the coefficients may be
    another optimal vertex."""
    x = _solve_from_half(_pose(inst.program), simplex)
    return x[0], _coefficients(inst.lambdas, x)


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

    One posed program carries the whole search.  `build_lp` at degree 0
    labels the classes (the search's only `enumerate_classes` call) and
    gives the rows, which `_pose` poses once.  The LP at d + 1 is the LP at
    d with the columns of the weight-(d + 1) partitions appended (its rows
    are the same), so the search opens one `msym_columns` generator over
    the classes, up to the cap, and draws one block per degree: each later
    degree appends that block's columns, posed by `_add_posed_column`, and
    one `Simplex` re-optimizes from the previous optimal basis; d = 0
    starts from the slack basis at eps = 1/2.  Every entry is computed
    once, and no block past d* is computed at all.
    """
    eps = check_instance(prop, n, m, eps)
    base = build_lp(prop, n, m, 0)
    cap = max(n, len(base.classes))
    blocks = msym_columns((lam for lam, _ in base.classes), cap, part_cap(n, m))
    posed = _pose(base.program)
    lambdas: list[Partition] = []
    steps: list[DegreeStep] = []
    previous: Optional[Fraction] = None
    simplex = Simplex()
    for d, block in enumerate(blocks):
        if d:  # block 0 is m_() alone, which `base` has already posed
            for _, column in block:
                # a class's two bound rows share its m_lambda entry
                _add_posed_column(posed, 0, True, (a for v in column for a in (v, v)))
        lambdas += (lam for lam, _ in block)
        x = _solve_from_half(posed, simplex)
        eps_min, coeffs = x[0], _coefficients(lambdas, x)
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
    prop: PropertySpec, n: int, ms: Sequence[int], eps: Fraction | int | str = Fraction(1, 3)
) -> tuple[DegreeCertificate, ...]:
    """`approx_degree(prop, n, m, eps)` for each m in `ms` (a list or a
    range), every instance checked before anything is solved.  The count
    of range sizes is checked against the enumeration budget first, so a
    range like 3..3000000000 is refused before any size is checked.

    The LP reads m only through the labelled classes and the column cap
    min(n, m) (`msym_columns` sees a class's nonzero counts alone), so two
    range sizes with the same (classes, cap) key share the LP at every
    degree, and each key is searched once.  For m >= n that key is the
    same for a built-in property: all partitions of n, cap n.  This is the
    paper's collapse of every range M >= N onto M = N.  The labels are
    compared, not assumed, since a custom rule may read m.
    """
    try:
        count = len(ms)
    except OverflowError:  # a range of more than sys.maxsize sizes
        count = (ms[-1] - ms[0]) // ms.step + 1
    check_budget(count)
    for m in ms:
        eps = check_instance(prop, n, m, eps)
    solved: dict[tuple, DegreeCertificate] = {}
    certs = []
    for m in ms:
        key = (tuple(enumerate_classes(prop, n, m)), part_cap(n, m))
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
    over m**n functions, each labelled by its class's entry in
    `enumerate_classes`, so the function count must fit the enumeration
    budget (which does not bound the LP's own cost: keep n and m small).
    The instance is checked by the rule `approx_degree` uses."""
    check_instance(prop, n, m, 0)
    check_degree(degree)
    monos = indicator_monomials(n, m, degree)
    functions = list(enumerate_functions(n, m))
    classes = enumerate_classes(prop, n, m)
    rows = (
        ([int(all(f.values[i - 1] == j for i, j in mono)) for mono in monos], classes[k][1])
        for f, k in zip(functions, class_indices(n, m, [lam for lam, _ in classes]))
    )
    return _solve_from_half(_pose(_min_error_program(len(monos), rows)))[0]
