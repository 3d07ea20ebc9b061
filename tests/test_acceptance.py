"""Acceptance gate: the end-to-end guarantees this package ships under.

Each criterion is one test that prints a single summary line
([acceptance] criterion k (name): PASS or FAIL), so `pytest -v -s`
doubles as the acceptance report.  Every check is exact rational
arithmetic; there are no tolerances anywhere.
"""

import itertools
import json
import random
from fractions import Fraction

from symdeg.andor import XPolynomial, f_to_assignment, substitute
from symdeg.degreelp import (
    approx_degree,
    build_lp,
    eps_min_indicator_basis,
    solve_lp,
)
from symdeg.oracle import verify_approximation
from symdeg.properties import (
    COLLISION,
    ELEMENT_DISTINCTNESS,
    MODIFIED_ELEMENT_DISTINCTNESS,
)
from symdeg.rangexfer import extend, restrict
from symdeg.symmetrize import (
    average_oracle,
    average_over_counts,
    monomial_class_expectation,
    symmetrize_monomial,
)
from symdeg.sympoly import FrequencyVector, SymPolynomial, partitions
from symdeg.ypoly import FunctionTable, YPolynomial, normalize_monomial

from test_cli import run_module

THIRD = Fraction(1, 3)


def report(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status}")
    assert not failures, f"criterion {number} ({name}): {failures[:5]}"


def test_criterion_1_range_invariance():
    """d* does not move when the range grows past the domain."""
    failures = []
    cases = (
        [(ELEMENT_DISTINCTNESS, n) for n in (2, 3, 4, 5)]
        + [(COLLISION, n) for n in (2, 4)]
        + [(MODIFIED_ELEMENT_DISTINCTNESS, n) for n in (3, 4, 5)]
    )
    for prop, n in cases:
        degrees = {
            m: approx_degree(prop, n, m, THIRD).degree for m in range(n, n + 4)
        }
        if len(set(degrees.values())) != 1:
            failures.append((prop.name, n, degrees))
    report(1, "range invariance", failures)


def test_criterion_2_symmetrization_matches_enumeration():
    """Both averaging routes reproduce brute-force enumeration exactly:
    the symmetric projection on whole classes, the per-vector product
    formula on each ordered arrangement."""
    failures = []
    for n in range(1, 5):
        for m in range(1, 4):
            grid = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
            monos = set()
            for k in range(min(3, n) + 1):
                for factors in itertools.combinations(grid, k):
                    mono = normalize_monomial(factors)
                    if mono is not None:
                        monos.add(mono)
            classes = [FrequencyVector(m, lam) for lam in partitions(n, max_parts=m)]
            for mono in sorted(monos):
                p = YPolynomial(n, m, {mono: 1})
                projected = symmetrize_monomial(mono, n, m)
                ordered = monomial_class_expectation(mono, n, m)
                for z in classes:
                    if projected.evaluate(z) != average_oracle(p, z):
                        failures.append(("class", n, m, mono, z.parts))
                    for counts in sorted(set(itertools.permutations(z.counts()))):
                        if ordered.evaluate(counts) != average_over_counts(p, counts):
                            failures.append(("ordered", n, m, mono, counts))
    report(2, "symmetrization equals enumeration", failures)


def test_criterion_3_extend_restrict_round_trip():
    """restrict(extend(Q, M), N) is the exact identity, on 100 random
    coefficient maps."""
    failures = []
    rng = random.Random(74120318)
    for trial in range(100):
        n = rng.randint(1, 4)
        m = n + rng.randint(0, 3)
        pool = [
            lam
            for w in range(0, 6)
            for lam in partitions(w, max_parts=n)
        ]
        coeffs = {}
        for lam in rng.sample(pool, rng.randint(0, min(5, len(pool)))):
            coeffs[lam] = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        q = SymPolynomial(n, coeffs)
        back = restrict(extend(q, m), n)
        if back != q:
            failures.append((trial, n, m, sorted(coeffs)))
    report(3, "extend/restrict round trip", failures)


def test_criterion_4_reference_degrees():
    """The two reference instances: their degree, and the exact best error
    one degree below."""
    failures = []
    ed = approx_degree(ELEMENT_DISTINCTNESS, 2, 2, THIRD)
    if ed.degree != 2:
        failures.append(("element-distinctness degree", ed.degree))
    if ed.eps_min_at(1) != Fraction(1, 2):
        failures.append(("element-distinctness eps_min at degree 1", ed.eps_min_at(1)))
    collision = approx_degree(COLLISION, 2, 3, THIRD)
    if collision.degree != 2:
        failures.append(("collision degree", collision.degree))
    report(4, "reference degrees", failures)


def test_criterion_5_symmetric_optimum_is_global():
    """Dropping the symmetry restriction (one row pair per function, all
    indicator monomials) leaves the optimal error unchanged."""
    failures = []
    for prop in (ELEMENT_DISTINCTNESS, COLLISION):
        for degree in (0, 1, 2):
            symmetric = solve_lp(build_lp(prop, 2, 2, degree))[0]
            unrestricted = eps_min_indicator_basis(prop, 2, 2, degree)
            if symmetric != unrestricted:
                failures.append((prop.name, degree, str(symmetric), str(unrestricted)))
    report(5, "symmetric optimum is global", failures)


def test_criterion_6_tree_substitution_soundness():
    """Substituting indicators into random tree polynomials preserves the
    value on every function assignment."""
    failures = []
    for n in (2, 3):
        rng = random.Random(52250 + n)
        functions = list(FunctionTable.all(n, n))
        assignments = [f_to_assignment(f) for f in functions]
        for trial in range(50):
            terms = []
            for _ in range(rng.randint(1, 5)):
                size = rng.randint(0, 2)
                mono = tuple(rng.sample(range(1, n * n + 1), size))
                terms.append((mono, Fraction(rng.randint(-9, 9), rng.randint(1, 6))))
            p = XPolynomial(n, terms)
            q = substitute(p)
            for f, x in zip(functions, assignments):
                if q.evaluate(f) != p.evaluate(x):
                    failures.append((n, trial, f.values))
                    break
    report(6, "tree substitution soundness", failures)


def test_criterion_7_degree_growth_and_witnesses():
    """d* never decreases with the domain, and every certificate's optimal
    polynomial survives independent verification."""
    failures = []
    for prop, sizes in (
        (ELEMENT_DISTINCTNESS, (2, 3, 4, 5, 6)),
        (COLLISION, (2, 4, 6)),
    ):
        degrees = []
        for n in sizes:
            cert = approx_degree(prop, n, n, THIRD)
            degrees.append(cert.degree)
            check = verify_approximation(
                cert.optimal_polynomial(), prop, n, n, THIRD
            )
            if not check.passed:
                failures.append((prop.name, n, "witness failed"))
        if degrees != sorted(degrees):
            failures.append((prop.name, "degrees not monotone", degrees))
    report(7, "degree growth and witnesses", failures)


def test_criterion_8_deterministic_output():
    """Repeated sweeps produce byte-identical output, independent of hash
    randomization."""
    failures = []
    runs = [
        ["sweep", "--property", "ed", "--n", "3", "--m", "3..6"],
        ["sweep", "--property", "collision", "--n", "4", "--m", "4..6"],
        ["sweep", "--property", "med", "--n", "3", "--m", "3..5", "--json"],
    ]
    for args in runs:
        outputs = []
        for seed in ("0", "1"):
            result = run_module(args, seed)
            if result.returncode != 0:
                failures.append((args, seed, result.returncode, result.stderr))
            outputs.append(result.stdout)
        if outputs[0] != outputs[1] or not outputs[0]:
            failures.append((args, "outputs differ"))
        # A child that printed nothing is already a failure above; parsing
        # its empty stdout would raise before report() names the cause.
        if args[-1] == "--json" and outputs[0]:
            json.loads(outputs[0])
    report(8, "deterministic output", failures)
