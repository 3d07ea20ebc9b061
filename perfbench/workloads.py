"""The benchmark workloads: inputs made from a seed, the timed jobs, and the
checks of every output.

A job is one call into symdeg that a user would make (`run`), timed on its
own, plus a check of its result against pinned data (`check`), which is not
timed.  The seed picks job order, custom labelings and random polynomials;
fixed grids stay fixed.  Expected outputs live in data/expected.json and
the indicator-pipeline input in data/ed4_witness.json, so a solver that
returns another optimal vertex changes neither the checks nor the work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Optional

EPS = Fraction(1, 3)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    # None when the result is correct, else the reason it is not
    check: Callable[[object], Optional[str]]
    # deterministic counts taken from the result, e.g. bytes printed
    counts: Callable[[object], dict[str, int]] = field(default=lambda result: {})


def _eps_table(cert) -> list[str]:
    return [str(step.eps_min) for step in cert.steps]


# --- degree-search -------------------------------------------------------

def _certify(sd, prop, n: int):
    cert = sd.approx_degree(prop, n, n, EPS)
    return cert, sd.verify_approximation(cert.optimal_polynomial(), prop, n, n, EPS)


def _check_pinned(expected: list[str], result) -> Optional[str]:
    cert, report = result
    if _eps_table(cert) != expected:
        return f"eps_min table {_eps_table(cert)} != pinned {expected}"
    if not report.passed:
        return "witness failed verification"
    return None


def _check_custom(result) -> Optional[str]:
    cert, report = result
    values = [step.eps_min for step in cert.steps]
    if any(b > a for a, b in zip(values, values[1:])):
        return f"eps_min increased: {_eps_table(cert)}"
    if values[-1] > EPS or any(v <= EPS for v in values[:-1]):
        return f"d* is not the first degree reaching eps: {_eps_table(cert)}"
    if not report.passed:
        return "witness failed verification"
    return None


def balanced_labeling(rng: random.Random, classes: list[tuple[int, ...]]) -> dict:
    """A custom property over the given classes with the three labels dealt
    out in equal shares.  Balancing keeps the cost of one labeling close to
    that of another, so the seed changes the instances, not the workload's
    size."""
    labels = (["One", "Zero", "Undefined"] * len(classes))[: len(classes)]
    rng.shuffle(labels)
    return {
        "n": sum(classes[0]),
        "classes": [{"partition": list(c), "label": l} for c, l in zip(classes, labels)],
    }


def degree_search(sd, rng: random.Random, data: dict, out_dir: Path) -> list[Job]:
    jobs = []
    for instance, expected in data["eps_min"].items():
        key, n = instance.split("-")
        prop = sd.get_property(key)
        jobs.append(Job(f"{key} n={n}", partial(_certify, sd, prop, int(n)), partial(_check_pinned, expected)))
    n = data["custom_n"]
    classes = list(sd.partitions(n))
    for k in range(data["custom_count"]):
        prop = sd.property_from_dict(balanced_labeling(rng, classes), name=f"custom-{k}")
        jobs.append(Job(f"custom-{k} n={n}", partial(_certify, sd, prop, n), _check_custom))
    rng.shuffle(jobs)
    return jobs


# --- range-sweep ---------------------------------------------------------

def _sweep(sd, argv: list[str]):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = sd.cli.main(argv)
    return code, buffer.getvalue()


def _check_sweep(expected: dict, result) -> Optional[str]:
    code, stdout = result
    if code != 0:
        return f"exit code {code}"
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if digest != expected["stdout_sha256"]:
        return f"stdout digest {digest} != pinned"
    table = ";".join(f"{d}={v}" for d, v in enumerate(expected["eps_min"]))
    rows = stdout.splitlines()[1:]
    if not rows or any(not row.endswith("," + table) for row in rows):
        return "eps_min column differs from the pinned table"
    return None


def range_sweep(sd, rng: random.Random, data: dict, out_dir: Path) -> list[Job]:
    jobs = [
        Job(
            name,
            partial(_sweep, sd, spec["argv"]),
            partial(_check_sweep, spec),
            lambda result: {"cli.stdout_bytes": len(result[1].encode())},
        )
        for name, spec in data["sweeps"].items()
    ]
    rng.shuffle(jobs)
    return jobs


# --- lp-assembly ---------------------------------------------------------

def lp_digest(inst) -> str:
    """sha256 of an assembled LP: basis, labeled classes, objective and
    every row, with rationals written as exact strings."""
    program = inst.program
    h = hashlib.sha256()
    h.update(repr(inst.lambdas).encode())
    h.update(repr([(lam, label.value) for lam, label in inst.classes]).encode())
    h.update(repr(([str(c) for c in program.objective], program.free)).encode())
    for row, rel, rhs in zip(program.lhs, program.rel, program.rhs):
        h.update((",".join(map(str, row)) + rel + str(rhs) + "\n").encode())
    return h.hexdigest()


def _build_all(sd, prop, n: int, degrees: int):
    return [sd.build_lp(prop, n, n, d) for d in range(degrees)]


def _check_digests(expected: list[str], instances) -> Optional[str]:
    for d, (inst, pinned) in enumerate(zip(instances, expected)):
        digest = lp_digest(inst)
        if digest != pinned:
            return f"d={d}: matrix digest {digest} != pinned"
    return None


def lp_assembly(sd, rng: random.Random, data: dict, out_dir: Path) -> list[Job]:
    """One job per (property, n): the LPs of every degree up to the grid's
    cap, as a degree search builds them."""
    jobs = []
    for key, expected in data["lp_digests"].items():
        name, n = key.split(":")
        job = partial(_build_all, sd, sd.get_property(name), int(n), len(expected))
        jobs.append(Job(key, job, partial(_check_digests, expected)))
    rng.shuffle(jobs)
    return jobs


# --- indicator-pipeline --------------------------------------------------

def _roundtrips(sd, witness, path: Path, p, classes, x):
    """Every representation change once: z -> y -> file -> y -> z for the
    witness, y -> z against brute-force class averages, x -> y."""
    y = sd.desymmetrize(witness, witness.m)
    sd.dump_polynomial(y, path)
    loaded = sd.load_polynomial(path)
    back = sd.symmetrize(loaded)
    q = sd.symmetrize(p)
    averages = [sd.average_oracle(p, z) for z in classes]
    return y, loaded, back, q, averages, sd.substitute(x)


def _check_roundtrips(sd, witness, classes, x, result) -> Optional[str]:
    y, loaded, back, q, averages, substituted = result
    if loaded != y:
        return "polyio round trip changed the y-polynomial"
    if back != witness:
        return "symmetrize(desymmetrize(q)) != q"
    for z, avg in zip(classes, averages):
        if q.evaluate(z) != avg:
            return f"symmetrized value at {z.parts} != class average {avg}"
    for f in sd.FunctionTable.all(x.n, x.n):
        if substituted.evaluate(f) != x.evaluate(sd.f_to_assignment(f)):
            return f"substituted polynomial differs at f = {f.values}"
    return None


def _check_transfer(result) -> Optional[str]:
    if result.status != "verified" or not result.report.passed:
        return f"transfer status {result.status!r}"
    return None


def _check_report(points: int, report) -> Optional[str]:
    if not report.passed:
        return f"{len(report.violations)} violations"
    if len(report.table) != points:
        return f"checked {len(report.table)} points, expected {points}"
    return None


def random_ypoly(sd, rng: random.Random, n: int, terms: int, max_factors: int):
    """A y-polynomial on the n x n grid with the given number of raw terms,
    each a product of 1..max_factors indicators on distinct rows."""
    raw = []
    for _ in range(terms):
        rows = rng.sample(range(1, n + 1), rng.randint(1, max_factors))
        factors = tuple((i, rng.randint(1, n)) for i in rows)
        raw.append((factors, Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))))
    return sd.YPolynomial(n, n, raw)


def random_xpoly(sd, rng: random.Random, n: int, terms: int, max_factors: int):
    raw = [
        (rng.sample(range(1, n * n + 1), rng.randint(1, max_factors)), Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
        for _ in range(terms)
    ]
    return sd.XPolynomial(n, raw)


def indicator_pipeline(sd, rng: random.Random, data: dict, out_dir: Path) -> list[Job]:
    ed = sd.get_property("ed")
    witness = sd.load_polynomial(Path(__file__).with_name("data") / data["witness_file"])
    n = witness.m
    y = sd.desymmetrize(witness, n)
    p = random_ypoly(sd, rng, n, data["random_terms"], 3)
    classes = [sd.FrequencyVector(n, lam) for lam in sd.partitions(n)]
    x = random_xpoly(sd, rng, data["andor_n"], data["random_terms"], 4)
    jobs = [
        Job(f"transfer m={m}", partial(sd.transfer_approximation, y, ed, m, EPS), _check_transfer)
        for m in data["transfer_m"]
    ]
    jobs += [
        Job("verify", lambda: sd.verify_approximation(y, ed, n, n, EPS), partial(_check_report, n**n)),
        Job(
            "roundtrips",
            partial(_roundtrips, sd, witness, out_dir / "roundtrip.json", p, classes, x),
            partial(_check_roundtrips, sd, witness, classes, x),
        ),
    ]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "degree-search": degree_search,
    "range-sweep": range_sweep,
    "lp-assembly": lp_assembly,
    "indicator-pipeline": indicator_pipeline,
}
