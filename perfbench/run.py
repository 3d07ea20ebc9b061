"""Run a symdeg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload degree-search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, one process, a table
                                        # (peak_rss_mb once, for the process)

Run from the root of a checkout.  symdeg is imported from the checkout's
src/ (no install), with SYMDEG_BUDGET removed from the environment.  The
workload's jobs run in passes for the --seconds window, at least one pass;
every output is checked against the pinned data.  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics, scaled to a
fixed machine speed measured by reference work timed between the jobs
(see `reference_work`); with
--trace 1 it holds the per-layer metrics of one traced pass, and the spans
are written to perfbench/out/.  Metric names and units come from
BENCHMARK.json at the root.
"""

from __future__ import annotations

import argparse
import importlib
import io
import contextlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import MissingHookError, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 15  # setup_s samples per run
REFERENCE_PER_PASS = 8  # reference_work samples per pass, at least
# reference_work's median time on the machine the benchmark was calibrated
# on (2-vCPU KVM guest, Python 3.11.7); see reference_work.
REFERENCE_S = 0.018
BUDGET_ENV_VAR = "SYMDEG_BUDGET"


class BenchmarkError(Exception):
    """The benchmark cannot run here: no source tree, or its definition and
    BENCHMARK.json disagree."""


def commit_id() -> str:
    """The checked-out commit, read from .git without running git; a
    checkout without .git has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_symdeg():
    """Import symdeg afresh from the checkout's src/."""
    src = ROOT / "src"
    if not (src / "symdeg" / "__init__.py").is_file():
        raise BenchmarkError(f"no symdeg package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [key for key in sys.modules if key == "symdeg" or key.startswith("symdeg.")]:
        del sys.modules[name]
    sd = importlib.import_module("symdeg")
    importlib.import_module("symdeg.cli")
    if Path(sd.__file__).resolve().parent != src / "symdeg":
        raise BenchmarkError(f"imported symdeg from {sd.__file__}, not from {src}")
    return sd


def warm_up(sd) -> None:
    """One small call through each layer the workloads use."""
    ed = sd.get_property("ed")
    cert = sd.approx_degree(ed, 3, 3)
    sd.verify_approximation(cert.optimal_polynomial(), ed, 3, 3, "1/3")
    y = sd.desymmetrize(cert.optimal_polynomial(), 3)
    sd.symmetrize(y)
    sd.transfer_approximation(y, ed, 4)
    sd.polynomial_from_dict(json.loads(sd.dumps_polynomial(y)))
    sd.substitute(sd.XPolynomial(2, [((1, 4), 1)]))
    with contextlib.redirect_stdout(io.StringIO()):
        sd.cli.main(["sweep", "--property", "ed", "--n", "3", "--m", "3..4"])


def reference_work() -> Fraction:
    """Fixed exact-rational work, independent of symdeg.  On a shared
    host the machine's speed shifts by up to a half for minutes at a time,
    and a run cannot average over shifts that last longer than it does.
    The median time of this work in a pass measures the speed during the
    pass; the pass's job times are multiplied by REFERENCE_S over that
    median, i.e. given in seconds at the calibration machine's speed.
    Like symdeg's exact simplex, it is big-integer Fraction arithmetic."""
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(i, i + 7)
    return total


def time_reference(samples: list[float], reps: int) -> None:
    for _ in range(reps):
        start = perf_counter()
        reference_work()
        samples.append(perf_counter() - start)


def timed_set_up() -> float:
    """Seconds to import the package afresh and warm it up."""
    start = perf_counter()
    warm_up(import_symdeg())
    return perf_counter() - start


# Runs timed_set_up in a fresh interpreter and prints its seconds.
SETUP_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import run; print(run.timed_set_up())"


def probe_set_up() -> float:
    """One setup_s sample, taken in a fresh interpreter: re-importing in this
    process would leave memory behind that counts toward peak_rss_mb."""
    probe = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(HERE)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(probe.stdout.split()[-1])


def run_pass(jobs, tracer: Tracer | None = None, between=None) -> tuple[list[float], list[str]]:
    """Run every job once: per-job seconds (only the call into symdeg is
    timed) and the failures, each as "job: reason".  `between`, if given,
    is called untimed before each job."""
    times, failures = [], []
    for job in jobs:
        if between is not None:
            between()
        if tracer is not None:
            tracer.enabled = True
        start = perf_counter()
        try:
            result = job.run()
        except Exception as exc:  # a failing job is counted, not fatal
            times.append(perf_counter() - start)
            failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            if tracer is not None:
                tracer.enabled = False
        times.append(perf_counter() - start)
        reason = job.check(result)
        if reason is not None:
            failures.append(f"{job.name}: {reason}")
        if tracer is not None:
            for key, value in job.counts(result).items():
                tracer.add(key, value)
    return times, failures


def summarize(per_pass: list[list[float]]) -> dict[str, float]:
    """wall_s, job_p50_s and job_max_s from the job times of each pass."""
    per_job = [statistics.median(column) for column in zip(*per_pass)]
    return {
        "wall_s": statistics.median(sum(times) for times in per_pass),
        "job_p50_s": statistics.median(per_job),
        "job_max_s": max(per_job),
    }


def run_workload(sd, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Untraced: passes over the jobs for the seconds window, end-to-end
    metrics (all but peak_rss_mb, which belongs to the process), scaled to
    the calibration machine's speed; `raw` holds them unscaled.  Before
    each job (untimed) reference_work runs, REFERENCE_PER_PASS times per
    pass in all, and, until there are SETUP_SAMPLES of them, one setup_s
    sample is taken, so that both span the window as the job times do.
    Each pass is scaled by its own reference samples, setup_s by those of
    the whole run.  Traced:
    a pass with no hooks installed, a traced pass, and another pass with
    no hooks; per-layer metrics of the traced pass, whose wall time is
    set against the mean of the other two, so that a steady drift in the
    machine's speed cancels out of trace.overhead_ratio."""
    OUT.mkdir(exist_ok=True)
    data = json.loads((HERE / "data" / "expected.json").read_text())[name]
    jobs = WORKLOADS[name](sd, random.Random(seed), data, OUT)
    failures: list[str] = []
    attempted = 0
    if trace:
        before, failures = run_pass(jobs)
        tracer = Tracer()
        tracer.install(sd)
        try:
            traced, failed = run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        after, failed_after = run_pass(jobs)
        failures += failed + failed_after
        attempted = 3 * len(jobs)
        metrics = tracer.metrics(sum(traced), (sum(before) + sum(after)) / 2)
        tracer.write(OUT / f"trace-{name}-seed{seed}.json")
        passes = 3
        raw = {}
    else:
        per_pass: list[list[float]] = []
        reference: list[list[float]] = []  # per pass
        setup_times: list[float] = []
        reps = -(-REFERENCE_PER_PASS // len(jobs))

        def between() -> None:
            time_reference(reference[-1], reps)
            if len(setup_times) < SETUP_SAMPLES:
                setup_times.append(probe_set_up())

        start = perf_counter()
        while True:
            reference.append([])
            times, failed = run_pass(jobs, between=between)
            per_pass.append(times)
            failures += failed
            attempted += len(jobs)
            elapsed = perf_counter() - start
            if elapsed + elapsed / len(per_pass) > seconds:
                break
        while len(setup_times) < SETUP_SAMPLES:
            setup_times.append(probe_set_up())
        reference_s = statistics.median(t for samples in reference for t in samples)
        scaled = [
            [t * REFERENCE_S / statistics.median(samples) for t in times]
            for times, samples in zip(per_pass, reference)
        ]
        metrics = summarize(scaled)
        metrics["setup_s"] = statistics.median(setup_times) * REFERENCE_S / reference_s
        raw = summarize(per_pass)
        raw["setup_s"] = statistics.median(setup_times)
        raw["reference_s"] = reference_s
        passes = len(per_pass)
    return {
        "jobs": len(jobs),
        "passes": passes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "raw": raw,
    }


def check_definition(spec: dict, trace: bool, metrics: dict, process_wide: set[str]) -> None:
    """Raise unless a workload's metrics plus the process-wide ones are
    exactly those BENCHMARK.json declares."""
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) | process_wide != declared:
        raise BenchmarkError(
            "metrics differ from BENCHMARK.json: "
            f"missing {sorted(declared - set(metrics))}, undeclared {sorted(set(metrics) - declared)}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in spec["workloads"]]
    if sorted(declared) != sorted(WORKLOADS):
        raise BenchmarkError(f"BENCHMARK.json workloads {declared} != implemented {sorted(WORKLOADS)}")
    names = declared if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(declared)}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    budget = os.environ.pop(BUDGET_ENV_VAR, None)
    sd = import_symdeg()
    warm_up(sd)
    meta = {
        "python": platform.python_version(),
        "commit": commit_id(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "symdeg_budget_found": budget,
    }
    print("# " + json.dumps(meta))

    # ru_maxrss is the peak of the whole process, so it is a workload's own
    # peak only when the process runs that one workload.
    process_wide = set() if args.trace else {"peak_rss_mb"}
    results = {}
    for name in names:
        result = run_workload(sd, name, args.seed, args.seconds, bool(args.trace))
        check_definition(spec, bool(args.trace), result["metrics"], process_wide)
        results[name] = result
        print(
            f"# {name}: {result['jobs']} jobs x {result['passes']} passes, "
            f"fail_ratio {result['failed'] / result['attempted']:.4f} "
            f"({result['failed']}/{result['attempted']})"
        )
        for failure in result["failures"]:
            print(f"#   FAILED {failure}")
        for key, value in result["metrics"].items():
            print(f"#   {key:42s} {value:>14.6g} {units[key]}")
        for key, value in result["raw"].items():
            print(f"#   unscaled {key:33s} {value:>14.6g} s")

    prefix = "{}." if len(names) > 1 else ""
    metrics = {
        prefix.format(name) + key: {"value": value, "unit": units[key]}
        for name, r in results.items()
        for key, value in r["metrics"].items()
    }
    if "peak_rss_mb" in process_wide:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = {"value": peak, "unit": units["peak_rss_mb"]}
        scope = f"all {len(names)} workloads" if len(names) > 1 else names[0]
        print(f"# process ({scope}): {'peak_rss_mb':32s} {peak:>14.6g} {units['peak_rss_mb']}")
    failed = sum(r["failed"] for r in results.values())
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, MissingHookError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
