"""Check that the benchmark is steady: run it once for each of the seeds
1..N and report, for each end-to-end metric, the median and the quartile
spread as a share of the median, against the metric's bound in
BENCHMARK.json.

    python3 perfbench/steady.py --workloads degree-search,range-sweep --seeds 10
    python3 perfbench/steady.py --workloads lp-assembly --seeds 0 --counters

Each run is `python3 perfbench/run.py --workload W --seed n --seconds S
--trace 0`, one workload per process, S being run_seconds.  Every spread,
setup_s's too, must stay within its bound and should stay below a third
of it; the exit code is 1 unless every spread is below a third.  --counters runs the traced benchmark twice with seed
1 and requires the deterministic counters to repeat exactly.  Runs are
sequential, one process at a time; every run's metrics go to
perfbench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEATING = (
    "lp.solve.calls",
    "degreelp.lp_rows_max",
    "lp.solution_bits_max",
    "oracle.points_checked",
    "ypoly.terms_max",
    "cli.stdout_bytes",
)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    return {key: m["value"] for key, m in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..SEEDS")
    parser.add_argument("--counters", action="store_true", help="also check that counters repeat")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            runs.append(run(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
        report[workload] = {"runs": runs, "metrics": {}}
        if len(runs) >= 2:
            for name, bound in bounds.items():
                median, share = spread([r[name] for r in runs])
                steady &= share <= bound / 3
                verdict = "ok" if share <= bound / 3 else "above bound/3" if share <= bound else "WIDE"
                report[workload]["metrics"][name] = {"median": median, "spread": share, "bound": bound}
                print(f"  {name:12s} median {median:10.5g}  spread {share:7.2%}  bound {bound:.0%}  {verdict}")
        if args.counters:
            first, second = (run(workload, 1, seconds, 1) for _ in range(2))
            differ = [k for k in REPEATING if first[k] != second[k]]
            steady &= not differ
            report[workload]["counters"] = {k: first[k] for k in REPEATING}
            print(f"  counters {'DIFFER: ' + ', '.join(differ) if differ else 'repeat exactly'}: "
                  + ", ".join(f"{k}={first[k]}" for k in REPEATING), flush=True)
    out = HERE / "out" / time.strftime("steady-%Y%m%d-%H%M%S.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
