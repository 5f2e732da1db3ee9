"""Steadiness check: repeat each workload with different seeds and
report the median, quartiles and spread of every end-to-end metric.

    python3 perfbench/steady.py --runs 10 --write perfbench/SPREAD.json
    python3 perfbench/steady.py --runs 10 --against perfbench/SPREAD.json

Spread is ``(q3 - q1) / median`` with the quartiles of
``statistics.quantiles(values, n=4)``.  A metric is steady when its
spread is under a third of its bound in ``BENCHMARK.json``,
``setup_s`` included.  ``--against`` compares each median with a
recorded file and flags a move beyond the bound in the worse
direction.  Run ``k`` uses seed ``FIRST_SEED + k * SEED_STEP``.  Each
run is its own process, started one at a time and waited for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from common import BENCH_DIR, CHECKOUT, load_spec

RUN_TIMEOUT_S = 300
FIRST_SEED = 1
# Gap between seeds: wide enough that the seed windows of replayed
# units (seed, seed + 1, ...) never overlap from one run to the next.
SEED_STEP = 1000


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}: "
            f"{completed.stderr.strip()[-400:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output checks failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summarise(values: "list[float]") -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / middle if middle else float("inf"),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all",
                        help="comma-separated names, or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--write", default=None, metavar="PATH")
    parser.add_argument("--against", default=None, metavar="PATH")
    args = parser.parse_args(argv)

    spec = load_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = (
        [w["name"] for w in spec["workloads"]]
        if args.workloads == "all" else args.workloads.split(",")
    )
    seeds = [FIRST_SEED + k * SEED_STEP for k in range(args.runs)]
    previous = {}
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            previous = json.load(handle)["workloads"]

    summary = {}
    verdict = 0
    for workload in names:
        runs = [run_once(workload, seed, seconds) for seed in seeds]
        summary[workload] = {}
        print(f"{workload}: {len(runs)} runs, seeds {seeds}")
        for metric, declared in bounds.items():
            stats = summarise([run[metric] for run in runs])
            summary[workload][metric] = stats
            bound = declared["bound"]
            steady = stats["spread"] < bound / 3
            line = (
                f"  {metric:14s} median {stats['median']:11.4f}  "
                f"q1 {stats['q1']:11.4f}  q3 {stats['q3']:11.4f}  "
                f"spread {stats['spread']:6.3f} (bound {bound})"
                f"{'' if steady else '  NOT STEADY'}"
            )
            if not steady:
                verdict = 1
            old = previous.get(workload, {}).get(metric)
            if old is not None:
                change = stats["median"] / old["median"] - 1.0
                worse = change if declared["better"] == "lower" else -change
                line += f"  vs recorded {change:+.3f}"
                if worse > bound:
                    line += "  WORSE BEYOND BOUND"
                    verdict = 1
            print(line)
    if args.write:
        document = {
            "runs": args.runs,
            "seconds": seconds,
            "seeds": seeds,
            "machine": {
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "workloads": summary,
        }
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return verdict


if __name__ == "__main__":
    sys.exit(main())
