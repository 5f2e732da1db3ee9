"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalogue-browse --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics untraced;
with ``--trace 1`` it runs the same units once untraced and once with
spans around every public layer entry point, and reports the per-layer
table.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
status is nonzero when any output check failed.  ``error_share`` is
``failed / attempted``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

from time import perf_counter

_STARTED = perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import process_time  # noqa: E402

from common import (  # noqa: E402
    OUT_DIR,
    BENCH_DIR,
    SetupError,
    declared_units,
    import_repro,
    median,
    quantile,
)

SETUP_REPEATS = 5
# Fresh-interpreter import timings, spread evenly over the measured
# phase: the host's speed drifts over tens of seconds, and samples taken
# back to back would all land in one state.
IMPORT_PROBES = 6
MIN_UNITS = 3
DIGESTS_PATH = BENCH_DIR / "digests.json"
# The imports this process times from its first line, timed again in a
# fresh interpreter.
IMPORT_PROBE = (
    "from time import perf_counter\n"
    "started = perf_counter()\n"
    "import argparse, json, resource, subprocess\n"
    "import common\n"
    "common.import_repro()\n"
    "import workloads\n"
    "print(perf_counter() - started)\n"
)
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_units(workload, seconds: float, *, max_units: "int | None" = None,
              between=None):
    """Time units until they add up to ``seconds`` (and at least
    ``MIN_UNITS`` ran) or ``max_units`` ran; returns
    ``(units, walls, cpus)``.  ``between(measured_s)``, if given, runs
    untimed after each unit but the last."""
    units, walls, cpus = [], [], []
    measured = 0.0
    index = 0
    while index != max_units:
        wall_start, cpu_start = perf_counter(), process_time()
        raw = workload.execute(index)
        walls.append(perf_counter() - wall_start)
        cpus.append(process_time() - cpu_start)
        units.append(workload.account(index, raw))
        del raw
        index += 1
        measured += walls[-1]
        if index >= MIN_UNITS and measured >= seconds:
            break
        if between is not None:
            between(measured)
    return units, walls, cpus


def shipped_digests(workload_name: str) -> "dict[str, str]":
    if not DIGESTS_PATH.is_file():
        return {}
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8")).get(workload_name, {})


def check_outputs(workload, units):
    """Unit checks plus the end-of-run checks; returns
    ``(attempted, failed, failures, digests)``."""
    end = workload.finish()
    attempted = sum(unit.ops for unit in units) + end.extra_ops
    failed = sum(unit.failed for unit in units) + end.failed
    failures, digests = end.failures, end.digests
    for unit in units:
        failures.extend(unit.failures)
        digests.update(unit.digests)
    shipped = shipped_digests(workload.name)
    for label, digest in sorted(digests.items()):
        if label in shipped and shipped[label] != digest:
            failures.append(
                f"digest of seed {label} is {digest}, shipped {shipped[label]}"
            )
            failed = max(failed, 1)
    return attempted, failed, failures, digests


def end_to_end(units, walls, cpus, setup_s: float) -> "dict[str, float]":
    """Throughput and CPU cost are totals over the measured phase (the
    box's contention comes and goes in episodes of seconds, which a
    ratio of sums averages and a median of short windows does not);
    latencies are percentiles over every sample."""
    ops = sum(unit.ops for unit in units)
    latencies = [ms for unit in units for ms in unit.latencies_ms]
    if latencies:
        samples = latencies
    else:
        # Simulated-time workloads have no per-call wall time; the
        # sample is wall ms per operation of each replayed unit.
        samples = [wall * 1e3 / unit.ops for unit, wall in zip(units, walls)]
    return {
        "ops_per_s": ops / sum(walls),
        "cpu_ms_per_op": sum(cpus) * 1e3 / ops,
        "op_p50_ms": quantile(samples, 0.5),
        "op_p99_ms": quantile(samples, 0.99),
        "refused_share": sum(unit.refused for unit in units) / ops,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, len(samples)


def import_probe() -> float:
    """Import time of a fresh interpreter, started and waited for."""
    completed = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=BENCH_DIR,
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def measure(workload_cls, seed: int, seconds: float, import_s: float):
    """Build ``SETUP_REPEATS`` times and time the last deployment.
    Set-up time is the median import (this process and
    ``IMPORT_PROBES`` fresh interpreters) plus the median
    build-and-warm-up."""
    imports = [import_s]

    def probe_between_units(measured_s: float) -> None:
        if len(imports) <= measured_s / seconds * IMPORT_PROBES:
            imports.append(import_probe())

    builds = []
    for _ in range(SETUP_REPEATS):
        workload = workload_cls()
        started = perf_counter()
        workload.setup(seed)
        workload.warm_up()
        builds.append(perf_counter() - started)

    units, walls, cpus = run_units(workload, seconds, between=probe_between_units)
    while len(imports) <= IMPORT_PROBES:
        imports.append(import_probe())
    setup_s = median(imports) + median(builds)
    values, samples = end_to_end(units, walls, cpus, setup_s)
    attempted, failed, failures, digests = check_outputs(workload, units)
    notes = [
        f"units {len(units)}, latency samples {samples}, "
        f"measured {sum(walls):.2f} s wall",
        f"set-up: imports median of {len(imports)} {median(imports):.3f} s, "
        f"build and warm-up median of {SETUP_REPEATS} {median(builds):.3f} s",
        f"error_share {failed / attempted:.4f} ({failed} of {attempted})",
        f"digests {json.dumps(digests, sort_keys=True)}",
    ]
    classes = getattr(workload, "request_classes", None)
    if classes is not None:
        notes.append(f"distinct request classes {classes}")
    if workload_cls.name != "catalogue-browse":
        notes.append(
            "time is simulated: the workload runs as fast as the CPU "
            "allows, so there is no generator lateness to report"
        )
    return values, attempted, failed, failures, notes


def traced(workload_cls, seed: int):
    import spantrace

    # Untraced reference pass over the same fixed number of units, so
    # the per-layer counts do not depend on how fast the program is.
    workload = workload_cls()
    workload.setup(seed)
    workload.warm_up()
    units, walls, _ = run_units(
        workload, float("inf"), max_units=workload_cls.traced_units
    )
    attempted, failed, failures, digests = check_outputs(workload, units)

    workload = workload_cls()
    workload.setup(seed)
    workload.warm_up()
    recorder = spantrace.SpanRecorder()
    uninstall = spantrace.install(recorder)
    try:
        traced_units, traced_walls, _ = run_units(
            workload, float("inf"), max_units=workload_cls.traced_units
        )
    finally:
        uninstall()
    traced_attempted, traced_failed, traced_failures, traced_digests = (
        check_outputs(workload, traced_units)
    )
    attempted += traced_attempted
    failed += traced_failed
    failures += traced_failures
    if traced_digests != digests:
        failures.append("tracing changed the outputs: digests differ")
        failed = max(failed, 1)

    values = per_layer(
        recorder, spantrace.layer_self_ns(recorder.spans), traced_units
    )
    values["trace.coverage"] = (
        sum(values[f"{layer}.self_ms"] for layer in spantrace.LAYERS)
        / (sum(traced_walls) * 1e3)
    )
    values["trace.overhead_ratio"] = sum(traced_walls) / sum(walls)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload_cls.name}-seed{seed}.spans.jsonl.gz"
    written = recorder.write(path)
    notes = [
        f"units {len(units)}: untraced {sum(walls):.2f} s, "
        f"traced {sum(traced_walls):.2f} s",
        f"{written} spans -> {path.relative_to(BENCH_DIR.parent)}",
        f"error_share {failed / attempted:.4f} ({failed} of {attempted})",
    ]
    return values, attempted, failed, failures, notes


COUNTERS = (
    "negotiation.calls", "metadata.calls", "enumeration.calls",
    "enumeration.offers", "classification.calls", "classification.offers_out",
    "plan.calls", "batch.class_key.calls", "commitment.attempts",
    "commitment.commits", "cmfs.admit.calls", "cmfs.admit.refused",
    "network.reserve.calls", "network.reserve.refused", "network.route.calls",
    "faults.retry.calls", "journal.appends", "telemetry.calls",
    "session.adapt.calls", "session.adapt.failed",
)


def per_layer(recorder, self_ns, units) -> "dict[str, float]":
    import spantrace

    values: "dict[str, float]" = {}
    for layer in spantrace.LAYERS:
        values[f"{layer}.self_ms"] = self_ns.get(layer, 0) / 1e6
    for name in COUNTERS:
        values[name] = float(recorder.counters.get(name, 0))
    ops = sum(unit.ops for unit in units)
    values["plan.per_op"] = values["plan.calls"] / ops
    attempts = values["commitment.attempts"]
    values["commitment.useful_ratio"] = (
        values["commitment.commits"] / attempts if attempts else 0.0
    )
    hits = misses = evictions = 0
    for cache in recorder.caches.values():
        stats = cache.stats
        hits += sum(stats.hits.values())
        misses += sum(stats.misses.values())
        evictions += sum(stats.evictions.values())
    values["cache.hits"] = float(hits)
    values["cache.misses"] = float(misses)
    values["cache.evictions"] = float(evictions)
    values["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for name in (
        "service.tasks", "service.switches", "storm.gate.admitted",
        "storm.gate.requeued", "storm.gate.shed", "telemetry.spans_retained",
    ):
        values[name] = float(sum(unit.extras.get(name, 0) for unit in units))
    return values


def report(values, units_of, attempted, failed, failures, notes) -> int:
    for name, value in values.items():
        print(f"{name:28s} {value:14.4f} {units_of[name]}")
    for note in notes:
        print(f"# {note}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    correct = failed == 0 and not failures
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": units_of[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_repro()
        import workloads
    except (SetupError, ImportError) as error:
        print(f"perfbench: cannot benchmark this checkout: {error}", file=sys.stderr)
        return 2
    import_s = perf_counter() - _STARTED
    workload_cls = workloads.WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.trace:
        section = "per_layer"
        outcome = traced(workload_cls, args.seed)
    else:
        section = "end_to_end"
        outcome = measure(workload_cls, args.seed, args.seconds, import_s)
    values, attempted, failed, failures, notes = outcome
    units_of = declared_units(section)
    missing = sorted(set(units_of) - set(values))
    undeclared = sorted(set(values) - set(units_of))
    if missing or undeclared:
        print(f"perfbench: metrics out of step with BENCHMARK.json: "
              f"missing {missing}, undeclared {undeclared}", file=sys.stderr)
        return 2
    values = {name: values[name] for name in units_of}
    return report(values, units_of, attempted, failed, failures, notes)


if __name__ == "__main__":
    sys.exit(main())
