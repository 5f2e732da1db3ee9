"""Command-line interface.

Subcommands exercising the library from a shell:

* ``demo`` — negotiate one article end to end on a built-in deployment,
  printing the GUI windows along the way;
* ``windows`` — render the §8 GUI windows for a stock profile;
* ``sweep`` — run a seeded workload through a chosen negotiator and
  print the outcome statistics;
* ``chaos`` — run negotiation + playout under a seeded fault plan
  (server crashes, link flaps, transient refusals, lost releases,
  manager crashes) and report blocking/recovery metrics;
* ``recover`` — kill the QoS manager at a chosen crash opportunity,
  then replay the write-ahead reservation journal and report the
  reconciliation (zero leaked capacity, preserved sessions);
* ``trace`` — run one fully traced negotiation and print the span tree
  plus the per-step offer accounting (drop counts and reasons);
* ``stats`` — run a telemetry-instrumented chaos or workload run and
  print the metrics snapshot plus the journal reconciliation audit;
* ``storm`` — brown out a server at peak load over hundreds of
  concurrent playouts and report how the admission gate and the storm
  controller absorbed the renegotiation storm (``--json`` emits the
  backpressure-on/off comparison);
* ``load`` — sweep the concurrent negotiation service over a seeded
  arrival process (Poisson/diurnal/flash crowd) at rising load
  multipliers and print the saturation curve; exits nonzero unless the
  service degrades gracefully at 2× saturation (honest hints, no
  starvation, zero leaks);
* ``slo`` — replay a seeded load cell with the flight recorder armed
  and grade it against the shipped SLO set (burn-rate alerts, error
  budgets); the ``brownout`` scenario must breach and exit nonzero;
* ``profile`` — extract the per-negotiation critical path from the
  span tree at rising load multipliers, name the top bottleneck, and
  optionally write a folded-stack flamegraph;
* ``experiments`` — list the E-series experiment index;
* ``bench`` — run the negotiation throughput benchmark (default
  streaming ``negotiate`` and batch against the full-sort reference,
  cache on/off) and write ``BENCH_negotiation.json``;
* ``lint`` — run the reprolint project-invariant checks (REP001..REP011;
  ``--deep`` adds the whole-program resource-flow rules REP012..REP017
  with a content-hashed extract cache, ``--changed`` restricts the run
  to the files touched in the git diff), exiting nonzero on findings;
* ``typecheck`` — run the strict mypy gate over the typed core
  (skipped gracefully when mypy is not installed).

Invoke as ``python -m repro <subcommand>``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]

EXPERIMENT_INDEX = [
    ("E1", "Sec 5.2.1 static negotiation status", "benchmarks/test_e01_sns_example.py"),
    ("E2", "Sec 5.2.2 setting 1: OIF + order", "benchmarks/test_e02_oif_setting1.py"),
    ("E3", "Sec 5.2.2 setting 2: cost importance 0", "benchmarks/test_e03_oif_setting2.py"),
    ("E4", "Sec 5.2.2 setting 3: QoS importance 0", "benchmarks/test_e04_oif_setting3.py"),
    ("E5", "Sec 6 QoS mapping formulas", "benchmarks/test_e05_qos_mapping.py"),
    ("E6", "Sec 7 Eq.1 cost decomposition", "benchmarks/test_e06_cost_model.py"),
    ("E7", "blocking vs load, smart vs baselines", "benchmarks/test_e07_blocking_vs_load.py"),
    ("E8", "status mix vs variant richness", "benchmarks/test_e08_status_distribution.py"),
    ("E9", "adaptation vs none under congestion", "benchmarks/test_e09_adaptation.py"),
    ("E10", "classification scalability", "benchmarks/test_e10_scalability.py"),
    ("E11", "cost limits greediness", "benchmarks/test_e11_cost_greediness.py"),
    ("E12", "choicePeriod timer + renegotiation", "benchmarks/test_e12_confirmation_renegotiation.py"),
    ("E13", "Figures 1-7 regenerated", "benchmarks/test_e13_figures.py"),
    ("E14", "ablation: SCAN vs FCFS", "benchmarks/test_e14_scan_vs_fcfs.py"),
    ("E15", "ablation: admission control", "benchmarks/test_e15_admission_ablation.py"),
    ("E16", "ablation: policy vs satisfaction", "benchmarks/test_e16_policy_satisfaction.py"),
    ("E17", "extension: future reservations", "benchmarks/test_e17_future_reservations.py"),
    ("E18", "extension: multi-domain hierarchy", "benchmarks/test_e18_multidomain.py"),
    ("E19", "data-path stalls vs admission", "benchmarks/test_e19_datapath_stalls.py"),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPDC-5 '96 QoS negotiation procedure, reproduced.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_telemetry_argument(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--telemetry", default=None, metavar="PATH",
            help="write the run's trace spans to PATH as JSONL",
        )

    demo = sub.add_parser("demo", help="negotiate one article end to end")
    demo.add_argument("--profile", default="balanced",
                      help="stock profile name (default: balanced)")
    demo.add_argument("--documents", type=int, default=3,
                      help="catalogue size of the built-in deployment")
    add_telemetry_argument(demo)

    windows = sub.add_parser("windows", help="render the Sec 8 GUI windows")
    windows.add_argument("--profile", default="balanced")

    sweep = sub.add_parser("sweep", help="run a seeded workload")
    sweep.add_argument("--negotiator", default="smart",
                       choices=["smart", "static", "first-fit", "cost-only",
                                "qos-only"])
    sweep.add_argument("--rate", type=float, default=0.1,
                       help="arrival rate, requests/s")
    sweep.add_argument("--horizon", type=float, default=900.0,
                       help="workload horizon, seconds")
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--servers", type=int, default=2)
    sweep.add_argument("--no-adaptation", action="store_true")
    add_telemetry_argument(sweep)

    chaos = sub.add_parser(
        "chaos", help="run negotiation + playout under a fault plan"
    )
    chaos.add_argument(
        "--fault", action="append", default=[], dest="faults",
        metavar="KIND:TARGET:START:DUR[:VALUE]",
        help="injectable fault, e.g. crash:server-a:10:30, "
             "flap:L-client-1:40:20:0.9, slow:server-b:0:60:2.5, "
             "refuse:server-a:0:-:2, lost-release:server-a:0:120, "
             "crash-manager:manager:0:-:4 (die at the 4th crash "
             "opportunity); repeatable (default: a demo crash + link flap)",
    )
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--requests", type=int, default=4)
    chaos.add_argument("--servers", type=int, default=3)
    chaos.add_argument("--spacing", type=float, default=5.0,
                       help="request inter-arrival time, seconds")
    chaos.add_argument("--profile", default="balanced")
    chaos.add_argument("--lease-ttl", type=float, default=120.0)
    chaos.add_argument("--max-attempts", type=int, default=3,
                       help="retry attempts per reservation call")
    add_telemetry_argument(chaos)

    recover = sub.add_parser(
        "recover",
        help="crash the QoS manager mid-negotiation, replay the journal",
    )
    recover.add_argument("--seed", type=int, default=1)
    recover.add_argument("--requests", type=int, default=3)
    recover.add_argument("--servers", type=int, default=3)
    recover.add_argument("--spacing", type=float, default=5.0,
                         help="request inter-arrival time, seconds")
    recover.add_argument("--profile", default="balanced")
    recover.add_argument(
        "--crash-after", type=int, default=4, metavar="K",
        help="die at the K-th crash opportunity (journal append or "
             "admission call; default 4)",
    )
    recover.add_argument(
        "--journal", default=None, metavar="PATH",
        help="file-backed journal path (default: in-memory); the restart "
             "reopens it from disk through the torn-tail reader",
    )
    recover.add_argument("--journal-describe", action="store_true",
                         help="print the journal's record timeline")
    add_telemetry_argument(recover)

    trace = sub.add_parser(
        "trace",
        help="run one fully traced negotiation and print the span tree",
    )
    trace.add_argument("--seed", type=int, default=7,
                       help="telemetry seed (trace/span ids; default 7)")
    trace.add_argument("--profile", default="balanced")
    trace.add_argument("--documents", type=int, default=3)
    trace.add_argument("--document", default=None,
                       help="document id (default: the first in the catalogue)")
    trace.add_argument("--json", action="store_true",
                       help="print the negotiation report as JSON")
    add_telemetry_argument(trace)

    stats = sub.add_parser(
        "stats",
        help="run an instrumented chaos or workload run, print metrics",
    )
    stats.add_argument("--mode", default="chaos",
                       choices=["chaos", "workload"])
    stats.add_argument("--seed", type=int, default=1)
    stats.add_argument("--requests", type=int, default=4,
                       help="chaos-mode request count")
    stats.add_argument("--servers", type=int, default=3)
    stats.add_argument("--rate", type=float, default=0.1,
                       help="workload-mode arrival rate, requests/s")
    stats.add_argument("--horizon", type=float, default=300.0,
                       help="workload-mode horizon, seconds")
    stats.add_argument("--profile", default="balanced")
    stats.add_argument("--json", action="store_true",
                       help="emit one canonical JSON document")
    add_telemetry_argument(stats)

    storm = sub.add_parser(
        "storm",
        help="brown out a server at peak load, survive the "
             "renegotiation storm",
    )
    storm.add_argument("--sessions", type=int, default=200,
                       help="concurrent playout requests (default 200)")
    storm.add_argument("--late-requests", type=int, default=40,
                       help="arrivals during the brownout itself")
    storm.add_argument("--severity", type=float, default=0.4,
                       help="fraction of capacity lost (default 0.4)")
    storm.add_argument("--brownout-start", type=float, default=90.0,
                       metavar="S", help="brownout onset, seconds")
    storm.add_argument("--brownout-duration", type=float, default=90.0,
                       metavar="S", help="brownout length, seconds")
    storm.add_argument("--servers", type=int, default=3)
    storm.add_argument("--seed", type=int, default=1)
    storm.add_argument("--profile", default="balanced")
    storm.add_argument(
        "--no-backpressure", action="store_true",
        help="run the bare deployment only (the thundering-herd "
             "baseline)",
    )
    storm.add_argument(
        "--compare", action="store_true",
        help="run backpressure on AND off from the same seed, print "
             "the comparison",
    )
    storm.add_argument(
        "--json", action="store_true",
        help="emit the backpressure-on/off comparison as JSON "
             "(implies --compare)",
    )
    add_telemetry_argument(storm)

    load = sub.add_parser(
        "load",
        help="sweep the concurrent negotiation service to saturation "
             "and audit the overload behaviour",
    )
    load.add_argument(
        "--arrivals", default="poisson",
        choices=("poisson", "diurnal", "flash"),
        help="arrival process (default poisson)",
    )
    load.add_argument("--rate", type=float, default=1.0, metavar="R",
                      help="base arrival rate, negotiations/s "
                           "(default 1.0)")
    load.add_argument("--horizon", type=float, default=120.0,
                      metavar="S", help="arrival window, seconds "
                                        "(default 120)")
    load.add_argument(
        "--multipliers", default="0.5,1,2,4,8", metavar="M,M,...",
        help="comma-separated offered-load multipliers swept over the "
             "base rate (default 0.5,1,2,4,8)",
    )
    load.add_argument("--servers", type=int, default=3)
    load.add_argument("--clients", type=int, default=12)
    load.add_argument("--seed", type=int, default=1,
                      help="arrivals + user behaviour seed")
    load.add_argument("--scheduler-seed", type=int, default=0,
                      help="cooperative-scheduler interleaving seed")
    load.add_argument("--profile", default="balanced")
    load.add_argument(
        "--no-gate", action="store_true",
        help="bypass the admission gate (every arrival starts a "
             "negotiation task immediately)",
    )
    load.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON on stdout",
    )
    load.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the JSON report to PATH "
             "(e.g. BENCH_load.json)",
    )
    load.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="committed BENCH_load.json to regress against; fail when "
             "any shared multiplier's served rate drops below the "
             "tolerance",
    )
    load.add_argument(
        "--tolerance", type=float, default=0.20, metavar="F",
        help="tolerated fractional served-rate drop vs the baseline "
             "(default %(default)s)",
    )

    slo = sub.add_parser(
        "slo",
        help="replay a seeded load cell with the flight recorder armed "
             "and grade it against the shipped SLO set; exits nonzero "
             "when a burn-rate alert pages or an error budget is spent",
    )
    slo.add_argument(
        "--scenario", default="nominal",
        choices=("nominal", "brownout"),
        help="nominal = the green path (must pass); brownout = a "
             "mid-run capacity loss across every server (must breach)",
    )
    slo.add_argument("--multiplier", type=float, default=1.0,
                     help="offered-load multiplier (default 1.0)")
    slo.add_argument("--rate", type=float, default=1.0, metavar="R",
                     help="base arrival rate, negotiations/s")
    slo.add_argument("--horizon", type=float, default=120.0, metavar="S",
                     help="arrival window, seconds (default 120)")
    slo.add_argument("--seed", type=int, default=1,
                     help="arrivals + user behaviour seed")
    slo.add_argument("--scheduler-seed", type=int, default=0,
                     help="cooperative-scheduler interleaving seed")
    slo.add_argument("--telemetry-seed", type=int, default=7,
                     help="trace/span id seed (default 7)")
    slo.add_argument("--interval", type=float, default=1.0, metavar="S",
                     help="flight-recorder scrape interval, simulated "
                          "seconds (default 1)")
    slo.add_argument("--severity", type=float, default=0.85,
                     help="brownout capacity loss fraction (default 0.85)")
    slo.add_argument("--brownout-start", type=float, default=30.0,
                     metavar="S", help="brownout onset, seconds")
    slo.add_argument("--brownout-duration", type=float, default=60.0,
                     metavar="S", help="brownout length, seconds")
    slo.add_argument("--timeseries", default=None, metavar="PATH",
                     help="write the flight-recorder time series to "
                          "PATH as canonical JSONL")
    slo.add_argument("--flamegraph", default=None, metavar="PATH",
                     help="write the critical-path folded stacks to "
                          "PATH (flamegraph.pl/speedscope format)")
    slo.add_argument("--report", default=None, metavar="PATH",
                     help="write the full graded run as JSON to PATH")
    slo.add_argument("--json", action="store_true",
                     help="emit the graded run as JSON on stdout")

    profile = sub.add_parser(
        "profile",
        help="profile the negotiation critical path per load "
             "multiplier and name the top bottleneck",
    )
    profile.add_argument(
        "--multipliers", default="0.5,1,2,4", metavar="M,M,...",
        help="comma-separated offered-load multipliers "
             "(default 0.5,1,2,4)",
    )
    profile.add_argument("--rate", type=float, default=1.0, metavar="R",
                         help="base arrival rate, negotiations/s")
    profile.add_argument("--horizon", type=float, default=120.0,
                         metavar="S",
                         help="arrival window, seconds (default 120)")
    profile.add_argument("--seed", type=int, default=1,
                         help="arrivals + user behaviour seed")
    profile.add_argument("--scheduler-seed", type=int, default=0,
                         help="cooperative-scheduler interleaving seed")
    profile.add_argument("--telemetry-seed", type=int, default=7,
                         help="trace/span id seed (default 7)")
    profile.add_argument("--flamegraph", default=None, metavar="PATH",
                         help="write the folded stacks of every "
                              "multiplier (section-prefixed) to PATH")
    profile.add_argument("--json", action="store_true",
                         help="emit the per-multiplier profiles as JSON")

    sub.add_parser("experiments", help="list the experiment index")

    from .perf.bench import add_bench_arguments

    bench = sub.add_parser(
        "bench",
        help="negotiation throughput benchmark (default streaming "
             "negotiate and batch vs the full-sort reference, cache "
             "on/off)",
    )
    add_bench_arguments(bench)

    from .analysis.cli import add_lint_arguments, add_typecheck_arguments

    lint = sub.add_parser(
        "lint", help="run the reprolint project-invariant checks"
    )
    add_lint_arguments(lint)

    typecheck = sub.add_parser(
        "typecheck", help="run the strict mypy gate over the typed core"
    )
    add_typecheck_arguments(typecheck)

    report = sub.add_parser(
        "report", help="concatenate the regenerated experiment tables"
    )
    report.add_argument(
        "--out-dir", default="benchmarks/out",
        help="directory the benchmark suite wrote its tables to",
    )
    return parser


def _attach_jsonl(scenario, path):
    """Wire a JSONL span exporter into a telemetry-enabled scenario;
    returns the exporter (or None when telemetry is off / no path)."""
    if path is None or scenario.telemetry is None:
        return None
    from .telemetry import JsonlSpanExporter

    exporter = JsonlSpanExporter(path)
    scenario.telemetry.tracer.add_exporter(exporter)
    return exporter


def _cmd_demo(args) -> int:
    from .client import ClientMachine
    from .core import ProfileManager
    from .sim import ScenarioSpec, build_scenario
    from .ui import information_window, main_window

    scenario = build_scenario(
        ScenarioSpec(document_count=args.documents),
        telemetry_seed=0 if args.telemetry is not None else None,
    )
    exporter = _attach_jsonl(scenario, args.telemetry)
    profiles = ProfileManager()
    if args.profile not in profiles:
        print(f"unknown profile {args.profile!r}; have {profiles.names()}",
              file=sys.stderr)
        return 2
    profile = profiles.get(args.profile)
    client = scenario.any_client()
    print(main_window(profiles))
    result = scenario.manager.negotiate(
        scenario.document_ids()[0], profile, client
    )
    print()
    print(information_window(result))
    if result.commitment is not None:
        result.commitment.confirm(scenario.clock.now())
        runtime = scenario.runtime()
        session = runtime.start_session(
            result, profile, client, confirm=False
        )
        scenario.loop.run()
        print(f"\nsession {session.session_id}: {session.state.value} "
              f"(offer {result.chosen.offer.offer_id}, "
              f"cost {result.chosen.offer.cost})")
    if exporter is not None:
        exporter.close()
        print(f"\n[trace: {exporter.exported} spans -> {args.telemetry}]")
    return 0


def _cmd_windows(args) -> int:
    from .core import ProfileManager
    from .ui import (
        audio_profile_window,
        cost_profile_window,
        main_window,
        profile_component_window,
        video_profile_window,
    )

    profiles = ProfileManager()
    if args.profile not in profiles:
        print(f"unknown profile {args.profile!r}; have {profiles.names()}",
              file=sys.stderr)
        return 2
    profile = profiles.get(args.profile)
    for window in (
        main_window(profiles),
        profile_component_window(profile),
        video_profile_window(profile),
        audio_profile_window(profile),
        cost_profile_window(profile),
    ):
        print(window)
        print()
    return 0


def _cmd_sweep(args) -> int:
    from .sim import (
        CostOnlyNegotiator,
        FirstFitNegotiator,
        QoSOnlyNegotiator,
        RunConfig,
        ScenarioSpec,
        SmartNegotiator,
        StaticNegotiator,
        WorkloadSpec,
        build_scenario,
        generate_requests,
        run_workload,
    )
    from .sim.metrics import RunStats
    from .util.tables import render_table

    by_name = {
        "smart": SmartNegotiator,
        "static": StaticNegotiator,
        "first-fit": FirstFitNegotiator,
        "cost-only": CostOnlyNegotiator,
        "qos-only": QoSOnlyNegotiator,
    }
    scenario = build_scenario(
        ScenarioSpec(server_count=args.servers),
        telemetry_seed=args.seed if args.telemetry is not None else None,
    )
    exporter = _attach_jsonl(scenario, args.telemetry)
    requests = generate_requests(
        WorkloadSpec(arrival_rate_per_s=args.rate, horizon_s=args.horizon),
        scenario.document_ids(),
        list(scenario.clients),
        rng=args.seed,
    )
    stats = run_workload(
        scenario,
        by_name[args.negotiator](scenario.manager),
        requests,
        config=RunConfig(adaptation_enabled=not args.no_adaptation),
    )
    print(
        render_table(
            RunStats.summary_headers(),
            [stats.summary_row(args.negotiator)],
            title=f"{len(requests)} requests, seed {args.seed}",
        )
    )
    print()
    for status, count in sorted(
        stats.statuses.as_dict().items(), key=lambda kv: -kv[1]
    ):
        print(f"  {status:<22} {count}")
    if exporter is not None:
        exporter.close()
        print(f"\n[trace: {exporter.exported} spans -> {args.telemetry}]")
    return 0


def _cmd_chaos(args) -> int:
    from .core import ProfileManager
    from .faults import FaultPlan, RetryPolicy, parse_fault_spec
    from .sim import ChaosSpec, ScenarioSpec, run_chaos
    from .util.errors import NotFoundError, SimulationError, ValidationError

    if args.profile not in ProfileManager():
        print(f"unknown profile {args.profile!r}; have "
              f"{ProfileManager().names()}", file=sys.stderr)
        return 2
    if args.faults:
        try:
            faults = tuple(parse_fault_spec(text) for text in args.faults)
        except ValidationError as error:
            print(f"bad fault spec: {error}", file=sys.stderr)
            return 2
    else:
        # Demonstration plan: crash the first server during the early
        # commitments, flap the first client's access link mid-playout.
        faults = (
            parse_fault_spec("crash:server-a:2:20"),
            parse_fault_spec("flap:L-client-1:30:15"),
        )
    plan = FaultPlan(faults, seed=args.seed)
    try:
        spec = ChaosSpec(
            scenario=ScenarioSpec(server_count=args.servers),
            plan=plan,
            seed=args.seed,
            requests=args.requests,
            request_spacing_s=args.spacing,
            profile_name=args.profile,
            retry=RetryPolicy(max_attempts=args.max_attempts),
            lease_ttl_s=args.lease_ttl,
            telemetry_seed=args.seed if args.telemetry is not None else None,
            telemetry_jsonl=args.telemetry,
        )
        print(plan.describe())
        print()
        report, _scenario = run_chaos(spec)
    except (NotFoundError, SimulationError, ValidationError) as error:
        print(f"bad chaos run: {error}", file=sys.stderr)
        return 2
    print(report.render())
    if not report.clean_teardown:
        print("\nWARNING: reservations leaked at teardown", file=sys.stderr)
        return 1
    return 0


def _cmd_recover(args) -> int:
    from .core import ProfileManager
    from .sim import CrashRecoverySpec, ScenarioSpec, run_crash_recovery
    from .util.errors import NotFoundError, SimulationError, ValidationError

    if args.profile not in ProfileManager():
        print(f"unknown profile {args.profile!r}; have "
              f"{ProfileManager().names()}", file=sys.stderr)
        return 2
    try:
        spec = CrashRecoverySpec(
            scenario=ScenarioSpec(server_count=args.servers),
            seed=args.seed,
            requests=args.requests,
            request_spacing_s=args.spacing,
            profile_name=args.profile,
            crash_opportunity=args.crash_after,
            journal_path=args.journal,
            telemetry_seed=args.seed if args.telemetry is not None else None,
            telemetry_jsonl=args.telemetry,
        )
        report, _scenario = run_crash_recovery(spec)
    except (NotFoundError, SimulationError, ValidationError) as error:
        print(f"bad recovery run: {error}", file=sys.stderr)
        return 2
    print(report.render())
    if args.journal_describe:
        print()
        print(report.journal_timeline)
    if not report.crashed:
        print("\nNOTE: the crash opportunity was never reached; try a "
              "smaller --crash-after", file=sys.stderr)
    if report.recovery is not None and not report.recovery.leak_free:
        print("\nWARNING: capacity leaked through recovery", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args) -> int:
    import json

    from .core import ProfileManager
    from .sim import ScenarioSpec, build_scenario
    from .telemetry import (
        InMemorySpanExporter,
        NegotiationReport,
        render_span_tree,
    )
    from .util.errors import (
        ConfirmationTimeout,
        NotFoundError,
        SimulationError,
        ValidationError,
    )

    profiles = ProfileManager()
    if args.profile not in profiles:
        print(f"unknown profile {args.profile!r}; have {profiles.names()}",
              file=sys.stderr)
        return 2
    profile = profiles.get(args.profile)
    jsonl = None
    try:
        scenario = build_scenario(
            ScenarioSpec(document_count=args.documents),
            telemetry_seed=args.seed,
        )
        memory = InMemorySpanExporter()
        scenario.telemetry.tracer.add_exporter(memory)
        jsonl = _attach_jsonl(scenario, args.telemetry)
        document_id = args.document or scenario.document_ids()[0]
        client = scenario.any_client()
        result = scenario.manager.negotiate(document_id, profile, client)
    except (NotFoundError, SimulationError, ValidationError) as error:
        if jsonl is not None:
            jsonl.close()
        print(f"bad trace run: {error}", file=sys.stderr)
        return 2
    if result.commitment is not None:
        try:
            result.commitment.confirm(scenario.clock.now())
        except ConfirmationTimeout:
            pass
        result.commitment.release()
    if jsonl is not None:
        jsonl.close()
    # Rebuild the report from the exported spans so the post-negotiation
    # step-6 confirmation span is included.
    report = NegotiationReport.from_spans(memory.spans)
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True, indent=2))
        return 0
    print(render_span_tree(memory.spans))
    print()
    print(report.render())
    if jsonl is not None:
        print(f"\n[trace: {jsonl.exported} spans -> {args.telemetry}]")
    return 0


def _cmd_stats(args) -> int:
    import json

    from .core import ProfileManager
    from .telemetry import reconcile_journal
    from .util.errors import NotFoundError, SimulationError, ValidationError

    if args.profile not in ProfileManager():
        print(f"unknown profile {args.profile!r}; have "
              f"{ProfileManager().names()}", file=sys.stderr)
        return 2

    try:
        if args.mode == "chaos":
            from .faults import FaultPlan, RetryPolicy, parse_fault_spec
            from .sim import ChaosSpec, ScenarioSpec, run_chaos

            plan = FaultPlan(
                (
                    parse_fault_spec("crash:server-a:2:20"),
                    parse_fault_spec("flap:L-client-1:30:15"),
                ),
                seed=args.seed,
            )
            spec = ChaosSpec(
                scenario=ScenarioSpec(server_count=args.servers),
                plan=plan,
                seed=args.seed,
                requests=args.requests,
                profile_name=args.profile,
                retry=RetryPolicy(),
                telemetry_seed=args.seed,
                telemetry_jsonl=args.telemetry,
            )
            chaos_report, scenario = run_chaos(spec)
            clean = chaos_report.clean_teardown
            extra = {
                "clean_teardown": clean,
                "negotiations": chaos_report.negotiations,
                "breaker_opens": chaos_report.breaker_opens,
                "retries": chaos_report.retries,
                "manager_crashes": chaos_report.manager_crashes,
            }
        else:
            from .sim import (
                RunConfig,
                ScenarioSpec,
                SmartNegotiator,
                WorkloadSpec,
                build_scenario,
                generate_requests,
                run_workload,
            )

            scenario = build_scenario(
                ScenarioSpec(server_count=args.servers),
                telemetry_seed=args.seed,
            )
            jsonl = _attach_jsonl(scenario, args.telemetry)
            requests = generate_requests(
                WorkloadSpec(arrival_rate_per_s=args.rate,
                             horizon_s=args.horizon),
                scenario.document_ids(),
                list(scenario.clients),
                rng=args.seed,
            )
            run_workload(
                scenario, SmartNegotiator(scenario.manager), requests,
                config=RunConfig(),
            )
            if jsonl is not None:
                jsonl.close()
            clean = (
                sum(s.stream_count for s in scenario.servers.values()) == 0
                and scenario.transport.flow_count == 0
            )
            extra = {"clean_teardown": clean, "requests": len(requests)}
    except (NotFoundError, SimulationError, ValidationError) as error:
        print(f"bad stats run: {error}", file=sys.stderr)
        return 2

    telemetry = scenario.telemetry
    journal = scenario.manager.committer.journal
    reconciliation = (
        reconcile_journal(journal, telemetry.metrics)
        if journal is not None
        else None
    )
    balanced = reconciliation is None or reconciliation["balanced"]
    if args.json:
        document = {
            "mode": args.mode,
            "seed": args.seed,
            "run": extra,
            "metrics": telemetry.metrics.snapshot(),
            "reconciliation": reconciliation,
        }
        print(json.dumps(document, sort_keys=True, indent=2))
    else:
        print(telemetry.metrics.render())
        if reconciliation is not None:
            print()
            print("journal reconciliation:")
            for key, value in sorted(reconciliation.items()):
                print(f"  {key}: {value}")
        print()
        for key, value in sorted(extra.items()):
            print(f"  {key}: {value}")
    if not clean or not balanced:
        print("\nWARNING: run leaked reservations or the journal does "
              "not reconcile", file=sys.stderr)
        return 1
    return 0


def _cmd_storm(args) -> int:
    import json

    from .core import ProfileManager
    from .sim import StormSpec, run_storm, run_storm_comparison
    from .util.errors import NotFoundError, SimulationError, ValidationError

    if args.profile not in ProfileManager():
        print(f"unknown profile {args.profile!r}; have "
              f"{ProfileManager().names()}", file=sys.stderr)
        return 2
    if args.no_backpressure and (args.compare or args.json):
        print("--no-backpressure cannot be combined with "
              "--compare/--json", file=sys.stderr)
        return 2
    try:
        spec = StormSpec(
            sessions=args.sessions,
            late_requests=args.late_requests,
            servers=args.servers,
            severity=args.severity,
            brownout_start_s=args.brownout_start,
            brownout_duration_s=args.brownout_duration,
            seed=args.seed,
            profile_name=args.profile,
            backpressure=not args.no_backpressure,
            telemetry_seed=args.seed if args.telemetry is not None else None,
            telemetry_jsonl=args.telemetry,
        )
        if args.compare or args.json:
            comparison = run_storm_comparison(spec)
            if args.json:
                print(json.dumps(
                    comparison.as_dict(), sort_keys=True, indent=2
                ))
            else:
                print(comparison.with_backpressure.render())
                print()
                print(comparison.render())
            report = comparison.with_backpressure
        else:
            report, _scenario = run_storm(spec)
            if not args.json:
                print(report.render())
    except (NotFoundError, SimulationError, ValidationError) as error:
        print(f"bad storm run: {error}", file=sys.stderr)
        return 2
    if not report.survived:
        print("\nWARNING: the storm was not survived (stuck sessions, "
              "leaks, or an unbalanced journal)", file=sys.stderr)
        return 1
    return 0


def _cmd_load(args) -> int:
    import json

    from .core import ProfileManager
    from .sim import ArrivalSpec, LoadSpec, run_load
    from .util.errors import NotFoundError, SimulationError, ValidationError

    if args.profile not in ProfileManager():
        print(f"unknown profile {args.profile!r}; have "
              f"{ProfileManager().names()}", file=sys.stderr)
        return 2
    try:
        multipliers = tuple(
            float(part) for part in args.multipliers.split(",") if part
        )
    except ValueError:
        print(f"bad --multipliers {args.multipliers!r}: expected "
              "comma-separated numbers", file=sys.stderr)
        return 2
    # Read the baseline before the run (and before --output lands), so
    # CI can regress a fresh sweep against the committed file even
    # when both flags name BENCH_load.json.
    baseline = None
    if args.baseline is not None:
        from .perf import load_baseline, load_throughputs

        try:
            baseline = load_throughputs(load_baseline(args.baseline))
        except ValidationError as error:
            print(f"bad --baseline: {error}", file=sys.stderr)
            return 2
    try:
        spec = LoadSpec(
            arrival=ArrivalSpec(
                kind=args.arrivals,
                rate_per_s=args.rate,
                horizon_s=args.horizon,
            ),
            servers=args.servers,
            clients=args.clients,
            seed=args.seed,
            scheduler_seed=args.scheduler_seed,
            multipliers=multipliers,
            use_gate=not args.no_gate,
            profile_name=args.profile,
        )
        report = run_load(spec)
    except (NotFoundError, SimulationError, ValidationError) as error:
        print(f"bad load run: {error}", file=sys.stderr)
        return 2
    payload = json.dumps(report.as_dict(), sort_keys=True, indent=2)
    if args.output is not None:
        import pathlib

        pathlib.Path(args.output).write_text(
            payload + "\n", encoding="utf-8"
        )
    if args.json:
        print(payload)
    else:
        print(report.render())
    if not report.graceful_at_2x:
        print("\nWARNING: the service did not degrade gracefully at "
              "2x saturation (starved clients, leaked reservations, "
              "dishonest hints, or the sweep never reached 2x "
              "capacity)", file=sys.stderr)
        return 1
    if baseline is not None:
        from .perf import compare_throughputs, load_throughputs

        try:
            regressions = compare_throughputs(
                load_throughputs(report.as_dict()), baseline,
                tolerance=args.tolerance,
            )
        except ValidationError as error:
            print(f"bad --tolerance: {error}", file=sys.stderr)
            return 2
        if regressions:
            print(f"\nFAIL: served rate regressed vs {args.baseline}",
                  file=sys.stderr)
            for regression in regressions:
                print(f"  {regression.render()}", file=sys.stderr)
            return 1
        print(f"no served-rate regression vs {args.baseline} "
              f"(tolerance {args.tolerance:.0%})")
    return 0


def _cmd_slo(args) -> int:
    import json
    import pathlib

    from .sim import SloRunSpec, run_slo
    from .telemetry import write_flamegraph
    from .util.errors import SimulationError, ValidationError

    try:
        spec = SloRunSpec(
            scenario=args.scenario,
            multiplier=args.multiplier,
            rate_per_s=args.rate,
            horizon_s=args.horizon,
            seed=args.seed,
            scheduler_seed=args.scheduler_seed,
            telemetry_seed=args.telemetry_seed,
            interval_s=args.interval,
            severity=args.severity,
            brownout_start_s=args.brownout_start,
            brownout_duration_s=args.brownout_duration,
        )
        report = run_slo(spec)
    except (SimulationError, ValidationError) as error:
        print(f"bad slo run: {error}", file=sys.stderr)
        return 2
    artifacts = []
    if args.timeseries is not None and report.recorder is not None:
        written = report.recorder.write_jsonl(args.timeseries)
        artifacts.append(f"{written} lines -> {args.timeseries}")
    if args.flamegraph is not None:
        lines = write_flamegraph(
            args.flamegraph, {args.scenario: report.paths}
        )
        artifacts.append(f"{lines} stacks -> {args.flamegraph}")
    if args.report is not None:
        pathlib.Path(args.report).write_text(
            json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        artifacts.append(f"report -> {args.report}")
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True, indent=2))
    else:
        print(report.slo.render())
        print()
        print(report.profile.render())
        for note in artifacts:
            print(f"[{note}]")
    if report.breached:
        print(f"\nWARNING: SLO breach on the {args.scenario} scenario "
              "(burn-rate page or exhausted error budget)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args) -> int:
    import json

    from .sim import ArrivalSpec, LoadSpec, run_load_cell_instrumented
    from .telemetry import (
        extract_critical_paths,
        profile_spans,
        write_flamegraph,
    )
    from .util.errors import SimulationError, ValidationError

    try:
        multipliers = tuple(
            float(part) for part in args.multipliers.split(",") if part
        )
    except ValueError:
        print(f"bad --multipliers {args.multipliers!r}: expected "
              "comma-separated numbers", file=sys.stderr)
        return 2
    try:
        spec = LoadSpec(
            arrival=ArrivalSpec(
                kind="poisson",
                rate_per_s=args.rate,
                horizon_s=args.horizon,
            ),
            seed=args.seed,
            scheduler_seed=args.scheduler_seed,
            telemetry_seed=args.telemetry_seed,
            multipliers=multipliers,
        )
    except (SimulationError, ValidationError) as error:
        print(f"bad profile run: {error}", file=sys.stderr)
        return 2
    sections = {}
    documents = {}
    for multiplier in multipliers:
        try:
            run = run_load_cell_instrumented(
                spec, multiplier, collect_spans=True
            )
        except (SimulationError, ValidationError) as error:
            print(f"bad profile run at x{multiplier:g}: {error}",
                  file=sys.stderr)
            return 2
        profile = profile_spans(run.spans)
        section = f"x{multiplier:g}"
        sections[section] = extract_critical_paths(run.spans)
        documents[section] = profile.as_dict()
        if not args.json:
            print(profile.render())
            bottleneck = profile.top_bottleneck
            if bottleneck is not None:
                print(f"x{multiplier:g}: top bottleneck {bottleneck} "
                      f"({profile.share(bottleneck) * 100:.1f}% of "
                      f"{profile.total_s:.3f}s)")
            print()
    if args.json:
        print(json.dumps(documents, sort_keys=True, indent=2))
    if args.flamegraph is not None:
        lines = write_flamegraph(args.flamegraph, sections)
        if not args.json:
            print(f"[{lines} stacks -> {args.flamegraph}]")
    return 0


def _cmd_experiments(_args) -> int:
    from .util.tables import render_table

    print(
        render_table(
            ("id", "experiment", "bench target"),
            EXPERIMENT_INDEX,
            title="Experiment index (see EXPERIMENTS.md)",
        )
    )
    return 0


def _cmd_report(args) -> int:
    import pathlib

    out_dir = pathlib.Path(args.out_dir)
    if not out_dir.is_dir():
        print(
            f"no results at {out_dir}; run "
            "`pytest benchmarks/ --benchmark-only` first",
            file=sys.stderr,
        )
        return 2
    tables = sorted(out_dir.glob("*.txt"))
    if not tables:
        print(f"no tables in {out_dir}", file=sys.stderr)
        return 2
    for path in tables:
        print(path.read_text(encoding="utf-8").rstrip())
        print()
    print(f"[{len(tables)} experiment tables from {out_dir}]")
    return 0


def _cmd_bench(args) -> int:
    from .perf.bench import run_bench_command

    return run_bench_command(args)


def _cmd_lint(args) -> int:
    from .analysis.cli import run_lint

    return run_lint(args)


def _cmd_typecheck(args) -> int:
    from .analysis.cli import run_typecheck

    return run_typecheck(args)


def main(argv: "Sequence[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "windows": _cmd_windows,
        "sweep": _cmd_sweep,
        "chaos": _cmd_chaos,
        "recover": _cmd_recover,
        "trace": _cmd_trace,
        "stats": _cmd_stats,
        "storm": _cmd_storm,
        "load": _cmd_load,
        "slo": _cmd_slo,
        "profile": _cmd_profile,
        "experiments": _cmd_experiments,
        "bench": _cmd_bench,
        "report": _cmd_report,
        "lint": _cmd_lint,
        "typecheck": _cmd_typecheck,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
