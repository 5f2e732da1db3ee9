"""The storm scenario: a brownout at peak load, survived (or not).

Builds a storm-scale deployment — fast disks, lean two-stream articles,
hundreds of concurrent playouts — then browns out a server at peak
load and lets the :mod:`repro.storm` layer absorb the resulting mass
renegotiation: the :class:`~repro.storm.AdmissionGate` rate-limits and
sheds arriving requests honestly, the
:class:`~repro.storm.StormController` processes the violation flood in
class-batched waves.  With ``backpressure=False`` the same deployment
runs bare — every victim re-walks the full offer list on every monitor
sweep — so :func:`run_storm_comparison` can put a number on what the
thundering herd costs.

Everything is seeded and driven by the deterministic event loop: the
same :class:`StormSpec` produces the same :class:`StormReport` and the
same telemetry byte-for-byte, which is what the CI storm job diffs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..cmfs.disk import DiskModel
from ..core.profile_manager import ProfileManager
from ..core.status import NegotiationStatus
from ..faults.health import CircuitBreaker
from ..faults.injector import FaultInjector
from ..faults.plan import FaultKind, FaultPlan, FaultSpec
from ..faults.retry import RetryPolicy
from ..journal import ReservationJournal
from ..session.supervisor import SessionSupervisor
from ..storm import AdmissionGate, GatePolicy, StormController
from ..telemetry.report import reconcile_journal
from ..util.errors import (
    ConfirmationTimeout,
    ManagerCrashError,
    SimulationError,
)
from ..util.tables import render_table
from ..util.validation import check_fraction, check_positive
from .recover import restart_manager
from .scenario import Scenario, ScenarioSpec, build_scenario

__all__ = [
    "StormSpec",
    "StormReport",
    "StormComparison",
    "run_storm",
    "run_storm_comparison",
]


def _storm_disk() -> DiskModel:
    """A mid-2000s striped array, not the CITR-era single Barracuda —
    the point of the storm scenario is hundreds of concurrent streams,
    so the per-stream overhead must not cap the fleet at ~40."""
    return DiskModel(
        transfer_rate_bps=600_000_000.0,
        avg_seek_s=0.001,
        rotational_latency_s=0.0005,
        round_s=0.5,
    )


@dataclass(frozen=True, slots=True)
class StormSpec:
    """One reproducible renegotiation storm."""

    sessions: int = 200
    late_requests: int = 40       # arrivals during the brownout itself
    servers: int = 3
    clients: int = 24
    documents: int = 8
    document_duration_s: float = 300.0
    ramp_s: float = 60.0          # initial arrivals spread over [0, ramp_s]
    brownout_start_s: float = 90.0
    brownout_duration_s: float = 90.0
    severity: float = 0.4         # fraction of capacity lost
    target_servers: int = 1       # how many servers brown out
    seed: int = 1
    backpressure: bool = True     # False = bare deployment (the baseline)
    gate: GatePolicy = field(default_factory=lambda: GatePolicy(
        rate_per_s=6.0, burst=24, queue_limit=96, retry_limit=4,
    ))
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_threshold: int = 3
    breaker_recovery_s: float = 30.0
    lease_ttl_s: float = 120.0
    monitor_period_s: float = 2.0
    supervisor_timeout_s: float = 60.0
    supervisor_period_s: float = 10.0
    wave_delay_s: float = 0.5
    max_class_candidates: int = 4
    retry_budget: int = 8
    profile_name: str = "balanced"
    extra_faults: "tuple[FaultSpec, ...]" = ()
    telemetry_seed: "int | None" = None   # None = observability off
    telemetry_jsonl: "str | None" = None  # trace JSONL output path
    timeseries_jsonl: "str | None" = None  # flight-recorder output path
    timeseries_interval_s: float = 1.0

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise SimulationError("need at least one session")
        if self.late_requests < 0:
            raise SimulationError("late_requests must be non-negative")
        if self.target_servers < 1 or self.target_servers > self.servers:
            raise SimulationError(
                f"target_servers must be in 1..{self.servers}, "
                f"got {self.target_servers}"
            )
        check_fraction(self.severity, "severity")
        if self.severity == 0.0:
            raise SimulationError("severity 0 is not a storm")
        check_positive(self.ramp_s, "ramp_s")
        check_positive(self.brownout_duration_s, "brownout_duration_s")
        if self.brownout_start_s < 0:
            raise SimulationError("brownout_start_s must be non-negative")

    def deployment(self) -> ScenarioSpec:
        return ScenarioSpec(
            server_count=self.servers,
            client_count=self.clients,
            document_count=self.documents,
            backbone_bps=2_500_000_000.0,
            server_access_bps=700_000_000.0,
            client_access_bps=155_000_000.0,
            document_duration_s=self.document_duration_s,
            max_streams_per_server=256,
            disk=_storm_disk(),
            lean_documents=True,
        )

    def plan(self) -> FaultPlan:
        """The brownout window (per target server) plus any extras."""
        browns = tuple(
            FaultSpec(
                kind=FaultKind.SERVER_BROWNOUT,
                target_id=f"server-{chr(ord('a') + i)}",
                start_s=self.brownout_start_s,
                duration_s=self.brownout_duration_s,
                value=self.severity,
            )
            for i in range(self.target_servers)
        )
        return FaultPlan(faults=browns + self.extra_faults, seed=self.seed)


@dataclass(slots=True)
class StormReport:
    """What one storm run did, end to end."""

    backpressure: bool = True
    statuses: "dict[str, int]" = field(default_factory=dict)
    negotiations: int = 0
    succeeded: int = 0
    degraded_offers: int = 0
    blocked: int = 0              # FAILEDTRYLATER delivered to the caller
    retry_after_hints: "tuple[float, ...]" = ()
    sessions_started: int = 0
    completed_sessions: int = 0
    aborted_sessions: int = 0
    stuck_sessions: int = 0       # still active when the loop drained
    adaptations: int = 0
    failed_adaptations: int = 0
    interruptions: int = 0
    degraded_time_s: float = 0.0
    commit_attempts: int = 0
    retries: int = 0
    breaker_skips: int = 0
    breaker_opens: int = 0
    leases_reaped: int = 0
    gate: "dict[str, int]" = field(default_factory=dict)
    waves: "dict[str, int]" = field(default_factory=dict)
    manager_crashes: int = 0
    recoveries: int = 0
    recovered_active: int = 0
    supervisor_releases: int = 0
    journal_records: int = 0
    journal_balanced: bool = True
    journal_open_holders: int = 0
    metrics_match: "bool | None" = None  # None = telemetry off
    fault_stats: "dict[str, float]" = field(default_factory=dict)
    timeline: "dict[str, object]" = field(default_factory=dict)
    leaked_streams: int = 0
    leaked_flows: int = 0
    leaked_bps: float = 0.0
    duration_s: float = 0.0

    @property
    def clean_teardown(self) -> bool:
        return (
            self.leaked_streams == 0
            and self.leaked_flows == 0
            and self.leaked_bps == 0.0
        )

    @property
    def survived(self) -> bool:
        """The storm-survival contract: every session terminal, no
        reservation leaks, journal closed, no request stuck in the
        gate."""
        return (
            self.stuck_sessions == 0
            and self.clean_teardown
            and self.journal_balanced
            and self.metrics_match is not False
        )

    def as_dict(self) -> "dict[str, object]":
        return {
            "backpressure": self.backpressure,
            "statuses": dict(self.statuses),
            "negotiations": self.negotiations,
            "succeeded": self.succeeded,
            "degraded_offers": self.degraded_offers,
            "blocked": self.blocked,
            "retry_after_hints": list(self.retry_after_hints),
            "sessions_started": self.sessions_started,
            "completed_sessions": self.completed_sessions,
            "aborted_sessions": self.aborted_sessions,
            "stuck_sessions": self.stuck_sessions,
            "adaptations": self.adaptations,
            "failed_adaptations": self.failed_adaptations,
            "interruptions": self.interruptions,
            "degraded_time_s": self.degraded_time_s,
            "commit_attempts": self.commit_attempts,
            "retries": self.retries,
            "breaker_skips": self.breaker_skips,
            "breaker_opens": self.breaker_opens,
            "leases_reaped": self.leases_reaped,
            "gate": dict(self.gate),
            "waves": dict(self.waves),
            "manager_crashes": self.manager_crashes,
            "recoveries": self.recoveries,
            "recovered_active": self.recovered_active,
            "supervisor_releases": self.supervisor_releases,
            "journal_records": self.journal_records,
            "journal_balanced": self.journal_balanced,
            "journal_open_holders": self.journal_open_holders,
            "metrics_match": self.metrics_match,
            "fault_stats": dict(self.fault_stats),
            "timeline": dict(self.timeline),
            "leaked_streams": self.leaked_streams,
            "leaked_flows": self.leaked_flows,
            "leaked_bps": self.leaked_bps,
            "clean_teardown": self.clean_teardown,
            "survived": self.survived,
            "duration_s": self.duration_s,
        }

    def rows(self) -> "list[tuple[str, str]]":
        rows = [
            ("backpressure", "on" if self.backpressure else "OFF"),
            ("negotiations", str(self.negotiations)),
            ("  succeeded", str(self.succeeded)),
            ("  degraded to alternate offer", str(self.degraded_offers)),
            ("  blocked / shed (try later)", str(self.blocked)),
            ("sessions started", str(self.sessions_started)),
            ("  completed", str(self.completed_sessions)),
            ("  aborted", str(self.aborted_sessions)),
            ("  stuck (non-terminal)", str(self.stuck_sessions)),
            ("adaptations", str(self.adaptations)),
            ("failed adaptations", str(self.failed_adaptations)),
            ("interruptions", str(self.interruptions)),
            ("degraded time", f"{self.degraded_time_s:.1f}s"),
            ("commit attempts", str(self.commit_attempts)),
            ("retries (backoff)", str(self.retries)),
            ("offers skipped by breaker", str(self.breaker_skips)),
            ("breaker opens", str(self.breaker_opens)),
            ("leases reaped", str(self.leases_reaped)),
        ]
        for name in (
            "admitted", "queued", "shed", "redispatched",
            "requeued_try_later", "max_queue_depth",
        ):
            if name in self.gate:
                rows.append((f"gate {name}", str(self.gate[name])))
        for name, value in sorted(self.waves.items()):
            rows.append((f"storm {name}", str(value)))
        if self.manager_crashes:
            rows.extend([
                ("manager crashes", str(self.manager_crashes)),
                ("journal replays", str(self.recoveries)),
                ("  sessions preserved", str(self.recovered_active)),
                ("supervisor releases", str(self.supervisor_releases)),
            ])
        rows.append(("journal records", str(self.journal_records)))
        rows.append((
            "journal audit",
            "balanced"
            if self.journal_balanced
            else f"{self.journal_open_holders} open holders",
        ))
        if self.metrics_match is not None:
            rows.append((
                "journal/metrics reconciliation",
                "match" if self.metrics_match else "MISMATCH",
            ))
        for name, value in sorted(self.fault_stats.items()):
            if value:
                rows.append((f"fault: {name}", f"{value:g}"))
        rows.append((
            "leaks at teardown",
            "none"
            if self.clean_teardown
            else f"{self.leaked_streams} streams, {self.leaked_flows} "
                 f"flows, {self.leaked_bps / 1e6:.1f} Mbps",
        ))
        if self.retry_after_hints:
            sample = ", ".join(
                f"{h:g}s" for h in self.retry_after_hints[:6]
            )
            if len(self.retry_after_hints) > 6:
                sample += ", …"
            rows.append((
                "retry-after hints",
                f"{len(self.retry_after_hints)} issued ({sample})",
            ))
        rows.append(("simulated duration", f"{self.duration_s:.0f}s"))
        rows.append(("survived", "yes" if self.survived else "NO"))
        return rows

    def render(self) -> str:
        return render_table(
            ("metric", "value"), self.rows(), title="storm run report"
        )


@dataclass(slots=True)
class StormComparison:
    """Backpressure on vs off, same seed, same deployment."""

    with_backpressure: StormReport
    without_backpressure: StormReport

    @property
    def attempt_ratio(self) -> float:
        """How many more commitment attempts the bare deployment
        spends."""
        base = max(self.with_backpressure.commit_attempts, 1)
        return self.without_backpressure.commit_attempts / base

    @property
    def failed_adaptation_ratio(self) -> float:
        base = max(self.with_backpressure.failed_adaptations, 1)
        return self.without_backpressure.failed_adaptations / base

    @property
    def demonstrates_thrash(self) -> bool:
        """Does the bare run visibly thrash against the gated one?"""
        bare = self.without_backpressure
        gated = self.with_backpressure
        return (
            bare.commit_attempts > gated.commit_attempts
            and bare.failed_adaptations > gated.failed_adaptations
        )

    def as_dict(self) -> "dict[str, object]":
        return {
            "with_backpressure": self.with_backpressure.as_dict(),
            "without_backpressure": self.without_backpressure.as_dict(),
            "attempt_ratio": self.attempt_ratio,
            "failed_adaptation_ratio": self.failed_adaptation_ratio,
            "demonstrates_thrash": self.demonstrates_thrash,
        }

    def render(self) -> str:
        gated, bare = self.with_backpressure, self.without_backpressure
        rows = [
            ("commit attempts", str(gated.commit_attempts),
             str(bare.commit_attempts)),
            ("failed adaptations", str(gated.failed_adaptations),
             str(bare.failed_adaptations)),
            ("adaptations", str(gated.adaptations),
             str(bare.adaptations)),
            ("degraded time", f"{gated.degraded_time_s:.1f}s",
             f"{bare.degraded_time_s:.1f}s"),
            ("sessions completed", str(gated.completed_sessions),
             str(bare.completed_sessions)),
            ("blocked / shed", str(gated.blocked), str(bare.blocked)),
            ("survived", "yes" if gated.survived else "NO",
             "yes" if bare.survived else "NO"),
        ]
        table = render_table(
            ("metric", "backpressure on", "backpressure off"),
            rows,
            title="storm comparison",
        )
        verdict = (
            f"bare deployment spends {self.attempt_ratio:.1f}x the "
            f"commitment attempts and {self.failed_adaptation_ratio:.1f}x "
            "the failed adaptations"
        )
        return f"{table}\n{verdict}"


def run_storm(spec: StormSpec) -> "tuple[StormReport, Scenario]":
    """Execute one storm run; returns the report and the spent
    scenario."""
    health = CircuitBreaker(
        failure_threshold=spec.breaker_threshold,
        recovery_time_s=spec.breaker_recovery_s,
    )
    journal = ReservationJournal()
    scenario = build_scenario(
        spec.deployment(),
        retry_policy=spec.retry,
        health=health,
        lease_ttl_s=spec.lease_ttl_s,
        retry_seed=spec.seed,
        journal=journal,
        telemetry_seed=spec.telemetry_seed,
    )
    # A browned-out machine must not trivially re-admit the very load
    # it just shed — admission respects the shrunken round budget.
    for server in scenario.servers.values():
        server.degradation_limits_admission = True
    exporter = None
    if spec.telemetry_jsonl is not None and scenario.telemetry is not None:
        from ..telemetry import JsonlSpanExporter

        exporter = JsonlSpanExporter(spec.telemetry_jsonl)
        scenario.telemetry.tracer.add_exporter(exporter)
    recorder = None
    if scenario.telemetry is not None and scenario.telemetry.enabled:
        from ..telemetry.timeseries import FlightRecorder

        recorder = FlightRecorder(
            scenario.telemetry, interval_s=spec.timeseries_interval_s
        )
        # Bound the sampler at the storm's active phase (ramp + the
        # brownout window + a recovery margin); the loop then drains
        # and finish() captures the settled end state.
        recorder.arm(
            scenario.loop,
            until=(
                max(spec.ramp_s, spec.brownout_start_s)
                + spec.brownout_duration_s
                + spec.supervisor_timeout_s
            ),
        )
    injector = FaultInjector(
        spec.plan(),
        clock=scenario.clock,
        attempt_timeout_s=spec.retry.attempt_timeout_s,
    )
    injector.install(scenario.servers, scenario.transport)
    injector.install_journal(journal)
    injector.arm(scenario.loop)
    runtime = scenario.runtime(monitor_period_s=spec.monitor_period_s)
    supervisor = SessionSupervisor(
        clock=scenario.clock,
        runtime=runtime,
        heartbeat_timeout_s=spec.supervisor_timeout_s,
        period_s=spec.supervisor_period_s,
        telemetry=scenario.telemetry,
    )
    gate = AdmissionGate(
        scenario.loop,
        policy=spec.gate,
        seed=spec.seed,
        telemetry=scenario.telemetry,
        enabled=spec.backpressure,
    )
    controller: "StormController | None" = None
    if spec.backpressure:
        controller = StormController(
            runtime,
            wave_delay_s=spec.wave_delay_s,
            max_class_candidates=spec.max_class_candidates,
            retry_budget=spec.retry_budget,
            seed=spec.seed,
            telemetry=scenario.telemetry,
        )

    profiles = ProfileManager()
    if spec.profile_name not in profiles:
        raise SimulationError(
            f"unknown profile {spec.profile_name!r}; have {profiles.names()}"
        )
    profile = profiles.get(spec.profile_name)
    documents = scenario.document_ids()
    clients = list(scenario.clients.values())
    report = StormReport(backpressure=spec.backpressure)
    hints: "list[float]" = []

    def deliver(result, client) -> None:
        report.negotiations += 1
        report.statuses[str(result.status)] = (
            report.statuses.get(str(result.status), 0) + 1
        )
        if result.status is NegotiationStatus.SUCCEEDED:
            report.succeeded += 1
        elif result.status is NegotiationStatus.FAILED_WITH_OFFER:
            report.degraded_offers += 1
        elif result.status is NegotiationStatus.FAILED_TRY_LATER:
            report.blocked += 1
            if result.retry_after_s is not None:
                hints.append(result.retry_after_s)
        if not result.status.reserves_resources:
            return
        try:
            runtime.start_session(result, profile, client)
            report.sessions_started += 1
        except ConfirmationTimeout:
            pass  # choicePeriod elapsed; reservation already returned

    def submit(index: int) -> None:
        client = clients[index % len(clients)]
        document = documents[index % len(documents)]
        gate.submit(
            f"req-{index + 1}",
            lambda: scenario.manager.negotiate(document, profile, client),
            lambda result, c=client: deliver(result, c),
        )

    spacing = spec.ramp_s / spec.sessions
    for index in range(spec.sessions):
        scenario.loop.at(
            index * spacing,
            lambda i=index: submit(i),
            label=f"storm-request-{index + 1}",
        )
    # Late joiners arrive while the brownout is biting: these are the
    # requests the gate queues or sheds (with honest hints).
    if spec.late_requests:
        late_spacing = (spec.brownout_duration_s / 2) / spec.late_requests
        for j in range(spec.late_requests):
            index = spec.sessions + j
            scenario.loop.at(
                spec.brownout_start_s + (j + 1) * late_spacing,
                lambda i=index: submit(i),
                label=f"storm-late-request-{j + 1}",
            )

    committer = scenario.manager.committer

    def recover() -> None:
        report.manager_crashes += 1
        replay = restart_manager(
            scenario, journal, injector, supervisor, runtime
        )
        report.recoveries += 1
        report.recovered_active += replay.active_sessions

    while True:
        try:
            scenario.loop.run()
            break
        except ManagerCrashError:
            recover()

    committer.reap_expired(scenario.clock.now())

    for session in runtime.finished:
        report.adaptations += session.record.adaptations
        report.failed_adaptations += session.record.failed_adaptations
        report.interruptions += session.record.interruptions
        report.degraded_time_s += session.record.degraded_time_s
        if session.record.completed:
            report.completed_sessions += 1
        if session.record.aborted:
            report.aborted_sessions += 1
    report.stuck_sessions = runtime.active_count

    report.retry_after_hints = tuple(hints)
    report.supervisor_releases = supervisor.stats.sessions_released
    report.commit_attempts = committer.stats.attempts
    report.retries = committer.stats.retries
    report.breaker_skips = committer.stats.breaker_skips
    report.breaker_opens = health.opens
    report.leases_reaped = committer.stats.leases_reaped
    report.gate = gate.stats.as_dict()
    if controller is not None:
        report.waves = controller.stats.as_dict()
    report.fault_stats = injector.stats.as_dict()
    report.journal_records = len(journal)
    audit = reconcile_journal(
        journal,
        scenario.telemetry.metrics if scenario.telemetry is not None else None,
    )
    report.journal_balanced = bool(audit["balanced"])
    report.journal_open_holders = len(audit["open_holders"])
    report.metrics_match = (
        bool(audit["metrics_match"]) if "metrics_match" in audit else None
    )
    report.leaked_streams = sum(
        server.stream_count for server in scenario.servers.values()
    )
    report.leaked_flows = scenario.transport.flow_count
    report.leaked_bps = scenario.topology.total_reserved_bps()
    report.duration_s = scenario.clock.now()
    if recorder is not None:
        recorder.finish(scenario.clock.now())
        report.timeline = recorder.as_dict()
        if spec.timeseries_jsonl is not None:
            recorder.write_jsonl(spec.timeseries_jsonl)
    if exporter is not None:
        exporter.close()
    return report, scenario


def run_storm_comparison(spec: StormSpec) -> StormComparison:
    """Run the same storm twice — backpressure on, then off — from the
    same seed, and report both (the trace JSONL path, if any, belongs
    to the gated run)."""
    gated, _ = run_storm(replace(spec, backpressure=True))
    bare, _ = run_storm(
        replace(spec, backpressure=False, telemetry_jsonl=None)
    )
    return StormComparison(
        with_backpressure=gated, without_backpressure=bare
    )
