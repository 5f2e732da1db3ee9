"""Chaos scenario: negotiation + playout under a fault plan.

The chaos runner builds a deployment with the full resilience stack
enabled (retry policy, circuit breaker, leases), installs a
:class:`~repro.faults.FaultInjector` for the given plan, submits a
stream of negotiation requests, plays the committed sessions out to
completion under the injected failures, and reports blocking and
recovery metrics — including a final leak audit of every server ledger
and the transport system.

Everything is seeded, so one :class:`ChaosSpec` always produces the
same :class:`ChaosReport` — the property the chaos integration tests
assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.profile_manager import ProfileManager
from ..core.status import NegotiationStatus
from ..faults.health import CircuitBreaker
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..journal import ReservationJournal
from ..session.supervisor import SessionSupervisor
from ..util.errors import (
    ConfirmationTimeout,
    ManagerCrashError,
    SimulationError,
)
from ..util.tables import render_table
from .recover import restart_manager
from .scenario import Scenario, ScenarioSpec, build_scenario

__all__ = ["ChaosSpec", "ChaosReport", "run_chaos"]


@dataclass(frozen=True, slots=True)
class ChaosSpec:
    """One reproducible chaos run."""

    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    plan: FaultPlan = field(default_factory=FaultPlan)
    seed: int = 1
    requests: int = 4
    request_spacing_s: float = 5.0
    profile_name: str = "balanced"
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_threshold: int = 3
    breaker_recovery_s: float = 30.0
    lease_ttl_s: float = 120.0
    monitor_period_s: float = 1.0
    supervisor_timeout_s: float = 60.0
    supervisor_period_s: float = 5.0
    telemetry_seed: "int | None" = None  # None = observability off
    telemetry_jsonl: "str | None" = None  # trace JSONL output path
    timeseries_jsonl: "str | None" = None  # flight-recorder output path
    timeseries_interval_s: float = 1.0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise SimulationError("need at least one request")
        if self.request_spacing_s < 0:
            raise SimulationError("request_spacing_s must be non-negative")


@dataclass(slots=True)
class ChaosReport:
    """Blocking + recovery metrics of one chaos run."""

    statuses: dict[str, int] = field(default_factory=dict)
    negotiations: int = 0
    succeeded: int = 0
    degraded_offers: int = 0   # FAILEDWITHOFFER: alternate accepted
    blocked: int = 0           # FAILEDTRYLATER
    retry_after_hints: tuple[float, ...] = ()
    commit_attempts: int = 0
    retries: int = 0
    breaker_skips: int = 0
    breaker_opens: int = 0
    adaptations: int = 0
    failed_adaptations: int = 0
    interruptions: int = 0
    completed_sessions: int = 0
    aborted_sessions: int = 0
    leases_reaped: int = 0
    manager_crashes: int = 0
    recoveries: int = 0
    recovered_orphans: int = 0
    recovered_expired: int = 0
    recovered_rearmed: int = 0
    recovered_active: int = 0
    recovered_redo: int = 0
    supervisor_releases: int = 0
    journal_records: int = 0
    fault_stats: dict[str, float] = field(default_factory=dict)
    timeline: dict[str, object] = field(default_factory=dict)
    leaked_streams: int = 0
    leaked_flows: int = 0
    leaked_bps: float = 0.0

    @property
    def clean_teardown(self) -> bool:
        """No stream, flow or link bandwidth left reserved at the end."""
        return (
            self.leaked_streams == 0
            and self.leaked_flows == 0
            and self.leaked_bps == 0.0
        )

    def rows(self) -> list[tuple[str, str]]:
        rows = [
            ("negotiations", str(self.negotiations)),
            ("  succeeded", str(self.succeeded)),
            ("  degraded to alternate offer", str(self.degraded_offers)),
            ("  blocked (try later)", str(self.blocked)),
            ("commit attempts", str(self.commit_attempts)),
            ("retries (backoff)", str(self.retries)),
            ("offers skipped by breaker", str(self.breaker_skips)),
            ("breaker opens", str(self.breaker_opens)),
            ("adaptations", str(self.adaptations)),
            ("failed adaptations", str(self.failed_adaptations)),
            ("interruptions", str(self.interruptions)),
            ("sessions completed", str(self.completed_sessions)),
            ("sessions aborted", str(self.aborted_sessions)),
            ("leases reaped", str(self.leases_reaped)),
        ]
        if self.manager_crashes:
            rows.extend(
                [
                    ("manager crashes", str(self.manager_crashes)),
                    ("journal replays", str(self.recoveries)),
                    ("  orphans compensated", str(self.recovered_orphans)),
                    ("  expired during outage", str(self.recovered_expired)),
                    ("  choicePeriod re-armed", str(self.recovered_rearmed)),
                    ("  sessions preserved", str(self.recovered_active)),
                    ("  terminal redo releases", str(self.recovered_redo)),
                    ("supervisor releases", str(self.supervisor_releases)),
                    ("journal records", str(self.journal_records)),
                ]
            )
        for name, value in sorted(self.fault_stats.items()):
            if value:
                rows.append((f"fault: {name}", f"{value:g}"))
        rows.append(
            (
                "leaks at teardown",
                "none"
                if self.clean_teardown
                else f"{self.leaked_streams} streams, {self.leaked_flows} "
                     f"flows, {self.leaked_bps / 1e6:.1f} Mbps",
            )
        )
        if self.retry_after_hints:
            hints = ", ".join(f"{h:g}s" for h in self.retry_after_hints)
            rows.append(("retry-after hints", hints))
        return rows

    def render(self) -> str:
        return render_table(
            ("metric", "value"), self.rows(), title="chaos run report"
        )


def run_chaos(spec: ChaosSpec) -> "tuple[ChaosReport, Scenario]":
    """Execute one chaos run; returns the report and the (now spent)
    scenario for further inspection."""
    health = CircuitBreaker(
        failure_threshold=spec.breaker_threshold,
        recovery_time_s=spec.breaker_recovery_s,
    )
    journal = ReservationJournal()
    scenario = build_scenario(
        spec.scenario,
        retry_policy=spec.retry,
        health=health,
        lease_ttl_s=spec.lease_ttl_s,
        retry_seed=spec.seed,
        journal=journal,
        telemetry_seed=spec.telemetry_seed,
    )
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
        # Bound at the submission window plus the supervisor's patience
        # — everything after that is drain, captured by finish().
        recorder.arm(
            scenario.loop,
            until=(
                scenario.loop.now
                + spec.requests * spec.request_spacing_s
                + spec.supervisor_timeout_s
            ),
        )
    injector = FaultInjector(
        spec.plan,
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

    profiles = ProfileManager()
    if spec.profile_name not in profiles:
        raise SimulationError(
            f"unknown profile {spec.profile_name!r}; have {profiles.names()}"
        )
    profile = profiles.get(spec.profile_name)
    documents = scenario.document_ids()
    clients = list(scenario.clients.values())
    report = ChaosReport()
    hints: list[float] = []

    def submit(index: int) -> None:
        client = clients[index % len(clients)]
        result = scenario.manager.negotiate(
            documents[index % len(documents)], profile, client
        )
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
        except ConfirmationTimeout:
            pass  # choicePeriod elapsed; reservation already returned

    committer = scenario.manager.committer

    def recover() -> None:
        report.manager_crashes += 1
        replay = restart_manager(
            scenario, journal, injector, supervisor, runtime
        )
        report.recoveries += 1
        report.recovered_orphans += replay.orphans_released
        report.recovered_expired += replay.expired_released
        report.recovered_rearmed += replay.rearmed
        report.recovered_active += replay.active_sessions
        report.recovered_redo += replay.redo_released

    for index in range(spec.requests):
        scenario.loop.at(
            scenario.loop.now + index * spec.request_spacing_s,
            lambda i=index: submit(i),
            label=f"chaos-request-{index + 1}",
        )
    while True:
        try:
            scenario.loop.run()
            break
        except ManagerCrashError:
            recover()

    # Final reaping pass: zombies left by releases that were swallowed
    # while their fault window was still open are collected now.
    committer.reap_expired(scenario.clock.now())

    for session in runtime.finished:
        report.adaptations += session.record.adaptations
        report.failed_adaptations += session.record.failed_adaptations
        report.interruptions += session.record.interruptions
        if session.record.completed:
            report.completed_sessions += 1
        if session.record.aborted:
            report.aborted_sessions += 1

    report.retry_after_hints = tuple(hints)
    report.supervisor_releases = supervisor.stats.sessions_released
    report.journal_records = len(journal)
    report.commit_attempts = committer.stats.attempts
    report.retries = committer.stats.retries
    report.breaker_skips = committer.stats.breaker_skips
    report.breaker_opens = health.opens
    report.leases_reaped = committer.stats.leases_reaped
    report.fault_stats = injector.stats.as_dict()
    report.leaked_streams = sum(
        server.stream_count for server in scenario.servers.values()
    )
    report.leaked_flows = scenario.transport.flow_count
    report.leaked_bps = scenario.topology.total_reserved_bps()
    if recorder is not None:
        recorder.finish(scenario.clock.now())
        report.timeline = recorder.as_dict()
        if spec.timeseries_jsonl is not None:
            recorder.write_jsonl(spec.timeseries_jsonl)
    if exporter is not None:
        exporter.close()
    return report, scenario
