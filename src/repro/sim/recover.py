"""Crash/recovery scenario: kill the manager mid-negotiation, replay.

The demo behind ``python -m repro recover``: a deployment negotiates a
stream of requests while a :class:`~repro.faults.plan.FaultKind.MANAGER_CRASH`
fault kills the QoS manager at a chosen crash opportunity (a journal
append or an admission call — the realistic death points of steps 5–6).
Phase two simulates the restart: the write-ahead journal — reopened
from disk when file-backed, exercising the torn-tail reader — is
replayed by a :class:`~repro.journal.RecoveryManager` against the
surviving server/transport ledgers, and the report proves the
reconciliation: orphans compensated, pending ``choicePeriod`` deadlines
re-armed, confirmed sessions preserved, zero leaked capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..core.profile_manager import ProfileManager
from ..faults.injector import FaultInjector
from ..faults.lease import LeaseManager
from ..faults.plan import FaultKind, FaultPlan, FaultSpec
from ..journal import (
    HolderOutcome,
    RecoveryManager,
    RecoveryReport,
    ReservationJournal,
)
from ..session.supervisor import SessionSupervisor
from ..util.errors import ConfirmationTimeout, ManagerCrashError, SimulationError
from ..util.tables import render_table
from .scenario import Scenario, ScenarioSpec, build_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..session.runtime import SessionRuntime

__all__ = [
    "CrashRecoverySpec",
    "CrashRecoveryReport",
    "restart_manager",
    "run_crash_recovery",
]


def restart_manager(
    scenario: Scenario,
    journal: ReservationJournal,
    injector: FaultInjector,
    supervisor: SessionSupervisor,
    runtime: "SessionRuntime",
) -> RecoveryReport:
    """Simulated manager restart in the middle of a running scenario.

    Volatile state (leases, in-flight negotiations) is gone; the
    journal and the ledgers are what survive.  The journal is replayed
    through a :class:`RecoveryManager` with the injector's crash hook
    detached — recovery's own appends are not crash opportunities —
    and re-attached afterwards.  Playouts whose timeline is still
    active survived the crash (client and servers kept streaming): the
    supervisor watches them by progress instead of waiting for a
    heartbeat the simulated client never sends.  Every other session
    the journal already closed (the crash struck mid-teardown, after
    RELEASED was journaled) is aborted now, or it would pin the
    monitor sweep forever.  Returns the replay report.
    """
    committer = scenario.manager.committer
    if committer.leases is not None:
        committer.leases = LeaseManager(ttl_s=committer.leases.ttl_s)
    recovery = RecoveryManager(
        journal,
        scenario.servers,
        scenario.transport,
        clock=scenario.clock,
        telemetry=scenario.telemetry,
    )
    journal.crash_hook = None
    try:
        replay = recovery.replay(loop=scenario.loop, supervisor=supervisor)
    finally:
        injector.install_journal(journal)
    for session in list(runtime.sessions.values()):
        if replay.outcomes.get(session.holder) == HolderOutcome.ACTIVE:
            supervisor.forget(session.holder)
            supervisor.watch(session)
        else:
            runtime.abort_session(session)
    supervisor.arm(scenario.loop)
    return replay


@dataclass(frozen=True, slots=True)
class CrashRecoverySpec:
    """One reproducible crash + recovery run."""

    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    seed: int = 1
    requests: int = 3
    request_spacing_s: float = 5.0
    profile_name: str = "balanced"
    crash_opportunity: int = 4
    journal_path: "str | Path | None" = None
    fsync: bool = False
    supervisor_timeout_s: float = 60.0
    telemetry_seed: "int | None" = None  # None = observability off
    telemetry_jsonl: "str | None" = None  # trace JSONL output path

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise SimulationError("need at least one request")
        if self.crash_opportunity < 1:
            raise SimulationError("crash_opportunity must be >= 1")


@dataclass(slots=True)
class CrashRecoveryReport:
    """Before/after evidence of one crash + journal replay."""

    crashed: bool = False
    crash_time_s: float = 0.0
    negotiations_before_crash: int = 0
    confirmed_before_crash: int = 0
    negotiations_after_recovery: int = 0
    journal_records: int = 0
    stranded_streams: int = 0
    stranded_flows: int = 0
    stranded_bps: float = 0.0
    recovery: "RecoveryReport | None" = None
    preserved_holders: "tuple[str, ...]" = ()
    post_reserved_bps: float = 0.0
    journal_timeline: str = ""

    @property
    def leak_free(self) -> bool:
        return self.recovery is not None and self.recovery.leak_free

    def render(self) -> str:
        rows = [
            ("manager crashed", "yes" if self.crashed else "no"),
            ("crash time", f"t={self.crash_time_s:g}s"),
            ("negotiations before crash", str(self.negotiations_before_crash)),
            ("  confirmed and playing", str(self.confirmed_before_crash)),
            (
                "negotiations after recovery",
                str(self.negotiations_after_recovery),
            ),
            ("journal records at crash", str(self.journal_records)),
            (
                "stranded at crash",
                f"{self.stranded_streams} streams, {self.stranded_flows} "
                f"flows, {self.stranded_bps / 1e6:.1f} Mbps",
            ),
        ]
        out = render_table(
            ("metric", "value"), rows, title="crash phase"
        )
        if self.recovery is not None:
            preserved = ", ".join(self.preserved_holders) or "(none)"
            out += "\n" + self.recovery.render()
            out += f"\npreserved sessions: {preserved}"
            out += (
                f"\nreserved after recovery: "
                f"{self.post_reserved_bps / 1e6:.1f} Mbps"
            )
        return out


def run_crash_recovery(
    spec: "CrashRecoverySpec | None" = None,
) -> "tuple[CrashRecoveryReport, Scenario]":
    """Run the two-phase crash/recovery scenario."""
    spec = spec or CrashRecoverySpec()

    if spec.journal_path is not None:
        journal = ReservationJournal.open(spec.journal_path, fsync=spec.fsync)
    else:
        journal = ReservationJournal()
    scenario = build_scenario(
        spec.scenario, journal=journal, telemetry_seed=spec.telemetry_seed
    )
    plan = FaultPlan(
        faults=(
            FaultSpec(
                kind=FaultKind.MANAGER_CRASH,
                target_id="manager",
                value=float(spec.crash_opportunity),
            ),
        ),
        seed=spec.seed,
    )
    exporter = None
    if spec.telemetry_jsonl is not None and scenario.telemetry is not None:
        from ..telemetry import JsonlSpanExporter

        exporter = JsonlSpanExporter(spec.telemetry_jsonl)
        scenario.telemetry.tracer.add_exporter(exporter)
    injector = FaultInjector(plan, clock=scenario.clock)
    injector.install(scenario.servers, scenario.transport)
    injector.install_journal(journal)
    runtime = scenario.runtime()

    profiles = ProfileManager()
    if spec.profile_name not in profiles:
        raise SimulationError(
            f"unknown profile {spec.profile_name!r}; have {profiles.names()}"
        )
    profile = profiles.get(spec.profile_name)
    documents = scenario.document_ids()
    clients = list(scenario.clients.values())
    report = CrashRecoveryReport()

    def submit(index: int) -> None:
        client = clients[index % len(clients)]
        result = scenario.manager.negotiate(
            documents[index % len(documents)], profile, client
        )
        if report.crashed:
            # The restarted manager keeps serving requests that were
            # still queued when the old process died.
            report.negotiations_after_recovery += 1
        else:
            report.negotiations_before_crash += 1
        if not result.status.reserves_resources:
            return
        commitment = result.commitment
        assert commitment is not None
        if index == spec.requests - 1:
            # Leave the last negotiation awaiting user confirmation —
            # when the crash lands after it, its choicePeriod must
            # survive and be re-armed.  The §8 timer still runs.
            scenario.loop.at(
                commitment.deadline + 1e-3,
                lambda c=commitment: c.expire_check(scenario.clock.now()),
                label=f"choice-period:{commitment.bundle.holder}",
            )
            return
        try:
            runtime.start_session(result, profile, client)
            if not report.crashed:
                report.confirmed_before_crash += 1
        except ConfirmationTimeout:
            pass

    for index in range(spec.requests):
        scenario.loop.at(
            scenario.loop.now + index * spec.request_spacing_s,
            lambda i=index: submit(i),
            label=f"recover-request-{index + 1}",
        )

    # Phase 1: negotiate until the injected crash kills the manager.
    try:
        scenario.loop.run()
    except ManagerCrashError:
        report.crashed = True
        report.crash_time_s = scenario.clock.now()
    journal.crash_hook = None
    injector.uninstall()

    report.journal_records = len(journal)
    report.stranded_streams = sum(
        server.stream_count for server in scenario.servers.values()
    )
    report.stranded_flows = scenario.transport.flow_count
    report.stranded_bps = scenario.topology.total_reserved_bps()

    # Phase 2: the manager restarts.  A file-backed journal is reopened
    # from disk (the torn-tail reader runs here); the ledgers on the
    # servers and in the network are whatever the crash left behind.
    if spec.journal_path is not None:
        journal.close()
        journal = ReservationJournal.open(spec.journal_path, fsync=spec.fsync)
        # The restarted manager journals to the reopened file, not the
        # handle that died with the old process.
        scenario.manager.committer.journal = journal
        journal.telemetry = scenario.telemetry
    supervisor = SessionSupervisor(
        clock=scenario.clock,
        runtime=runtime,
        heartbeat_timeout_s=spec.supervisor_timeout_s,
        telemetry=scenario.telemetry,
    )
    recovery = RecoveryManager(
        journal,
        scenario.servers,
        scenario.transport,
        clock=scenario.clock,
        telemetry=scenario.telemetry,
    )
    rec_report = recovery.replay(loop=scenario.loop, supervisor=supervisor)
    report.recovery = rec_report

    # Reconcile the runtime against the replay: playouts whose journal
    # timeline is still active survive (the crash did not stop the
    # media servers streaming) and re-register with the supervisor by
    # making progress; a session the journal closed — e.g. the crash
    # struck mid-teardown, after RELEASED was journaled — is stale and
    # is finalized now, or it would pin the monitor sweep forever.
    preserved: "list[str]" = []
    for session in list(runtime.sessions.values()):
        if rec_report.outcomes.get(session.holder) == HolderOutcome.ACTIVE:
            if session.holder in supervisor.watched_holders():
                supervisor.forget(session.holder)
            supervisor.watch(session)
            preserved.append(session.holder)
        else:
            runtime.abort_session(session)
    report.preserved_holders = tuple(preserved)
    supervisor.arm(scenario.loop)

    # Drain: re-armed deadlines expire, supervised playouts finish,
    # adopted-but-silent holders are released on heartbeat timeout.
    scenario.loop.run()
    report.post_reserved_bps = scenario.topology.total_reserved_bps()
    report.journal_timeline = journal.describe()
    if spec.journal_path is not None:
        journal.close()
    if exporter is not None:
        exporter.close()
    return report, scenario
