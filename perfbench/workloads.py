"""The three benchmark workloads and their output checks.

Every deployment is built through the library's public builders with
their defaults (``build_scenario``, ``LoadSpec``, ``StormSpec``), so a
change to a default shows in the numbers.  Each workload runs in
*units*: a block of closed-loop requests, one load cell, or one storm.
The runner times each unit; everything a workload does to check its
outputs happens outside the timed call.

Workload interface (duck-typed):

* ``setup(seed)`` builds a fresh deployment and its inputs;
* ``warm_up()`` runs the unmeasured prefix;
* ``execute(index)`` is the timed unit, returning raw results;
* ``account(index, raw)`` turns them into a :class:`UnitResult`;
* ``finish()`` runs the end-of-run checks and returns an :class:`EndCheck`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.client import ClientMachine
from repro.core import (
    NegotiationStatus,
    build_offer_space,
    classify_space,
    default_importance,
    standard_profiles,
)
from repro.documents import AudioGrade, Codecs, ColorMode, Language, TV_RESOLUTION
from repro.documents import make_news_article
from repro.faults import CircuitBreaker
from repro.journal import ReservationJournal
from repro.perf import reset_shared_cache
from repro.sim import (
    ArrivalSpec,
    LoadSpec,
    Request,
    ScenarioSpec,
    StormSpec,
    WorkloadSpec,
    build_scenario,
    generate_requests,
    run_load_cell_instrumented,
    run_storm,
)
from repro.util.errors import ReproError

__all__ = [
    "WORKLOADS",
    "UnitResult",
    "EndCheck",
    "CatalogueBrowse",
    "OperatedService",
    "BrownoutStorm",
    "catalogue_documents",
    "client_population",
    "digest_of",
    "reference_outcome",
]


@dataclass
class UnitResult:
    """What one measured unit did, as the runner accounts for it."""

    ops: int
    refused: int
    failed: int
    latencies_ms: "list[float]" = field(default_factory=list)
    digests: "dict[str, str]" = field(default_factory=dict)
    failures: "list[str]" = field(default_factory=list)
    extras: "dict[str, float]" = field(default_factory=dict)


@dataclass
class EndCheck:
    """End-of-run checks: operations checked beyond the measured units
    (warm-up and digest prefix), how many of all checked failed, why,
    and the per-seed digests."""

    extra_ops: int = 0
    failed: int = 0
    failures: "list[str]" = field(default_factory=list)
    digests: "dict[str, str]" = field(default_factory=dict)


def digest_of(payload) -> str:
    """A short stable hash of a JSON-serialisable payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _fresh_process_state() -> None:
    # The shared negotiation cache is process-wide; no unit may inherit
    # entries from the one before it.
    reset_shared_cache()


# -- catalogue-browse -----------------------------------------------------------------

CATALOGUE_DOCUMENTS = 36
CATALOGUE_CLIENTS = 12
CATALOGUE_SERVERS = ("server-a", "server-b", "server-c")

_FRAME_RATES = ((25,), (25, 15), (30, 25, 15), (30, 25, 15, 10), (30, 25, 15, 10, 5))
_COLOURS = (
    (ColorMode.COLOR,),
    (ColorMode.COLOR, ColorMode.GREY),
    (ColorMode.COLOR, ColorMode.GREY, ColorMode.BLACK_AND_WHITE),
)
_RESOLUTIONS = ((TV_RESOLUTION,), (TV_RESOLUTION, 360))
_CODECS = (
    (Codecs.MPEG1,),
    (Codecs.MPEG1, Codecs.MJPEG),
    (Codecs.MPEG1, Codecs.MPEG2, Codecs.MJPEG),
)
_GRADES = (
    (AudioGrade.CD,),
    (AudioGrade.CD, AudioGrade.TELEPHONE),
    (AudioGrade.CD, AudioGrade.RADIO, AudioGrade.TELEPHONE),
)
_LANGUAGES = (
    (Language.ENGLISH,),
    (Language.ENGLISH, Language.FRENCH),
    (Language.ENGLISH, Language.FRENCH, Language.GERMAN),
)

# (screen colour, frame-rate cap) per client machine: mostly capable
# workstations that still differ in what they can present (and so in
# their request class), plus a few limited ones that fail step 1 for
# demanding profiles.
_MACHINES = (
    (ColorMode.COLOR, 30),
    (ColorMode.SUPER_COLOR, 30),
    (ColorMode.COLOR, 25),
    (ColorMode.SUPER_COLOR, 25),
    (ColorMode.COLOR, 30),
    (ColorMode.COLOR, 25),
    (ColorMode.SUPER_COLOR, 30),
    (ColorMode.COLOR, 15),
    (ColorMode.GREY, 30),
    (ColorMode.GREY, 25),
    (ColorMode.GREY, 15),
    (ColorMode.BLACK_AND_WHITE, 25),
)

# All four standard profiles, weighted towards the middle of the range.
_PROFILE_MIX = (
    ("premium", 0.2),
    ("balanced", 0.4),
    ("economy", 0.25),
    ("audio-first", 0.15),
)


def catalogue_documents() -> list:
    """A few dozen news articles whose variant grids differ along every
    axis, so offer spaces run from a handful to a few thousand offers.
    The grid of document ``i`` is a fixed function of ``i``: the
    catalogue is the same for every seed, so run-to-run differences come
    from the request trace alone."""
    documents = []
    for i in range(CATALOGUE_DOCUMENTS):
        video_servers = [
            CATALOGUE_SERVERS[(i + j) % len(CATALOGUE_SERVERS)] for j in range(2)
        ]
        documents.append(
            make_news_article(
                f"doc.cat-{i + 1:02d}",
                title=f"catalogue article {i + 1}",
                video_servers=video_servers,
                audio_servers=[CATALOGUE_SERVERS[(i + 1) % len(CATALOGUE_SERVERS)]],
                still_server=CATALOGUE_SERVERS[i % len(CATALOGUE_SERVERS)],
                frame_rates=_FRAME_RATES[(i * 3 + 2) % len(_FRAME_RATES)],
                colors=_COLOURS[(i // 2) % len(_COLOURS)],
                resolutions=_RESOLUTIONS[(i // 3) % len(_RESOLUTIONS)],
                video_codecs=_CODECS[(i + i // 4) % len(_CODECS)],
                audio_grades=_GRADES[(i // 5) % len(_GRADES)],
                languages=_LANGUAGES[(i + i // 6) % len(_LANGUAGES)],
                include_image=i % 4 != 3,
                include_text=i % 5 != 4,
            )
        )
    return documents


def client_population(scenario) -> "dict[str, ClientMachine]":
    """Heterogeneous machines on the scenario's client access networks."""
    clients = {}
    for (client_id, base), (colour, fps) in zip(
        sorted(scenario.clients.items()), _MACHINES
    ):
        clients[client_id] = ClientMachine(
            client_id,
            access_point=base.access_point,
            screen_color=colour,
            max_frame_rate=fps,
        )
    return clients


def reference_outcome(manager, document, profile, client, holder: str):
    """The §4 outcome computed the slow, obvious way, for a deployment
    whose ledgers are empty: step 1 from the client's own checks, steps
    2–4 from the full sort, step 5 as the two-pass walk (user-satisfying
    offers first, then the rest, each in classified order), trying each
    offer against the committer and releasing what it took."""
    local_ok = all(
        client.check_local(requirement).supported
        for _, requirement in profile.desired.qos_points()
    )
    if document.sync.spatial is not None:
        width, height = document.sync.spatial.bounding_box()
        local_ok = local_ok and client.fits_layout(width, height)
    if not local_ok:
        return (str(NegotiationStatus.FAILED_WITH_LOCAL_OFFER), "", 0)
    space = build_offer_space(
        document,
        client,
        manager.cost_model,
        mapper=manager.mapper,
        guarantee=manager.guarantee,
    )
    if space.is_empty:
        return (str(NegotiationStatus.FAILED_WITHOUT_OFFER), "", 0)
    classified = classify_space(
        space,
        profile,
        profile.importance or default_importance(),
        policy=manager.policy,
    )
    order = [c for c in classified if c.satisfies_user] + [
        c for c in classified if not c.satisfies_user
    ]
    committer = manager.committer
    for attempt, candidate in enumerate(order, start=1):
        bundle = committer.try_commit(
            candidate.offer,
            space,
            client.access_point,
            guarantee=manager.guarantee,
            holder=holder,
        )
        if bundle is not None:
            committer.release(bundle)
            status = (
                NegotiationStatus.SUCCEEDED
                if candidate.satisfies_user
                else NegotiationStatus.FAILED_WITH_OFFER
            )
            return (str(status), candidate.offer.offer_id, attempt)
    return (str(NegotiationStatus.FAILED_TRY_LATER), "", len(order))


def _leaks(scenario) -> "list[str]":
    streams = sum(server.stream_count for server in scenario.servers.values())
    flows = scenario.transport.flow_count
    reserved = scenario.topology.total_reserved_bps()
    if streams or flows or reserved:
        return [
            f"leaks at teardown: {streams} streams, {flows} flows, "
            f"{reserved:.0f} bps"
        ]
    return []


class CatalogueBrowse:
    """Closed loop, one caller: negotiate, confirm or reject, release,
    next.  Planning does nearly all the work."""

    name = "catalogue-browse"
    traced_units = 30     # blocks of 100 requests in the traced pass
    block = 100           # requests per measured unit
    warm_up_requests = CATALOGUE_DOCUMENTS  # one per document, seed-free
    digest_requests = 400  # trace prefix the shipped digests cover
    confirm_share = 0.85
    trace_length_s = 10_000.0  # one request per second of trace horizon

    def setup(self, seed: int) -> None:
        _fresh_process_state()
        self.seed = seed
        scenario = build_scenario(ScenarioSpec(client_count=CATALOGUE_CLIENTS))
        for document in catalogue_documents():
            scenario.database.insert_document(document)
        self.scenario = scenario
        self.manager = scenario.manager
        self.clients = client_population(scenario)
        requests_seed, decisions_seed = np.random.SeedSequence(seed).spawn(2)
        self.requests = self._warm_up_trace() + generate_requests(
            WorkloadSpec(
                arrival_rate_per_s=1.0,
                horizon_s=self.trace_length_s,
                profile_mix=_PROFILE_MIX,
            ),
            [f"doc.cat-{i + 1:02d}" for i in range(CATALOGUE_DOCUMENTS)],
            sorted(self.clients),
            rng=np.random.default_rng(requests_seed),
        )
        draws = np.random.default_rng(decisions_seed).uniform(
            size=len(self.requests)
        )
        self.confirms = [bool(draw < self.confirm_share) for draw in draws]
        self.outcomes: "dict[int, tuple[str, str, int]]" = {}
        self.errors: "list[str]" = []
        self.next_index = 0
        self.measured = 0

    def _warm_up_trace(self) -> "list[Request]":
        """The trace prefix the warm-up runs: every document once, with
        clients and profiles in turn.  It is the same for every seed, so
        set-up time does not depend on which requests the seed draws."""
        clients = sorted(self.clients)
        profiles = standard_profiles()
        return [
            Request(
                arrival_s=0.0,
                client_id=clients[i % len(clients)],
                document_id=f"doc.cat-{i + 1:02d}",
                profile=profiles[i % len(profiles)],
            )
            for i in range(CATALOGUE_DOCUMENTS)
        ]

    def _request(self, index: int):
        return self.requests[index % len(self.requests)]

    def _negotiate(self, index: int) -> "tuple[float, bool]":
        """One closed-loop request; returns (negotiate wall ms, refused)."""
        request = self._request(index)
        client = self.clients[request.client_id]
        manager = self.manager
        started = perf_counter()
        try:
            result = manager.negotiate(request.document_id, request.profile, client)
        except ReproError as error:
            self.errors.append(f"request {index}: {type(error).__name__}: {error}")
            self.outcomes[index] = ("raised", "", 0)
            return (perf_counter() - started) * 1e3, True
        elapsed_ms = (perf_counter() - started) * 1e3
        commitment = result.commitment
        if commitment is not None:
            now = manager.clock.now()
            if self.confirms[index % len(self.confirms)]:
                commitment.confirm(now)
                commitment.release()
            else:
                commitment.reject(now)
        chosen = result.chosen.offer.offer_id if result.chosen is not None else ""
        self.outcomes[index] = (str(result.status), chosen, result.attempts)
        return elapsed_ms, not result.status.reserves_resources

    def warm_up(self) -> None:
        for _ in range(self.warm_up_requests):
            self._negotiate(self.next_index)
            self.next_index += 1

    def execute(self, index: int):
        latencies = []
        refused = 0
        for _ in range(self.block):
            elapsed_ms, was_refused = self._negotiate(self.next_index)
            self.next_index += 1
            latencies.append(elapsed_ms)
            refused += was_refused
        self.measured += self.block
        return latencies, refused

    def account(self, index: int, raw) -> UnitResult:
        latencies, refused = raw
        return UnitResult(ops=len(latencies), refused=refused, failed=0,
                          latencies_ms=latencies)

    def finish(self) -> EndCheck:
        """Compare every outcome, warm-up included, with the reference."""
        while self.next_index < self.digest_requests:
            self._negotiate(self.next_index)
            self.next_index += 1
        failures = list(self.errors)
        failures.extend(_leaks(self.scenario))
        expected: "dict[tuple, tuple[str, str, int]]" = {}
        failed = 0
        database = self.manager.database
        for index, outcome in sorted(self.outcomes.items()):
            request = self._request(index)
            key = (request.document_id, request.client_id, request.profile.name)
            if key not in expected:
                expected[key] = reference_outcome(
                    self.manager,
                    database.get_document(request.document_id),
                    request.profile,
                    self.clients[request.client_id],
                    holder=f"reference-{len(expected) + 1}",
                )
            if outcome != expected[key]:
                failed += 1
                if len(failures) < 20:
                    failures.append(
                        f"request {index} {key}: got {outcome}, "
                        f"reference {expected[key]}"
                    )
        prefix = [
            list(self.outcomes[index]) for index in range(self.digest_requests)
        ]
        self.request_classes = len(expected)
        return EndCheck(
            extra_ops=len(self.outcomes) - self.measured,
            failed=failed,
            failures=failures,
            digests={str(self.seed): digest_of(prefix)},
        )


def _gate_extras(gate: "dict[str, int]") -> "dict[str, float]":
    return {
        "storm.gate.admitted": gate.get("admitted", 0),
        "storm.gate.requeued": gate.get("requeued_try_later", 0),
        "storm.gate.shed": gate.get("shed", 0),
    }


# -- operated-service -------------------------------------------------------------------

SERVICE_MULTIPLIER = 4.0
SERVICE_TELEMETRY_SEED = 7   # the `repro slo` / `repro profile` default
SERVICE_INTERVAL_S = 1.0     # flight-recorder scrape interval


def _service_outcomes(spans) -> list:
    """Per request ``(label, status, committed offer, attempts)`` from the
    cell's retained spans."""
    by_trace: "dict[str, dict]" = {}
    for span in spans:
        entry = by_trace.setdefault(
            span.trace_id, {"label": "", "status": "", "offer": "", "attempts": 0}
        )
        if span.name == "service.negotiation":
            entry["label"] = str(span.attributes.get("label", ""))
            entry["status"] = str(span.attributes.get("status", ""))
        elif span.name == "negotiation.step5.attempt":
            entry["attempts"] += 1
            if span.attributes.get("outcome") == "committed":
                entry["offer"] = str(span.attributes.get("offer_id", ""))
    rows = [
        [entry["label"], entry["status"], entry["offer"], entry["attempts"]]
        for entry in by_trace.values()
        if entry["label"]
    ]
    return sorted(rows)


class OperatedService:
    """Open loop in simulated time: the reference load cell at 4× as
    ``repro slo`` / ``repro profile`` operate it (telemetry on, flight
    recorder at 1 s, spans collected).  Unit ``i`` replays the cell with
    arrival seed ``seed + i``."""

    name = "operated-service"
    traced_units = 2      # a cell retains ~90k spans when traced

    def spec(self, seed: int, horizon_s: "float | None" = None) -> LoadSpec:
        arrival = ArrivalSpec() if horizon_s is None else ArrivalSpec(horizon_s=horizon_s)
        return LoadSpec(
            arrival=arrival, seed=seed, telemetry_seed=SERVICE_TELEMETRY_SEED
        )

    def setup(self, seed: int) -> None:
        _fresh_process_state()
        self.seed = seed
        spec = self.spec(seed)
        # The deployment the cell builds for itself, built once here so
        # its cost is part of set-up.
        build_scenario(
            spec.deployment(),
            journal=ReservationJournal(),
            telemetry_seed=spec.telemetry_seed,
        )

    def warm_up(self) -> None:
        # A short cell primes every code path the measured cells take.
        run_load_cell_instrumented(
            self.spec(self.seed, horizon_s=15.0),
            SERVICE_MULTIPLIER,
            interval_s=SERVICE_INTERVAL_S,
            collect_spans=True,
        )

    def execute(self, index: int):
        _fresh_process_state()
        try:
            return run_load_cell_instrumented(
                self.spec(self.seed + index),
                SERVICE_MULTIPLIER,
                interval_s=SERVICE_INTERVAL_S,
                collect_spans=True,
            )
        except ReproError as error:
            return error

    def account(self, index: int, raw) -> UnitResult:
        seed = self.seed + index
        if isinstance(raw, ReproError):
            return UnitResult(ops=1, refused=0, failed=1,
                              failures=[f"seed {seed}: {raw}"])
        report = raw.report
        ops = report.offered
        verdicts = sum(report.statuses.values())
        failures = []
        if not report.graceful:
            failures.append(f"seed {seed}: cell did not degrade gracefully")
        if not report.clean:
            failures.append(f"seed {seed}: leaks or an unbalanced journal")
        if report.unfinished:
            failures.append(f"seed {seed}: {report.unfinished} requests without a verdict")
        if report.dishonest_hints:
            failures.append(f"seed {seed}: {report.dishonest_hints} try-later verdicts without a hint")
        if verdicts != ops:
            failures.append(f"seed {seed}: {verdicts} verdicts for {ops} arrivals")
        outcomes = _service_outcomes(raw.spans)
        if len(outcomes) != verdicts:
            failures.append(f"seed {seed}: {len(outcomes)} traced verdicts for {verdicts}")
        return UnitResult(
            ops=max(ops, 1),
            refused=verdicts - report.served,
            failed=ops if failures else 0,
            digests={str(seed): digest_of(outcomes)},
            failures=failures,
            extras={
                "service.tasks": report.scheduler.get("spawned", 0),
                "service.switches": report.scheduler.get("switches", 0),
                "telemetry.spans_retained": len(raw.spans),
                **_gate_extras(report.gate),
            },
        )

    def finish(self) -> EndCheck:
        return EndCheck()


# -- brownout-storm ---------------------------------------------------------------------

def _storm_outcomes(journal) -> list:
    """Per holder, the journaled transitions with their offer ids: which
    offers each negotiation or adaptation tried, and how it ended."""
    rows: "dict[str, list]" = {}
    for record in journal.records():
        rows.setdefault(record.holder, []).append(
            [record.record_type.value, str(record.payload.get("offer_id", ""))]
        )
    return sorted([holder, steps] for holder, steps in rows.items())


class BrownoutStorm:
    """The shipped storm (``StormSpec`` defaults: 200 sessions + 40 late
    arrivals, 40% brownout, backpressure and journal on, telemetry off).
    Unit ``i`` replays it with seed ``seed + i``."""

    name = "brownout-storm"
    traced_units = 2      # a storm records ~150k spans when traced

    def setup(self, seed: int) -> None:
        _fresh_process_state()
        self.seed = seed
        spec = StormSpec(seed=seed)
        # The deployment run_storm builds for itself, built once here so
        # its cost is part of set-up.
        build_scenario(
            spec.deployment(),
            retry_policy=spec.retry,
            health=CircuitBreaker(
                failure_threshold=spec.breaker_threshold,
                recovery_time_s=spec.breaker_recovery_s,
            ),
            lease_ttl_s=spec.lease_ttl_s,
            retry_seed=spec.seed,
            journal=ReservationJournal(),
        )

    def warm_up(self) -> None:
        run_storm(StormSpec(seed=self.seed, sessions=20, late_requests=4))

    def execute(self, index: int):
        _fresh_process_state()
        try:
            return run_storm(StormSpec(seed=self.seed + index))
        except ReproError as error:
            return error

    def account(self, index: int, raw) -> UnitResult:
        seed = self.seed + index
        if isinstance(raw, ReproError):
            return UnitResult(ops=1, refused=0, failed=1,
                              failures=[f"seed {seed}: {raw}"])
        report, scenario = raw
        attempts = report.adaptations + report.failed_adaptations
        ops = report.negotiations + attempts
        reserving = report.succeeded + report.degraded_offers
        failures = []
        if not report.survived:
            failures.append(f"seed {seed}: storm not survived")
        if not report.clean_teardown:
            failures.append(f"seed {seed}: leaks at teardown")
        if not report.journal_balanced:
            failures.append(f"seed {seed}: unbalanced journal")
        if sum(report.statuses.values()) != report.negotiations:
            failures.append(f"seed {seed}: statuses do not add up to negotiations")
        summary = {
            "statuses": report.statuses,
            "adaptations": report.adaptations,
            "failed_adaptations": report.failed_adaptations,
        }
        journal = scenario.manager.committer.journal
        return UnitResult(
            ops=max(ops, 1),
            refused=(report.negotiations - reserving) + report.failed_adaptations,
            failed=ops if failures else 0,
            digests={str(seed): digest_of([summary, _storm_outcomes(journal)])},
            failures=failures,
            extras=_gate_extras(report.gate),
        )

    def finish(self) -> EndCheck:
        return EndCheck()


WORKLOADS = {
    workload.name: workload
    for workload in (CatalogueBrowse, OperatedService, BrownoutStorm)
}
