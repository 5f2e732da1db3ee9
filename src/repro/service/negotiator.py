"""The concurrent negotiation service: many §4 procedures in flight.

One :class:`NegotiationService` runs thousands of negotiations as
cooperative tasks (:mod:`repro.service.scheduler`) against one shared
deployment.  The synchronous :meth:`~repro.core.negotiation.QoSManager`
path is untouched; the service layers concurrency on top of the same
primitives:

* **steps 1–4 are pure planning** (:meth:`QoSManager.plan`) — they read
  metadata and client characteristics but never touch the shared
  ledgers, so they run atomically between yields;
* **step 5 interleaves** — each candidate is reserved through
  :meth:`ResourceCommitter.iter_commit`, which yields before every
  admission/flow call; the service charges each yield ``reservation_step_s``
  of simulated time, so long walks take long and arrivals land *inside*
  other negotiations' walks;
* **deadline budgets** — a negotiation that cannot finish its walk
  within ``deadline_budget_s`` abandons the in-flight candidate (the
  generator's close rolls back and journals RELEASED) and returns an
  honest FAILEDTRYLATER with a breaker-aware hint, instead of hogging
  the scheduler while holding partial reservations;
* **step 6 races are real** — user confirmation and choice-period
  expiry run as their own tasks, so an expiry can fire *between* the
  yield points of an unrelated negotiation, and a confirm landing on
  the deadline tick races the watchdog under the scheduler seed (the
  commitment state machine guarantees exactly one terminal journal
  record either way).

Requests can be routed through an
:class:`~repro.storm.AdmissionGate` (``gate=``): the gate decides
*when* a negotiation task starts and applies its retry/shed policy to
the delivered verdicts, with monotone ``retry_after_s`` hints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..core.commitment import Commitment, CommitmentState
from ..core.negotiation import NegotiationResult, two_pass_order
from ..core.offers import derive_user_offer
from ..core.status import NegotiationStatus
from ..util.errors import ConfirmationTimeout
from ..util.rng import RngLike, make_rng
from ..util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
)
from .scheduler import CooperativeScheduler, Sleep, Switch, Task, TaskHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..client.machine import ClientMachine
    from ..core.classification import ClassifiedOffer
    from ..core.negotiation import QoSManager
    from ..core.profiles import UserProfile
    from ..session.engine import EventLoop
    from ..storm import AdmissionGate
    from ..telemetry import Telemetry

__all__ = [
    "EXPIRY_MARGIN_S",
    "ServicePolicy",
    "ServiceStats",
    "ServiceRequest",
    "NegotiationService",
]

EXPIRY_MARGIN_S = 1e-3
"""How long after the choicePeriod deadline the watchdog fires.  Expiry
is strict (``now > deadline``), so the watchdog must land past the
deadline tick; one millisecond keeps the wake deterministic while
leaving a confirm *on* the tick its honest last chance."""


@dataclass(frozen=True, slots=True)
class ServicePolicy:
    """Knobs of one concurrent negotiation service.

    ``reservation_step_s`` is the simulated cost of one reservation
    call (each :meth:`iter_commit` yield sleeps this long);
    ``plan_s`` the cost of steps 1–4.  ``deadline_budget_s`` bounds a
    negotiation's whole step-5 walk.  ``confirm_delay_s`` ±
    ``confirm_jitter`` is the user's think time before confirming;
    a ``slow_user_fraction`` of users exceed the choice period (their
    reservations expire — the natural step-6 race), and a
    ``reject_fraction`` cancel instead of confirming.  ``hold_s`` is
    the playout hold between confirmation and release.
    """

    max_offers: "int | None" = None
    deadline_budget_s: float = 15.0
    reservation_step_s: float = 0.01
    plan_s: float = 0.005
    confirm_delay_s: float = 2.0
    confirm_jitter: float = 0.5
    slow_user_fraction: float = 0.0
    reject_fraction: float = 0.0
    hold_s: float = 60.0

    def __post_init__(self) -> None:
        if self.max_offers is not None and self.max_offers < 1:
            from ..util.errors import ValidationError

            raise ValidationError(
                f"max_offers must be >= 1, got {self.max_offers}"
            )
        check_positive(self.deadline_budget_s, "deadline_budget_s")
        check_non_negative(self.reservation_step_s, "reservation_step_s")
        check_non_negative(self.plan_s, "plan_s")
        check_non_negative(self.confirm_delay_s, "confirm_delay_s")
        check_fraction(self.confirm_jitter, "confirm_jitter")
        check_fraction(self.slow_user_fraction, "slow_user_fraction")
        check_fraction(self.reject_fraction, "reject_fraction")
        check_non_negative(self.hold_s, "hold_s")


@dataclass(slots=True)
class ServiceStats:
    """Service-level counters (per run)."""

    submitted: int = 0
    delivered: int = 0
    overruns: int = 0
    confirmations: int = 0
    rejections: int = 0
    expiries: int = 0
    releases: int = 0

    def as_dict(self) -> "dict[str, int]":
        return {
            "submitted": self.submitted,
            "delivered": self.delivered,
            "overruns": self.overruns,
            "confirmations": self.confirmations,
            "rejections": self.rejections,
            "expiries": self.expiries,
            "releases": self.releases,
        }


@dataclass(slots=True)
class ServiceRequest:
    """One request's lifecycle as the service saw it."""

    label: str
    client_id: str
    document_id: str
    submitted_at: float
    started_at: "float | None" = None
    reparked_at: "float | None" = None
    context: "tuple[str, str] | None" = None
    result: "NegotiationResult | None" = None
    finished_at: "float | None" = None
    overrun: bool = False
    confirmed: bool = False
    rejected: bool = False
    expired: bool = False
    released: bool = False
    task: "TaskHandle | None" = None

    @property
    def verdict_wait_s(self) -> "float | None":
        """Submission → terminal verdict, in simulated seconds."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def status(self) -> "NegotiationStatus | None":
        return self.result.status if self.result is not None else None


class NegotiationService:
    """Run negotiations concurrently over one shared deployment.

    ``scheduler_seed`` picks the interleaving (the concurrency
    dimension); ``seed`` drives user behaviour (think times, rejects).
    Keeping them separate is what lets the property suite vary the
    interleaving while holding the workload fixed.
    """

    def __init__(
        self,
        manager: "QoSManager",
        loop: "EventLoop",
        *,
        policy: "ServicePolicy | None" = None,
        gate: "AdmissionGate | None" = None,
        scheduler_seed: RngLike = 0,
        seed: RngLike = 0,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if telemetry is None:
            telemetry = manager.telemetry
        self.manager = manager
        self.loop = loop
        self.policy = policy or ServicePolicy()
        self.gate = gate
        self.telemetry = telemetry
        self.scheduler = CooperativeScheduler(
            loop, seed=scheduler_seed, telemetry=telemetry
        )
        self.stats = ServiceStats()
        self.requests: "list[ServiceRequest]" = []
        self._rng = make_rng(seed)
        self._inflight = 0

    # -- submission ----------------------------------------------------------------

    def submit(
        self,
        document_id: str,
        profile: "UserProfile",
        client: "ClientMachine",
        *,
        label: "str | None" = None,
    ) -> ServiceRequest:
        """Enqueue one negotiation; returns its live request record.

        With a gate, the gate decides when the task starts (and may
        requeue or shed the verdict); without one the task is spawned
        immediately.
        """
        self.stats.submitted += 1
        request = ServiceRequest(
            label=label or f"req-{self.stats.submitted}",
            client_id=client.client_id,
            document_id=document_id,
            submitted_at=self.loop.now,
        )
        self.requests.append(request)
        self._inflight += 1
        if self.telemetry.enabled:
            # Pre-allocate the request's trace identity: children (gate
            # wait, plan, step-5 attempts) land under it while the walk
            # is in flight; the root span itself is emitted at verdict
            # delivery (the profiler's critical-path input).
            request.context = self.telemetry.tracer.new_context()
        self.telemetry.metrics.gauge_set(
            "service.inflight", float(self._inflight)
        )

        def deliver(result: NegotiationResult) -> None:
            self._deliver(request, result)

        if self.gate is not None:
            self.gate.submit_deferred(
                request.label,
                lambda done: self._start(
                    request, document_id, profile, client, done
                ),
                deliver,
            )
        else:
            self._start(request, document_id, profile, client, deliver)
        return request

    def _start(
        self,
        request: ServiceRequest,
        document_id: str,
        profile: "UserProfile",
        client: "ClientMachine",
        done: "Callable[[NegotiationResult], None]",
    ) -> None:
        def finished(handle: TaskHandle) -> None:
            # The gate may re-park the request on an FTL verdict; the
            # next dispatch's gate.wait span starts here, not at
            # submission, so park intervals stay disjoint and their sum
            # never exceeds the root span.
            request.reparked_at = self.loop.now
            done(handle.result)

        request.started_at = self.loop.now
        if request.context is not None and self.gate is not None:
            # Gate park time: enqueue (submission, or re-park after an
            # FTL verdict) → dispatch; 0 when admitted on the spot.
            parked_since = (
                request.reparked_at
                if request.reparked_at is not None
                else request.submitted_at
            )
            self.telemetry.tracer.emit(
                "service.gate.wait",
                start_s=parked_since,
                end_s=request.started_at,
                parent=request.context,
                attributes={"label": request.label},
            )
        request.task = self.scheduler.spawn(
            f"negotiation:{request.label}",
            self._negotiation_task(request, document_id, profile, client),
            on_done=finished,
        )

    def _deliver(
        self, request: ServiceRequest, result: NegotiationResult
    ) -> None:
        request.result = result
        request.finished_at = self.loop.now
        self.stats.delivered += 1
        self._inflight -= 1
        telemetry = self.telemetry
        telemetry.metrics.gauge_set(
            "service.inflight", float(self._inflight)
        )
        telemetry.count("negotiation.outcomes", status=str(result.status))
        telemetry.observe(
            "service.verdict.wait_s", request.verdict_wait_s or 0.0
        )
        if request.context is not None:
            telemetry.tracer.emit(
                "service.negotiation",
                start_s=request.submitted_at,
                end_s=request.finished_at,
                context=request.context,
                attributes={
                    "label": request.label,
                    "status": str(result.status),
                    "overrun": request.overrun,
                },
            )

    # -- the cooperative procedure -------------------------------------------------

    def _negotiation_task(
        self,
        request: ServiceRequest,
        document_id: str,
        profile: "UserProfile",
        client: "ClientMachine",
    ) -> Task:
        """One negotiation as a task: plan, walk, wrap, arm step 6.

        Returns the :class:`NegotiationResult` (the task's return value
        becomes the delivered verdict)."""
        policy = self.policy
        manager = self.manager
        committer = manager.committer
        telemetry = self.telemetry
        started = self.loop.now
        deadline = started + policy.deadline_budget_s
        if policy.plan_s > 0.0:
            yield Sleep(policy.plan_s)
        else:
            yield Switch()
        plan = manager.plan(
            document_id, profile, client, max_offers=policy.max_offers
        )
        if request.context is not None:
            # Steps 1–4: the Sleep(plan_s) charge plus the atomic plan.
            telemetry.tracer.emit(
                "service.plan",
                start_s=started,
                end_s=self.loop.now,
                parent=request.context,
                attributes={"early": plan.early is not None},
            )
        if plan.early is not None:
            return plan.early
        assert plan.space is not None and plan.offers is not None
        space = plan.space
        holder = manager.new_holder()
        health = committer.health
        consumed: "list[ClassifiedOffer]" = []
        attempts = 0
        skips = 0
        switches = 0
        overrun = False
        chosen = None
        bundle = None
        for candidate in two_pass_order(plan.offers, consumed):
            if self.loop.now >= deadline:
                overrun = True
                break
            if health is not None:
                now = self.loop.now
                if not all(
                    health.allow(server_id, now)
                    for server_id in candidate.offer.servers_used()
                ):
                    committer.stats.breaker_skips += 1
                    skips += 1
                    telemetry.count("breaker.skips")
                    telemetry.count("negotiation.offers.dropped", step="5")
                    continue
            attempts += 1
            attempt_started = self.loop.now
            walk = committer.iter_commit(
                candidate.offer,
                space,
                client.access_point,
                guarantee=manager.guarantee,
                holder=holder,
            )
            taken = None
            while True:
                try:
                    next(walk)
                except StopIteration as stop:
                    taken = stop.value
                    break
                # Parked before a reservation call: charge its cost and
                # let other tasks run in the meantime.
                switches += 1
                if policy.reservation_step_s > 0.0:
                    yield Sleep(policy.reservation_step_s)
                else:
                    yield Switch()
                if self.loop.now >= deadline:
                    # Budget exhausted mid-walk: abandoning the
                    # generator rolls back and journals RELEASED.
                    walk.close()
                    overrun = True
                    break
            if telemetry.enabled:
                telemetry.tracer.emit(
                    "negotiation.step5.attempt",
                    start_s=attempt_started,
                    end_s=self.loop.now,
                    parent=request.context,
                    attributes={
                        "offer_id": candidate.offer.offer_id,
                        "holder": holder,
                        "outcome": (
                            "committed" if taken is not None
                            else "abandoned" if overrun
                            else "rolled-back"
                        ),
                    },
                )
            if overrun:
                break
            if taken is None:
                telemetry.count("negotiation.offers.dropped", step="5")
                continue
            chosen = candidate
            bundle = taken
            break
        telemetry.observe("service.walk.switches", float(switches))
        if chosen is None or bundle is None:
            if overrun:
                request.overrun = True
                self.stats.overruns += 1
                telemetry.count("service.deadline.overruns")
            return NegotiationResult(
                status=NegotiationStatus.FAILED_TRY_LATER,
                classified=consumed,
                offer_space=space,
                attempts=attempts,
                retry_after_s=manager.retry_after_hint(),
                _rest=plan.offers,
            )
        # No yield between the walk's return and the Commitment: the
        # RESERVED record lands while the INTENT window is still ours.
        commitment = Commitment(
            bundle,
            committer,
            reserved_at=self.loop.now,
            choice_period_s=profile.choice_period_s,
            telemetry=telemetry,
        )
        result = NegotiationResult(
            status=(
                NegotiationStatus.SUCCEEDED
                if chosen.satisfies_user
                else NegotiationStatus.FAILED_WITH_OFFER
            ),
            user_offer=derive_user_offer(
                chosen.offer, profile.desired.time
            ),
            chosen=chosen,
            commitment=commitment,
            classified=consumed,
            offer_space=space,
            attempts=attempts,
            _rest=plan.offers,
        )
        self._arm_step6(request, commitment, profile)
        return result

    # -- step 6: confirmation vs expiry, as tasks ----------------------------------

    def _arm_step6(
        self,
        request: ServiceRequest,
        commitment: Commitment,
        profile: "UserProfile",
    ) -> None:
        """Spawn the user's confirm/reject task and the choice-period
        watchdog.  Both route through the scheduler, so when the think
        time lands on the expiry tick their order is a seeded race —
        and the commitment state machine journals exactly one terminal
        transition whichever wins."""
        slow = float(self._rng.uniform(0.0, 1.0)) < (
            self.policy.slow_user_fraction
        )
        spread = 1.0 + self.policy.confirm_jitter * float(
            self._rng.uniform(-1.0, 1.0)
        )
        think_s = self.policy.confirm_delay_s * spread
        if slow:
            think_s += profile.choice_period_s
        reject = float(self._rng.uniform(0.0, 1.0)) < (
            self.policy.reject_fraction
        )
        self.scheduler.spawn(
            f"confirm:{request.label}",
            self._confirm_task(request, commitment, think_s, reject),
        )
        self.scheduler.spawn(
            f"expiry:{request.label}",
            self._expiry_task(request, commitment),
        )

    def _confirm_task(
        self,
        request: ServiceRequest,
        commitment: Commitment,
        think_s: float,
        reject: bool,
    ) -> Task:
        yield Sleep(think_s)
        yield Switch()  # the seeded race position vs the watchdog
        if commitment.state is not CommitmentState.PENDING:
            return  # expiry (or a crash path) resolved it first
        now = self.loop.now
        if reject:
            commitment.reject(now)
            if commitment.state is CommitmentState.REJECTED:
                request.rejected = True
                self.stats.rejections += 1
            return
        try:
            commitment.confirm(now)
        except ConfirmationTimeout:
            # The deadline passed before the watchdog fired; confirm()
            # itself expired the commitment — the one EXPIRED record.
            request.expired = True
            self.stats.expiries += 1
            return
        request.confirmed = True
        self.stats.confirmations += 1
        if self.policy.hold_s > 0.0:
            yield Sleep(self.policy.hold_s)
        commitment.release()
        request.released = True
        self.stats.releases += 1

    def _expiry_task(
        self, request: ServiceRequest, commitment: Commitment
    ) -> Task:
        # Wake strictly after the deadline (expiry is ``now > deadline``).
        delay = max(commitment.deadline - self.loop.now, 0.0)
        yield Sleep(delay + EXPIRY_MARGIN_S)
        yield Switch()
        if commitment.state is not CommitmentState.PENDING:
            return  # confirmed, rejected, or already expired
        if commitment.expire_check(self.loop.now):
            request.expired = True
            self.stats.expiries += 1

    # -- reporting -----------------------------------------------------------------

    @property
    def inflight(self) -> int:
        return self._inflight

    def unfinished(self) -> "list[ServiceRequest]":
        """Requests still without a terminal verdict (must be empty
        after the loop drains — anything here is a starved client)."""
        return [r for r in self.requests if r.finished_at is None]
