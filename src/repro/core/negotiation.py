"""The QoS manager and the six-step negotiation procedure (paper §4).

Inputs: "the document to be played and the user profile selected by the
user"; output: "the negotiation status and possibly a user offer".  The
steps, in order:

1. **Static local negotiation** — client machine characteristics vs the
   requested QoS → FAILEDWITHLOCALOFFER (with the best locally
   presentable QoS as the returned offer).
2. **Static compatibility checking** — variant codecs vs client
   decoders → FAILEDWITHOUTOFFER when nothing decodable remains.
3. **Computation of classification parameters** — SNS + OIF per
   feasible offer.
4. **Classification of system offers** — best → worst (policy
   configurable, see :mod:`repro.core.classification`).
5. **Resource commitment** — walk the list (offers satisfying the
   requested QoS *and* cost first, then the remaining feasible offers,
   always in classified order), reserving server + network resources
   with rollback → SUCCEEDED / FAILEDWITHOFFER / FAILEDTRYLATER.
6. **User confirmation** — the returned :class:`Commitment` must be
   confirmed within ``choicePeriod`` or the reservation evaporates.

Steps 3–4 produce the classified list lazily, best first
(:func:`~repro.core.stream.stream_classified`), so step 5 classifies
and materialises only the offers it walks.  The full sort
(:func:`~repro.core.classification.classify_space`) has two jobs: the
fallback when a preference ``offer_bonus`` makes the scores
non-separable, and the reference procedure
(:func:`negotiate_full_sort`) that tests and ``repro bench`` check the
stream against.

The whole classified list stays reachable from the result: "during the
active phase, if QoS violations occur the adaptation procedure makes
use of the whole set of feasible system offers" (§4) —
:meth:`NegotiationResult.ensure_classified` drains the stream on
demand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generator,
    Iterable,
    Iterator,
    Mapping,
)

from ..client.machine import ClientMachine
from ..cmfs.server import MediaServer
from ..documents.document import Document
from ..documents.media import Medium
from ..documents.quality import MediaQoS
from ..faults.health import CircuitBreaker
from ..faults.retry import RetryPolicy
from ..journal import ReservationJournal
from ..metadata.database import MetadataDatabase
from ..network.transport import GuaranteeType, TransportSystem
from ..telemetry import NegotiationReport, Telemetry
from ..util.clock import ManualClock
from ..util.errors import NegotiationError
from .classification import (
    ClassificationPolicy,
    ClassifiedOffer,
    apply_offer_bonus,
    check_top_k,
    classify_space,
)
from .commitment import (
    Commitment,
    ReservationBundle,
    ResourceCommitter,
    run_to_completion,
)
from .cost import CostModel, default_cost_model
from .enumeration import OfferSpace, build_offer_space
from .importance import ImportanceProfile, default_importance
from .mapping import QoSMapper
from .offers import derive_user_offer
from .profiles import MMProfile, UserProfile
from .status import NegotiationStatus
from .stream import stream_classified

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..perf.cache import NegotiationCache
    from .preferences import UserPreferences

__all__ = [
    "DEFAULT_RETRY_AFTER_S",
    "NegotiationPlan",
    "NegotiationResult",
    "QoSManager",
    "WalkOutcome",
    "negotiate_full_sort",
    "two_pass_order",
]

DEFAULT_RETRY_AFTER_S = 30.0
"""Retry-after hint on FAILEDTRYLATER when no breaker knows better —
roughly the time scale on which playing sessions end and free capacity."""


@dataclass(slots=True)
class NegotiationResult:
    """Status + user offer + everything adaptation needs later.

    ``classified`` is the prefix of the best-first classified list that
    the step-5 walk consumed; ``_rest`` keeps the unconsumed remainder.
    :meth:`ensure_classified` drains it and returns the whole list —
    adaptation still gets "the whole set of feasible system offers"
    (§4), it just pays for them only when a violation occurs.
    """

    status: NegotiationStatus
    user_offer: MMProfile | None = None
    chosen: ClassifiedOffer | None = None
    commitment: Commitment | None = None
    classified: list[ClassifiedOffer] = field(default_factory=list)
    offer_space: OfferSpace | None = None
    local_violations: dict[Medium, tuple[str, ...]] = field(default_factory=dict)
    attempts: int = 0
    retry_after_s: "float | None" = None  # hint accompanying FAILEDTRYLATER
    report: "NegotiationReport | None" = None  # trace-derived step account
    _rest: "Iterator[ClassifiedOffer] | None" = field(
        default=None, repr=False
    )

    @property
    def succeeded(self) -> bool:
        return self.status.is_success

    def ensure_classified(self) -> list[ClassifiedOffer]:
        """The complete classified list, draining any unconsumed
        remainder (classified order is preserved: the consumed prefix
        and the continuation come from the same best-first list)."""
        if self._rest is not None:
            self.classified.extend(self._rest)
            self._rest = None
        return self.classified

    def summary(self) -> str:
        lines = [f"negotiation status: {self.status}"]
        if self.user_offer is not None:
            lines.append(f"user offer: {self.user_offer.describe()}")
        if self.chosen is not None:
            lines.append(f"chosen: {self.chosen}")
        lines.append(f"offers classified: {len(self.classified)}")
        lines.append(f"commitment attempts: {self.attempts}")
        if self.retry_after_s is not None:
            lines.append(f"retry after: {self.retry_after_s:g}s")
        return "\n".join(lines)


@dataclass(slots=True)
class NegotiationPlan:
    """The outcome of steps 1–4, ready for a step-5 commitment walk.

    Either ``early`` is set (the procedure already ended in step 1 or
    2) or ``offers`` yields the classified offers best first — the lazy
    stream, or the full sort when the scores are not separable — and
    ``offers_in`` counts them.  The concurrent service plans
    synchronously — steps 1–4 touch no shared ledgers — and then walks
    step 5 cooperatively, yielding between reservations.
    """

    early: "NegotiationResult | None" = None
    space: "OfferSpace | None" = None
    offers: "Iterator[ClassifiedOffer] | None" = None
    offers_in: int = 0


def two_pass_order(
    offers: "Iterable[ClassifiedOffer]",
    consumed: "list[ClassifiedOffer]",
    *,
    exclude_offer_ids: frozenset[str] = frozenset(),
) -> "Iterator[ClassifiedOffer]":
    """The step-5 candidate order over best-first ``offers`` (§5.2.2(c)).

    Offers satisfying the QoS and cost the user requested are yielded
    as they arrive; the others are deferred until ``offers`` runs out —
    each pass in classified order.  Every offer pulled from ``offers``
    is appended to ``consumed``, excluded ones included, so
    ``consumed`` followed by whatever ``offers`` still holds is always
    the whole classified list.
    """
    deferred: "list[ClassifiedOffer]" = []
    for item in offers:
        consumed.append(item)
        if item.offer.offer_id in exclude_offer_ids:
            continue
        if item.satisfies_user:
            yield item
        else:
            deferred.append(item)
    yield from deferred


@dataclass(frozen=True, slots=True)
class WalkOutcome:
    """What a :meth:`QoSManager.commitment_walk` returns: the step-5
    result, how many offers an open circuit breaker skipped, and
    whether the walk ran out of deadline budget."""

    result: NegotiationResult
    breaker_skips: int
    overrun: bool


def _reserve(
    reservation: "Generator[None, None, ReservationBundle | None]",
    now: "Callable[[], float]",
    deadline: float,
) -> "Generator[None, None, tuple[ReservationBundle | None, str]]":
    """Pass one offer's reservation yields up to the walk's driver and
    return ``(bundle, outcome)``: ``"committed"``, ``"rolled-back"``,
    or ``"abandoned"`` when a yield ends at or past ``deadline``."""
    try:
        while True:
            try:
                next(reservation)
            except StopIteration as stop:
                bundle = stop.value
                return bundle, (
                    "committed" if bundle is not None else "rolled-back"
                )
            yield
            if now() >= deadline:
                return None, "abandoned"
    finally:
        # Closing a reservation mid-walk rolls back what it holds and
        # journals RELEASED("abandoned") — at the deadline, or when the
        # walk itself is closed; once it has returned this is a no-op.
        reservation.close()


class QoSManager:
    """The component implementing QoS negotiation and adaptation (§4).

    One manager serves one deployment (metadata DB + transport + server
    fleet); :meth:`negotiate` runs the procedure for one user request.
    """

    def __init__(
        self,
        *,
        database: MetadataDatabase,
        transport: TransportSystem,
        servers: Mapping[str, MediaServer],
        cost_model: CostModel | None = None,
        mapper: QoSMapper | None = None,
        clock: ManualClock | None = None,
        policy: ClassificationPolicy = ClassificationPolicy.SNS_PRIMARY,
        guarantee: GuaranteeType = GuaranteeType.GUARANTEED,
        directory: "object | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        health: "CircuitBreaker | None" = None,
        lease_ttl_s: "float | None" = None,
        retry_seed: int = 0,
        journal: "ReservationJournal | None" = None,
        telemetry: "Telemetry | None" = None,
        cache: "NegotiationCache | None" = None,
    ) -> None:
        self.database = database
        self.cost_model = cost_model or default_cost_model()
        self.mapper = mapper or QoSMapper()
        self.clock = clock or ManualClock()
        self.policy = policy
        self.guarantee = guarantee
        self.directory = directory  # ServerDirectory, for preferences
        self.cache = cache
        self.telemetry = telemetry or Telemetry.disabled()
        self.committer = ResourceCommitter(
            transport,
            servers,
            clock=self.clock,
            retry_policy=retry_policy,
            health=health,
            lease_ttl_s=lease_ttl_s,
            retry_seed=retry_seed,
            journal=journal,
            telemetry=self.telemetry,
        )
        self._holders = itertools.count(1)

    def new_holder(self) -> str:
        """Allocate the next reservation-holder id.  Both the
        synchronous walk and the concurrent service draw from this one
        counter, so holders stay unique across interleaved
        negotiations (the journal's single-writer check depends on
        it)."""
        return f"session-{next(self._holders)}"

    # -- step 1 -----------------------------------------------------------------

    def _static_local_negotiation(
        self, document: Document, profile: UserProfile, client: ClientMachine
    ) -> "tuple[dict[Medium, tuple[str, ...]], MMProfile]":
        """Check client characteristics against the desired QoS; return
        (violations, best locally supportable MM profile)."""
        violations: dict[Medium, tuple[str, ...]] = {}
        local_best: dict[str, MediaQoS] = {}
        for medium, requirement in profile.desired.qos_points():
            result = client.check_local(requirement)
            if not result.supported:
                violations[medium] = result.violations
            local_best[medium.value] = result.local_best
        if document.sync.spatial is not None:
            width, height = document.sync.spatial.bounding_box()
            if not client.fits_layout(width, height):
                violations.setdefault(Medium.VIDEO, ("layout",))
        best_profile = MMProfile(
            cost=profile.desired.cost,
            time=profile.desired.time,
            **local_best,
        )
        return violations, best_profile

    # -- the procedure -----------------------------------------------------------------

    def negotiate(
        self,
        document: "Document | str",
        profile: UserProfile,
        client: ClientMachine,
        *,
        policy: ClassificationPolicy | None = None,
        guarantee: GuaranteeType | None = None,
        max_offers: "int | None" = None,
    ) -> NegotiationResult:
        """Run steps 1–5 and wrap the reservation for step 6."""
        max_offers = check_top_k(max_offers, parameter="max_offers")
        telemetry = self.telemetry
        started = self.clock.now()
        document_id = document if isinstance(document, str) else document.document_id
        with telemetry.span(
            "negotiation",
            document=document_id,
            profile=profile.name,
        ) as root:
            if isinstance(document, str):
                document = self.database.get_document(document)
            guarantee = guarantee or self.guarantee
            plan = self._plan_steps(
                document,
                profile,
                client,
                policy=policy or self.policy,
                guarantee=guarantee,
                max_offers=max_offers,
            )
            result = self.complete(plan, profile, client, guarantee=guarantee)
            root.set_attribute("status", str(result.status))
            root.set_attribute("attempts", result.attempts)
        self.record_outcome(result)
        telemetry.observe(
            "negotiation.latency_s", self.clock.now() - started
        )
        if telemetry.enabled:
            result.report = NegotiationReport.from_spans(
                telemetry.tracer.last_trace()
            )
        return result

    def record_outcome(self, result: NegotiationResult) -> None:
        """Emit one negotiation's outcome metrics: its status, its
        step-5 attempts and how many classified offers it consumed.
        Every path that hands a result to a caller — sequential or
        batched — reports through here."""
        telemetry = self.telemetry
        telemetry.count("negotiation.outcomes", status=str(result.status))
        telemetry.observe("negotiation.attempts", float(result.attempts))
        telemetry.observe(
            "negotiation.offers.classified", float(len(result.classified))
        )

    def plan(
        self,
        document: "Document | str",
        profile: UserProfile,
        client: ClientMachine,
        *,
        policy: ClassificationPolicy | None = None,
        guarantee: GuaranteeType | None = None,
        max_offers: "int | None" = None,
    ) -> NegotiationPlan:
        """Steps 1–4 only: classify without reserving anything.

        This is the concurrent service's and the batch engine's entry
        point — planning reads the metadata database and the client's
        static characteristics but never touches the shared
        server/transport ledgers, so it needs no yield points.  The
        plan's offers are the same lazy best-first stream
        :meth:`negotiate` walks; the stream emits no telemetry, so
        pulling it from inside a cooperative
        :meth:`commitment_walk` cannot interleave anything with other
        negotiations.
        """
        max_offers = check_top_k(max_offers, parameter="max_offers")
        if isinstance(document, str):
            document = self.database.get_document(document)
        return self._plan_steps(
            document, profile, client,
            policy=policy or self.policy,
            guarantee=guarantee or self.guarantee,
            max_offers=max_offers,
        )

    def complete(
        self,
        plan: NegotiationPlan,
        profile: UserProfile,
        client: ClientMachine,
        *,
        guarantee: GuaranteeType | None = None,
    ) -> NegotiationResult:
        """Step 5 from a prebuilt plan: the synchronous commitment walk.

        The counterpart of :meth:`plan` for callers that plan once and
        walk many times (the batch engine fans one class plan out to
        every member).  ``negotiate`` is exactly ``plan`` + ``complete``
        modulo telemetry wrapping.
        """
        if plan.early is not None:
            return plan.early
        assert plan.space is not None and plan.offers is not None
        return self.commit(
            plan.offers, plan.space, profile, client,
            offers_in=plan.offers_in, guarantee=guarantee,
        )

    def _plan_steps(
        self,
        document: Document,
        profile: UserProfile,
        client: ClientMachine,
        *,
        policy: ClassificationPolicy,
        guarantee: GuaranteeType,
        max_offers: "int | None",
    ) -> NegotiationPlan:
        importance = self.importance_of(profile)
        plan = self._plan_space(document, profile, client, guarantee=guarantee)
        if plan.early is not None:
            return plan
        assert plan.space is not None
        # A non-trivial preference offer_bonus is per-offer, which
        # breaks the separability the best-first stream relies on —
        # those requests fall back to the full sort.
        preferences = self._preferences_of(profile)
        if preferences is not None and not preferences.is_trivial:
            return self._plan_full_sort(
                plan.space, profile, importance,
                policy=policy, max_offers=max_offers,
            )
        return self._plan_stream(
            plan.space, profile, importance,
            policy=policy, max_offers=max_offers,
        )

    def _plan_space(
        self,
        document: Document,
        profile: UserProfile,
        client: ClientMachine,
        *,
        guarantee: GuaranteeType,
    ) -> NegotiationPlan:
        """Steps 1–2: an early plan when either ends the procedure,
        else a plan holding only the feasible offer space."""
        telemetry = self.telemetry

        # Step 1: static local negotiation.
        with telemetry.span("negotiation.step1.local") as sp1:
            violations, local_best = self._static_local_negotiation(
                document, profile, client
            )
            sp1.set_attribute("violations", len(violations))
            if violations:
                sp1.set_attribute(
                    "violated_media",
                    sorted(medium.value for medium in violations),
                )
        if violations:
            return NegotiationPlan(early=NegotiationResult(
                status=NegotiationStatus.FAILED_WITH_LOCAL_OFFER,
                user_offer=local_best,
                local_violations=violations,
            ))

        # Step 2: static compatibility checking (decoder support, plus
        # the security floor when the profile carries preferences).
        with telemetry.span("negotiation.step2.filter") as sp2:
            preferences = self._preferences_of(profile)
            variant_filter = None
            if preferences is not None and self.directory is not None:
                variant_filter = preferences.variant_filter(self.directory)

            def build() -> OfferSpace:
                return build_offer_space(
                    document,
                    client,
                    self.cost_model,
                    mapper=self.mapper,
                    guarantee=guarantee,
                    variant_filter=variant_filter,
                )

            # A variant filter makes the space caller-specific, so only
            # filter-free requests go through the cache.
            if self.cache is not None and variant_filter is None:
                space_key = self.cache.space_key(
                    database=self.database,
                    document_id=document.document_id,
                    client=client,
                    guarantee=guarantee,
                    cost_model=self.cost_model,
                    mapper=self.mapper,
                )
                space = self.cache.offer_space(space_key, build)
                sp2.set_attribute("cached", True)
            else:
                space = build()
            kept = sum(space.axis_sizes().values())
            dropped = sum(len(v) for v in space.rejected.values())
            sp2.set_attribute("offers_in", kept + dropped)
            sp2.set_attribute("offers_out", kept)
            sp2.set_attribute("dropped", dropped)
            if dropped:
                sp2.set_attribute(
                    "drop_reasons",
                    {
                        monomedia: len(variants)
                        for monomedia, variants in sorted(
                            space.rejected.items()
                        )
                        if variants
                    },
                )
            sp2.set_attribute("offer_count", space.offer_count)
            telemetry.count(
                "negotiation.offers.enumerated", float(kept + dropped)
            )
            if dropped:
                telemetry.count(
                    "negotiation.offers.dropped", float(dropped), step="2"
                )
        if space.is_empty:
            return NegotiationPlan(early=NegotiationResult(
                status=NegotiationStatus.FAILED_WITHOUT_OFFER,
                offer_space=space,
            ), space=space)
        return NegotiationPlan(space=space)

    def _plan_stream(
        self,
        space: OfferSpace,
        profile: UserProfile,
        importance: ImportanceProfile,
        *,
        policy: ClassificationPolicy,
        max_offers: "int | None",
    ) -> NegotiationPlan:
        """Steps 3–4 over the lazy best-first stream: offers are
        classified (and materialised) only as the commitment walk
        consumes them, in exactly the full sort's order."""
        telemetry = self.telemetry
        total = space.offer_count
        out = total if max_offers is None else min(total, max_offers)
        with telemetry.span("negotiation.step3.parameters") as sp3:
            stream = stream_classified(
                space, profile, importance, policy=policy
            )
            if max_offers is not None:
                stream = itertools.islice(stream, max_offers)
            sp3.set_attribute("streaming", True)
            sp3.set_attribute("offers_in", total)
            sp3.set_attribute("offers_out", out)
            sp3.set_attribute("dropped", total - out)
            if total - out:
                sp3.set_attribute("drop_reasons", {"top-k cut": total - out})
                telemetry.count(
                    "negotiation.offers.dropped", float(total - out), step="3"
                )
        with telemetry.span(
            "negotiation.step4.classify", policy=policy.value
        ) as sp4:
            sp4.set_attribute("streaming", True)
            sp4.set_attribute("offers_in", out)
            sp4.set_attribute("offers_out", out)
        return NegotiationPlan(space=space, offers=stream, offers_in=out)

    def _plan_full_sort(
        self,
        space: OfferSpace,
        profile: UserProfile,
        importance: ImportanceProfile,
        *,
        policy: ClassificationPolicy,
        max_offers: "int | None",
    ) -> NegotiationPlan:
        """Steps 3–4 by classifying and sorting the whole space, then
        re-ranking by the preference ``offer_bonus`` when there is
        one."""
        telemetry = self.telemetry
        preferences = self._preferences_of(profile)

        # Step 3: classification parameters (SNS + OIF per offer).
        with telemetry.span("negotiation.step3.parameters") as sp3:
            classified = classify_space(
                space, profile, importance, policy=policy, top_k=max_offers
            )
            cut = space.offer_count - len(classified)
            sp3.set_attribute("offers_in", space.offer_count)
            sp3.set_attribute("offers_out", len(classified))
            sp3.set_attribute("dropped", cut)
            if cut:
                sp3.set_attribute("drop_reasons", {"top-k cut": cut})
                telemetry.count(
                    "negotiation.offers.dropped", float(cut), step="3"
                )

        # Step 4: classification of system offers (ordering policy).
        with telemetry.span(
            "negotiation.step4.classify", policy=policy.value
        ) as sp4:
            if preferences is not None and not preferences.is_trivial:
                classified = apply_offer_bonus(
                    classified, preferences.offer_bonus, policy=policy
                )
                sp4.set_attribute("offer_bonus", True)
            sp4.set_attribute("offers_in", len(classified))
            sp4.set_attribute("offers_out", len(classified))
            sp4.set_attribute(
                "satisfying",
                sum(1 for c in classified if c.satisfies_user),
            )

        return NegotiationPlan(
            space=space, offers=iter(classified), offers_in=len(classified)
        )

    def commit(
        self,
        offers: "Iterable[ClassifiedOffer]",
        space: OfferSpace,
        profile: UserProfile,
        client: ClientMachine,
        *,
        offers_in: int,
        guarantee: GuaranteeType | None = None,
        exclude_offer_ids: frozenset[str] = frozenset(),
    ) -> NegotiationResult:
        """Step 5, synchronously: :meth:`commitment_walk` driven to
        completion on the manager's clock, under a
        ``negotiation.step5.commit`` span whose attempt spans nest
        beneath it."""
        holder = self.new_holder()
        with self.telemetry.span(
            "negotiation.step5.commit",
            offers_in=offers_in,
            holder=holder,
        ) as sp5:
            outcome = run_to_completion(self.commitment_walk(
                offers, space, profile, client,
                holder=holder,
                guarantee=guarantee or self.guarantee,
                now=self.clock.now,
                exclude_offer_ids=exclude_offer_ids,
            ))
            result = outcome.result
            sp5.set_attribute("attempts", result.attempts)
            sp5.set_attribute("breaker_skips", outcome.breaker_skips)
            sp5.set_attribute("outcome", str(result.status))
            if result.chosen is not None:
                sp5.set_attribute("chosen", result.chosen.offer.offer_id)
        return result

    def commitment_walk(
        self,
        offers: "Iterable[ClassifiedOffer]",
        space: OfferSpace,
        profile: UserProfile,
        client: ClientMachine,
        *,
        holder: str,
        guarantee: GuaranteeType,
        now: "Callable[[], float]",
        parent: "tuple[str, str] | None" = None,
        deadline: float = math.inf,
        exclude_offer_ids: frozenset[str] = frozenset(),
    ) -> "Generator[None, None, WalkOutcome]":
        """Step 5: walk best-first ``offers`` in :func:`two_pass_order`
        and commit the first candidate whose resources can be reserved.

        The walk yields before every reservation call (the yields of
        :meth:`ResourceCommitter.iter_commit`); :meth:`commit` drives
        it straight through, the concurrent service sleeps at each
        yield.  The driver supplies the clock (``now``), the trace
        parent and the deadline:

        * ``parent=None`` records each attempt as a live span nested
          under the tracer's open span, breaker skips included; a
          ``(trace_id, span_id)`` context instead emits each attempt
          as a manually timed span under it once the attempt ends
          (a live span cannot stay open across task switches), and
          only real attempts get one — those traces are read as one
          attempt per span;
        * at or past ``deadline`` the walk stops: before a candidate,
          or at a yield, where the in-flight reservation is abandoned
          (rolled back, journaled RELEASED ``"abandoned"``) and the
          result is FAILEDTRYLATER with ``overrun`` set.

        When the committer tracks health, offers using a quarantined
        (circuit-open) server are skipped outright — the walk degrades
        gracefully to alternate-server variants instead of spending its
        retry budget against a machine known to be failing.  The
        result's ``classified`` is the prefix of ``offers`` the walk
        consumed; the rest stays on the result for
        :meth:`NegotiationResult.ensure_classified`.
        """
        committer = self.committer
        health = committer.health
        telemetry = self.telemetry
        remaining = iter(offers)
        consumed: "list[ClassifiedOffer]" = []
        attempts = 0
        skips = 0
        overrun = False
        chosen: "ClassifiedOffer | None" = None
        commitment: "Commitment | None" = None
        for candidate in two_pass_order(
            remaining, consumed, exclude_offer_ids=exclude_offer_ids
        ):
            if now() >= deadline:
                overrun = True
                break
            offer = candidate.offer
            if health is not None:
                at = now()
                if not all(
                    health.allow(server_id, at)
                    for server_id in offer.servers_used()
                ):
                    committer.stats.breaker_skips += 1
                    skips += 1
                    telemetry.count("breaker.skips")
                    telemetry.count("negotiation.offers.dropped", step="5")
                    if parent is None:
                        with telemetry.span(
                            "negotiation.step5.attempt",
                            offer_id=offer.offer_id,
                            servers=sorted(offer.servers_used()),
                        ) as skip_span:
                            skip_span.set_attribute("outcome", "breaker-skip")
                    continue
            attempts += 1
            reservation = committer.iter_commit(
                offer,
                space,
                client.access_point,
                guarantee=guarantee,
                holder=holder,
            )
            if parent is None:
                with telemetry.span(
                    "negotiation.step5.attempt",
                    offer_id=offer.offer_id,
                    servers=sorted(offer.servers_used()),
                ) as attempt_span:
                    bundle, outcome = yield from _reserve(
                        reservation, now, deadline
                    )
                    attempt_span.set_attribute("outcome", outcome)
            else:
                started = now()
                bundle, outcome = yield from _reserve(
                    reservation, now, deadline
                )
                telemetry.tracer.emit(
                    "negotiation.step5.attempt",
                    start_s=started,
                    end_s=now(),
                    parent=parent,
                    attributes={
                        "offer_id": offer.offer_id,
                        "holder": holder,
                        "outcome": outcome,
                    },
                )
            if outcome == "abandoned":
                overrun = True
                break
            if bundle is None:
                telemetry.count("negotiation.offers.dropped", step="5")
                continue
            # No yield between the reservation's return and the
            # Commitment: RESERVED lands while the INTENT window is ours.
            chosen = candidate
            commitment = Commitment(
                bundle,
                committer,
                reserved_at=now(),
                choice_period_s=profile.choice_period_s,
                telemetry=telemetry,
                trace_context=telemetry.tracer.root_context(),
            )
            break
        if chosen is None:
            # "If the whole set of the feasible system offers are
            # considered and no resources are available" (§4 step 5):
            result = NegotiationResult(
                status=NegotiationStatus.FAILED_TRY_LATER,
                classified=consumed,
                offer_space=space,
                attempts=attempts,
                retry_after_s=self.retry_after_hint(),
                _rest=remaining,
            )
        else:
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
                _rest=remaining,
            )
        return WalkOutcome(result=result, breaker_skips=skips, overrun=overrun)

    def retry_after_hint(self) -> float:
        """When is retrying the whole negotiation first worthwhile?  The
        earliest quarantine expiry if a breaker is open, else a default
        heuristic."""
        health = self.committer.health
        if health is not None:
            reopen = health.earliest_reopen(self.clock.now())
            if reopen is not None:
                return max(reopen - self.clock.now(), 0.0)
        return DEFAULT_RETRY_AFTER_S

    # -- renegotiation (§8) ------------------------------------------------------------

    def renegotiate(
        self,
        previous: NegotiationResult,
        document: "Document | str",
        profile: UserProfile,
        client: ClientMachine,
        **kwargs: Any,
    ) -> NegotiationResult:
        """The GUI's renegotiation path: "modify the offer and then push
        OK to initiate a renegotiation" (§8).

        Any resources still held by ``previous`` are released first
        (rejecting the pending offer), then the procedure runs afresh
        with the edited profile.

        ``reject`` already treats the expired/rejected/released states
        as a no-op, so nothing is caught here: a journal-append fault
        or a reject on a confirmed commitment is a real error and must
        propagate instead of masquerading as "already expired".
        """
        if previous.commitment is not None:
            previous.commitment.reject(self.clock.now())
        return self.negotiate(document, profile, client, **kwargs)

    # -- helpers ------------------------------------------------------------------------

    @staticmethod
    def _preferences_of(profile: UserProfile) -> "UserPreferences | None":
        preferences = profile.preferences
        if preferences is None:
            return None
        from .preferences import UserPreferences

        if not isinstance(preferences, UserPreferences):
            raise NegotiationError(
                f"profile {profile.name!r} carries invalid preferences "
                f"({type(preferences).__name__})"
            )
        return preferences

    @staticmethod
    def importance_of(profile: UserProfile) -> ImportanceProfile:
        """The profile's importance profile, the default when it has
        none."""
        importance = profile.importance
        if importance is None:
            return default_importance()
        if not isinstance(importance, ImportanceProfile):
            raise NegotiationError(
                f"profile {profile.name!r} carries an invalid importance "
                f"profile ({type(importance).__name__})"
            )
        return importance


def negotiate_full_sort(
    manager: QoSManager,
    document: "Document | str",
    profile: UserProfile,
    client: ClientMachine,
    *,
    policy: ClassificationPolicy | None = None,
    guarantee: GuaranteeType | None = None,
    max_offers: "int | None" = None,
) -> NegotiationResult:
    """The reference procedure: steps 1–2 and 5 as
    :meth:`QoSManager.negotiate` runs them, steps 3–4 by classifying and
    sorting the whole offer space whatever the scores.

    Tests and ``repro bench`` check the best-first stream against it:
    both must commit the same offer with the same status after the
    same number of attempts.  It records no outcome metrics.
    """
    max_offers = check_top_k(max_offers, parameter="max_offers")
    if isinstance(document, str):
        document = manager.database.get_document(document)
    guarantee = guarantee or manager.guarantee
    importance = manager.importance_of(profile)
    plan = manager._plan_space(document, profile, client, guarantee=guarantee)
    if plan.early is None:
        assert plan.space is not None
        plan = manager._plan_full_sort(
            plan.space, profile, importance,
            policy=policy or manager.policy, max_offers=max_offers,
        )
    return manager.complete(plan, profile, client, guarantee=guarantee)
