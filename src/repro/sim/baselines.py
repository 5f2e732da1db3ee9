"""Baseline negotiators the paper's approach is compared against.

§1: existing systems use QoS negotiation "in a rather static manner ...
restricted to the evaluation of the capacity of certain system
components a priori known"; §5 argues classification by cost alone or
QoS alone is "neither optimal nor suitable".  The E7/E11 experiments
need those alternatives as executable baselines:

* :class:`StaticNegotiator` — the pre-paper behaviour: a single, a
  priori fixed configuration (the best-quality offer); if its resources
  are unavailable the request blocks.  No alternatives considered.
* :class:`FirstFitNegotiator` — no classification at all: walk offers
  in enumeration order, take the first that commits.
* :class:`CostOnlyNegotiator` — classify by cost alone (cheapest first).
* :class:`QoSOnlyNegotiator` — classify by QoS importance alone
  (best quality first), ignoring cost.
* :class:`SmartNegotiator` — the paper's procedure (thin wrapper for a
  uniform interface).

All reuse the same steps 1–2 and resource-commitment machinery as the
real manager, so measured differences come purely from offer selection.
"""

from __future__ import annotations

from typing import Protocol

from ..client.machine import ClientMachine
from ..core.classification import (
    ClassificationPolicy,
    ClassifiedOffer,
    classify_space,
)
from ..core.enumeration import build_offer_space
from ..core.negotiation import NegotiationResult, QoSManager
from ..core.profiles import UserProfile
from ..core.status import NegotiationStatus
from ..documents.document import Document

__all__ = [
    "Negotiator",
    "SmartNegotiator",
    "StaticNegotiator",
    "FirstFitNegotiator",
    "CostOnlyNegotiator",
    "QoSOnlyNegotiator",
    "RandomNegotiator",
    "ALL_BASELINES",
]


class Negotiator(Protocol):
    """Uniform interface for the E-series comparisons."""

    name: str

    def negotiate(
        self,
        document: "Document | str",
        profile: UserProfile,
        client: ClientMachine,
    ) -> NegotiationResult: ...


class SmartNegotiator:
    """The paper's procedure, unchanged."""

    name = "smart"

    def __init__(self, manager: QoSManager) -> None:
        self.manager = manager

    def negotiate(self, document, profile, client) -> NegotiationResult:
        return self.manager.negotiate(document, profile, client)


class _ReorderingNegotiator:
    """Shared scaffolding: run steps 1–2 and commitment like the real
    manager, but impose a different candidate order (or truncation)."""

    name = "reordering"

    def __init__(self, manager: QoSManager) -> None:
        self.manager = manager

    def _order(
        self, classified: "list[ClassifiedOffer]"
    ) -> "list[ClassifiedOffer]":
        raise NotImplementedError

    def negotiate(self, document, profile, client) -> NegotiationResult:
        manager = self.manager
        if isinstance(document, str):
            document = manager.database.get_document(document)
        violations, local_best = manager._static_local_negotiation(
            document, profile, client
        )
        if violations:
            return NegotiationResult(
                status=NegotiationStatus.FAILED_WITH_LOCAL_OFFER,
                user_offer=local_best,
                local_violations=violations,
            )
        space = build_offer_space(
            document, client, manager.cost_model,
            mapper=manager.mapper, guarantee=manager.guarantee,
        )
        if space.is_empty:
            return NegotiationResult(
                status=NegotiationStatus.FAILED_WITHOUT_OFFER,
                offer_space=space,
            )
        classified = classify_space(
            space, profile, manager.importance_of(profile),
            policy=ClassificationPolicy.SNS_PRIMARY,
        )
        ordered = self._order(classified)
        return self._commit_in_order(ordered, space, profile, client)

    def _commit_in_order(
        self, ordered, space, profile, client
    ) -> NegotiationResult:
        """Single-pass commitment in exactly the given order (these
        baselines have no satisfying-first refinement)."""
        from ..core.commitment import Commitment
        from ..core.offers import derive_user_offer

        manager = self.manager
        holder = f"{self.name}-{id(self)}-{manager.clock.now():g}"
        attempts = 0
        for candidate in ordered:
            attempts += 1
            bundle = manager.committer.try_commit(
                candidate.offer, space, client.access_point,
                guarantee=manager.guarantee, holder=holder,
            )
            if bundle is None:
                continue
            commitment = Commitment(
                bundle, manager.committer,
                reserved_at=manager.clock.now(),
                choice_period_s=profile.choice_period_s,
            )
            status = (
                NegotiationStatus.SUCCEEDED
                if candidate.satisfies_user
                else NegotiationStatus.FAILED_WITH_OFFER
            )
            return NegotiationResult(
                status=status,
                user_offer=derive_user_offer(candidate.offer, profile.desired.time),
                chosen=candidate,
                commitment=commitment,
                classified=list(ordered),
                offer_space=space,
                attempts=attempts,
            )
        return NegotiationResult(
            status=NegotiationStatus.FAILED_TRY_LATER,
            classified=list(ordered),
            offer_space=space,
            attempts=attempts,
        )


class StaticNegotiator(_ReorderingNegotiator):
    """A priori fixed configuration: only the single best-quality offer
    is ever attempted (quality = QoS importance, ties by enumeration)."""

    name = "static"

    def _order(self, classified):
        if not classified:
            return []
        # Quality alone, not OIF: the a-priori "known good" configuration.
        return [max(classified, key=_quality_key(self.manager))]


class FirstFitNegotiator(_ReorderingNegotiator):
    """No classification: enumeration order, first fit wins."""

    name = "first-fit"

    def _order(self, classified):
        return sorted(
            classified, key=lambda c: int(c.offer.offer_id.split("-")[-1])
        )


class CostOnlyNegotiator(_ReorderingNegotiator):
    """Cheapest offer first (§5: "the cheapest system offer is the best
    system offer" — and why that is not enough)."""

    name = "cost-only"

    def _order(self, classified):
        return sorted(classified, key=lambda c: c.offer.cost.cents)


class QoSOnlyNegotiator(_ReorderingNegotiator):
    """Best QoS first, cost ignored (the §5 weighted-average-only
    classification)."""

    name = "qos-only"

    def _order(self, classified):
        key = _quality_key(self.manager)
        return sorted(classified, key=key, reverse=True)


class RandomNegotiator(_ReorderingNegotiator):
    """Uniformly random candidate order — the no-information floor.

    Seeded per instance so runs are reproducible; every negotiation
    draws a fresh permutation.
    """

    name = "random"

    def __init__(self, manager: QoSManager, seed: int = 0) -> None:
        super().__init__(manager)
        from ..util.rng import make_rng

        self._rng = make_rng(seed)

    def _order(self, classified):
        order = list(classified)
        indices = self._rng.permutation(len(order))
        return [order[int(i)] for i in indices]


def _quality_key(manager: QoSManager):
    """Offer quality = summed QoS importance under default importance
    weights (independent of the requesting user's cost sensitivity)."""
    from ..core.importance import default_importance

    importance = default_importance().with_cost_per_dollar(0.0)

    def key(c: ClassifiedOffer) -> float:
        return importance.overall_importance(list(c.offer.qos_points()), c.offer.cost)

    return key


def ALL_BASELINES(manager: QoSManager) -> "list[Negotiator]":
    """Every negotiator, paper's first."""
    return [
        SmartNegotiator(manager),
        StaticNegotiator(manager),
        FirstFitNegotiator(manager),
        CostOnlyNegotiator(manager),
        QoSOnlyNegotiator(manager),
        RandomNegotiator(manager),
    ]
