"""The batch negotiation engine: plan per class, walk per member.

``negotiate_batch`` is semantically ``[manager.negotiate(r) for r in
requests]`` — same submission order, same holder sequence, same ledger
states at each walk, hence byte-exact ``(status, offer id, attempts)``
per member — but the pure prefix (steps 1–4) runs once per equivalence
class instead of once per request:

* classes are keyed by :func:`~repro.batch.classes.request_class_key`;
* each class plans once through :meth:`QoSManager.plan`, and its
  best-first offer stream is wrapped in a replayable buffer, so every
  member walks the stream from its beginning while each offer is still
  classified at most once per class.

``after_each`` runs after each member's walk, before the next member
touches the ledgers — the bench uses it to reject commitments so the
batched run replays the sequential run's exact resource states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

from ..core.classification import ClassifiedOffer
from ..core.negotiation import NegotiationPlan, NegotiationResult, QoSManager
from .classes import BatchRequest, request_class_key

__all__ = ["negotiate_batch"]

AfterEach = Callable[[BatchRequest, NegotiationResult], None]


class _ReplayableStream:
    """A best-first classification stream every member can replay.

    Items already pulled are buffered; each :meth:`iter` replays the
    buffer then extends it from the base stream, so member *k*'s view
    is identical to a fresh stream's prefix while each offer is
    classified at most once across the whole class.
    """

    def __init__(self, base: "Iterator[ClassifiedOffer]") -> None:
        self._base = base
        self._buffer: "list[ClassifiedOffer]" = []

    def iter(self) -> "Iterator[ClassifiedOffer]":
        i = 0
        while True:
            if i < len(self._buffer):
                item = self._buffer[i]
            else:
                try:
                    item = next(self._base)
                except StopIteration:
                    return
                self._buffer.append(item)
            yield item
            i += 1


@dataclass
class _ClassPlan:
    """One equivalence class's shared steps-1–4 outcome."""

    plan: NegotiationPlan
    offers: "_ReplayableStream | None" = None
    members_walked: int = 0

    def member_plan(self) -> NegotiationPlan:
        """A per-member view of the class plan.

        Early results are cloned (results are mutable records the
        caller owns); the offer stream gets a fresh replay cursor.
        """
        plan = self.plan
        if plan.early is not None:
            early = replace(
                plan.early,
                classified=list(plan.early.classified),
                local_violations=dict(plan.early.local_violations),
            )
            return NegotiationPlan(early=early, space=plan.space)
        assert self.offers is not None
        return NegotiationPlan(
            space=plan.space,
            offers=self.offers.iter(),
            offers_in=plan.offers_in,
        )


@dataclass
class _ClassGroup:
    key: tuple
    representative: BatchRequest
    size: int = 1


def negotiate_batch(
    manager: QoSManager,
    requests: "Sequence[BatchRequest]",
    *,
    after_each: "AfterEach | None" = None,
) -> "list[NegotiationResult]":
    """Negotiate ``requests`` in order, planning once per class.

    Returns one result per request, in submission order.  Unbatchable
    requests (user preferences) fall back to plain ``negotiate`` in
    their slot, so a mixed stream needs no pre-sorting by the caller.
    """
    telemetry = manager.telemetry
    keys: "list[tuple | None]" = []
    groups: "dict[tuple, _ClassGroup]" = {}
    # Class keys fingerprint profile, cost-model and mapper state;
    # recomputing them for every member of a hot class costs a sizable
    # fraction of a commitment walk.  Profiles and clients are frozen,
    # and ``requests`` keeps every referenced object alive for the
    # duration of this call, so identity-keyed memoisation is sound.
    key_memo: "dict[tuple, tuple | None]" = {}
    for request in requests:
        memo_key = (
            request.document_id,
            id(request.profile),
            id(request.client),
            request.policy,
            request.guarantee,
            request.max_offers,
        )
        if memo_key in key_memo:
            key = key_memo[memo_key]
        else:
            key = request_class_key(manager, request)
            key_memo[memo_key] = key
        keys.append(key)
        if key is None:
            continue
        group = groups.get(key)
        if group is None:
            groups[key] = _ClassGroup(key=key, representative=request)
        else:
            group.size += 1

    plans: "dict[tuple, _ClassPlan]" = {}
    for key, group in groups.items():
        request = group.representative
        plan = manager.plan(
            request.document,
            request.profile,
            request.client,
            policy=request.policy,
            guarantee=request.guarantee,
            max_offers=request.max_offers,
        )
        offers = None
        if plan.offers is not None:
            offers = _ReplayableStream(plan.offers)
        plans[key] = _ClassPlan(plan=plan, offers=offers)
        telemetry.count("batch.plans")
        telemetry.observe("batch.class_size", float(group.size))

    results: "list[NegotiationResult]" = []
    for request, key in zip(requests, keys):
        if key is None:
            result = manager.negotiate(
                request.document,
                request.profile,
                request.client,
                policy=request.policy,
                guarantee=request.guarantee,
                max_offers=request.max_offers,
            )
        else:
            class_plan = plans[key]
            if class_plan.members_walked:
                telemetry.count("batch.coalesced", site="batch")
            class_plan.members_walked += 1
            result = manager.complete(
                class_plan.member_plan(),
                request.profile,
                request.client,
                guarantee=request.guarantee,
            )
            manager.record_outcome(result)
        results.append(result)
        if after_each is not None:
            after_each(request, result)
    return results
