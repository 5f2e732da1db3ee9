"""Best-first streaming classification of the offer product space.

:func:`repro.core.classification.classify_space` sorts the *entire*
feasible product space before step 5 walks it, yet the commitment walk
typically touches only the first handful of offers.  Both
classification parameters are separable across monomedia axes — the
OIF is a sum of per-axis contributions minus the cost term, the SNS is
the max of per-axis levels — so the classified order can be produced
lazily with the classic k-largest-sums frontier search over per-axis
sorted contribution arrays, materialising only the offers actually
consumed.

**Exact order equivalence.**  The vectorized path orders by
``lexsort((index, -oif, sns))`` where ``oif`` is a float computed in a
fixed operation order.  To reproduce that order bit-for-bit the stream
*recomputes* each candidate's OIF with the exact same operation
sequence as the numpy broadcast (left-to-right sum of per-axis QoS
importances, then one cost subtraction on the exact integer cents
total) and uses ``(-oif, flat_index)`` as the heap key.  The per-axis
sorted contributions only steer *which* candidates enter the frontier;
the yield order is decided by the recomputed key.  A two-phase pop
(children are pushed before their parent is re-offered for yielding)
absorbs the one-ulp inversions that different float association orders
can introduce between a parent and its lattice children.

The SNS-primary policies are layered on top: the OIF-descending stream
is partitioned on the fly, DESIRABLE offers yielded immediately and
lower bands deferred (as cheap index tuples, not materialised offers)
until the stream drains — which is exactly the lexsort order.

This is the default steps-3–4 path of every negotiation.  Streaming
requires separable scores; a non-trivial preference ``offer_bonus`` is
per-offer and breaks separability, so those requests fall back to the
vectorized full sort (see ``QoSManager._plan_steps``).
"""

from __future__ import annotations

import heapq
from typing import Iterator, Sequence

from .classification import (
    ClassificationPolicy,
    ClassifiedOffer,
    _axis_levels,
)
from .enumeration import OfferSpace, VariantChoice
from .importance import ImportanceProfile
from .profiles import UserProfile
from .status import StaticNegotiationStatus

__all__ = ["stream_classified"]


def _suffix_radices(sizes: Sequence[int]) -> list[int]:
    """Mixed-radix place values matching ``OfferSpace.offer_at`` (last
    axis varies fastest)."""
    out = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        out[i] = out[i + 1] * sizes[i + 1]
    return out


def _oif_descending(
    axes: Sequence[Sequence[VariantChoice]],
    importance: ImportanceProfile,
    copyright_cents: int,
) -> Iterator[tuple[int, tuple[int, ...], float, int]]:
    """Yield ``(flat_index, original_digits, oif, total_cents)`` over
    the whole product space in exact ``(-oif, flat_index)`` order.

    Frontier search over per-axis contribution-sorted variant orders:
    the successor lattice guarantees that whenever a candidate is
    yielded, every candidate with a larger real-valued OIF has already
    been yielded, and the recomputed float key settles rounding ties
    the same way the vectorized lexsort does.
    """
    k = len(axes)
    sizes = [len(axis) for axis in axes]
    radices = _suffix_radices(sizes)
    cpd = importance.cost_per_dollar
    qimp: list[list[float]] = [
        [importance.qos_importance(choice.presented) for choice in axis]
        for axis in axes
    ]
    cents: list[list[int]] = [
        [choice.cost_cents for choice in axis] for axis in axes
    ]
    # Per-axis variant order by descending contribution, original index
    # ascending on ties (mirrors the stability of the lexsort).
    orders: list[list[int]] = []
    for i in range(k):
        contrib = [
            qimp[i][j] - cpd * (cents[i][j] / 100.0) for j in range(sizes[i])
        ]
        orders.append(
            sorted(range(sizes[i]), key=lambda j: (-contrib[j], j))
        )

    def candidate(
        pos: tuple[int, ...],
    ) -> tuple[float, int, tuple[int, ...], int]:
        """(oif, flat, original digits, cents) of one frontier position.

        The OIF is computed with the numpy broadcast's operation order
        — left-to-right QoS sum, then a single cost subtraction on the
        exact cents total — so it is bit-identical to the vectorized
        value for the same offer.
        """
        qos = 0.0
        total_cents = copyright_cents
        flat = 0
        digits = [0] * k
        for i in range(k):
            j = orders[i][pos[i]]
            digits[i] = j
            qos = qos + qimp[i][j]
            total_cents += cents[i][j]
            flat += j * radices[i]
        oif = qos - cpd * (total_cents / 100.0)
        return oif, flat, tuple(digits), total_cents

    start = (0,) * k
    oif, flat, digits, total = candidate(start)
    # Heap entries: (-oif, flat, expanded, pos, digits, cents).  The
    # (−oif, flat) prefix is unique per candidate, so comparisons never
    # reach the remaining fields.
    heap: list[tuple[float, int, int, tuple[int, ...], tuple[int, ...], int]] = [
        (-oif, flat, 0, start, digits, total)
    ]
    seen: set[tuple[int, ...]] = {start}
    while heap:
        neg_oif, flat, expanded, pos, digits, total = heapq.heappop(heap)
        if expanded:
            yield flat, digits, -neg_oif, total
            continue
        # Two-phase pop: push the lattice children first, then re-offer
        # this node; it is only yielded once nothing in the frontier —
        # children included — beats its recomputed key.
        for i in range(k):
            if pos[i] + 1 < sizes[i]:
                child = pos[:i] + (pos[i] + 1,) + pos[i + 1 :]
                if child not in seen:
                    seen.add(child)
                    c_oif, c_flat, c_digits, c_total = candidate(child)
                    heapq.heappush(
                        heap, (-c_oif, c_flat, 0, child, c_digits, c_total)
                    )
        heapq.heappush(heap, (neg_oif, flat, 1, pos, digits, total))


def stream_classified(
    space: OfferSpace,
    profile: UserProfile,
    importance: ImportanceProfile,
    *,
    policy: ClassificationPolicy = ClassificationPolicy.SNS_PRIMARY,
) -> Iterator[ClassifiedOffer]:
    """Yield the offer space's classified offers lazily, best first, in
    exactly the order ``classify_space`` would return them.

    Offers are materialised one at a time as they are yielded; deferred
    lower-SNS candidates are buffered as index tuples only.
    """
    if space.is_empty:
        return
    axes = [space.axis(mid) for mid in space.monomedia_ids]
    level_axes = [
        _axis_levels([choice.presented for choice in axis], profile)
        for axis in axes
    ]
    max_cents = profile.max_cost.cents
    cost_gated = policy is ClassificationPolicy.COST_GATED
    pure_oif = policy is ClassificationPolicy.PURE_OIF

    def materialise(
        flat: int, level: int, oif: float, affordable: bool
    ) -> ClassifiedOffer:
        return ClassifiedOffer(
            offer=space.offer_at(flat),
            sns=StaticNegotiationStatus(level),
            oif=oif,
            affordable=affordable,
        )

    # SNS-primary delivery: DESIRABLE offers stream through unchanged;
    # ACCEPTABLE/CONSTRAINT arrive in (−oif, index) order and are held
    # back until the stream drains, reproducing the lexsort's SNS bands.
    deferred: tuple[
        list[tuple[int, int, float, bool]], list[tuple[int, int, float, bool]]
    ] = ([], [])
    for flat, digits, oif, total_cents in _oif_descending(
        axes, importance, space.copyright_cents
    ):
        level = max(int(level_axes[i][j]) for i, j in enumerate(digits))
        affordable = total_cents <= max_cents
        # DESIRABLE additionally requires the cost bound (classify_space
        # applies the same demotion before ordering).
        if level == 0 and not affordable:
            level = 1
        if cost_gated and not affordable:
            level = 2
        if pure_oif or level == 0:
            yield materialise(flat, level, oif, affordable)
        else:
            deferred[level - 1].append((flat, level, oif, affordable))
    for bucket in deferred:
        for flat, level, oif, affordable in bucket:
            yield materialise(flat, level, oif, affordable)
