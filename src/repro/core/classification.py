"""Classification of system offers (paper §5).

Each feasible offer gets two classification parameters (§4 step 3):

* its **static negotiation status** — DESIRABLE / ACCEPTABLE /
  CONSTRAINT, "a simple comparison between the QoS associated with the
  offer and the user profile" (§5.2.1);
* its **overall importance factor** — ``OIF = QoS_importance −
  cost_importance`` (§5.2.2).

§4 step 4 then sorts: "we use the static negotiation status as primary
classification parameter, and the OIF as the secondary classification
parameter" (§5.2.2(c)).  That is :data:`ClassificationPolicy.SNS_PRIMARY`,
the default.  Two additional policies are provided:

* ``PURE_OIF`` — order by OIF alone.  The paper's own example (3) in
  §5.2.2 prints this order (see DESIGN.md: with SNS primary, offer4 —
  the only ACCEPTABLE offer — would sort first, yet the paper lists it
  last); implementing both makes the discrepancy reproducible.
* ``COST_GATED`` — like SNS_PRIMARY, but an offer whose cost exceeds
  the user's maximum is demoted to CONSTRAINT, realising §5.2.2(c)'s
  "at first we consider only the offers which satisfy the cost and the
  QoS requested by the user" as a status rather than a scan order.

Two implementations are provided: a scalar one (reference semantics,
offer objects in hand) and a vectorized one over an
:class:`~repro.core.enumeration.OfferSpace` that classifies the whole
product space with numpy and only materialises the offers it returns.
They are property-tested to agree.  Negotiation itself streams the
classified offers best first (:mod:`repro.core.stream`); the vectorized
full sort is its fallback for non-separable preference bonuses and the
reference it is tested against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..documents.quality import MediaQoS
from ..util.errors import OfferError, ValidationError
from ..util.units import Money
from .enumeration import OfferSpace
from .importance import ImportanceProfile
from .offers import SystemOffer
from .profiles import MMProfile, UserProfile
from .status import StaticNegotiationStatus

__all__ = [
    "ClassificationPolicy",
    "ClassificationArrays",
    "ClassifiedOffer",
    "compute_sns",
    "check_top_k",
    "classify_offer",
    "classify_offers",
    "classify_arrays",
    "classify_arrays_batch",
    "classify_space",
    "apply_offer_bonus",
    "MAX_VECTOR_OFFERS",
]

MAX_VECTOR_OFFERS = 4_000_000
"""Safety ceiling for the vectorized product-space classification."""


class ClassificationPolicy(enum.Enum):
    SNS_PRIMARY = "sns-primary"
    PURE_OIF = "pure-oif"
    COST_GATED = "cost-gated"


@dataclass(frozen=True, slots=True)
class ClassifiedOffer:
    """A system offer with its §4-step-3 classification parameters."""

    offer: SystemOffer
    sns: StaticNegotiationStatus
    oif: float
    affordable: bool

    @property
    def satisfies_user(self) -> bool:
        """Whether this offer meets both the QoS and the cost the user
        requested — the §4 step 5 acceptance test ("the best system
        offer that satisfies the QoS/cost requested by the user")."""
        return self.sns.satisfies_user and self.affordable

    def __str__(self) -> str:
        return (
            f"{self.offer.offer_id}: {self.sns} OIF={self.oif:g} "
            f"cost={self.offer.cost}"
        )


def compute_sns(offer: SystemOffer, profile: UserProfile) -> StaticNegotiationStatus:
    """§5.2.1: compare the offer against the user profile.

    DESIRABLE satisfies the *full* desired profile — QoS and cost: the
    paper's own example classifies offer4, whose QoS equals the desired
    QoS but whose 5 $ price exceeds the 4 $ maximum, as ACCEPTABLE, so
    the desired level must include the cost bound.  ACCEPTABLE is the
    pure QoS comparison against the worst-acceptable values (offer4
    stays ACCEPTABLE despite its price).
    """
    if offer.qos_satisfies(profile.desired) and offer.cost_within(profile.max_cost):
        return StaticNegotiationStatus.DESIRABLE
    if offer.qos_satisfies(profile.worst):
        return StaticNegotiationStatus.ACCEPTABLE
    return StaticNegotiationStatus.CONSTRAINT


def classify_offer(
    offer: SystemOffer,
    profile: UserProfile,
    importance: ImportanceProfile,
    *,
    policy: ClassificationPolicy = ClassificationPolicy.SNS_PRIMARY,
) -> ClassifiedOffer:
    """Classification parameters of a single offer."""
    sns = compute_sns(offer, profile)
    affordable = offer.cost_within(profile.max_cost)
    if policy is ClassificationPolicy.COST_GATED and not affordable:
        sns = StaticNegotiationStatus.CONSTRAINT
    oif = importance.overall_importance(list(offer.qos_points()), offer.cost)
    return ClassifiedOffer(offer=offer, sns=sns, oif=oif, affordable=affordable)


def check_top_k(top_k: "int | None", *, parameter: str = "top_k") -> "int | None":
    """Validate a best-first truncation bound.

    ``None`` means "no bound".  Anything below 1 is a caller error: a
    zero bound used to be clamped silently, which made
    ``negotiate(max_offers=0)`` report FAILEDTRYLATER with zero
    attempts instead of surfacing the bad argument.
    """
    if top_k is None:
        return None
    value = int(top_k)
    if value < 1:
        raise ValidationError(
            f"{parameter} must be at least 1 (got {top_k!r}); "
            f"pass None for an unbounded classification"
        )
    return value


def _sort_key(
    policy: ClassificationPolicy,
) -> "Callable[[ClassifiedOffer], tuple[float, ...]]":
    if policy is ClassificationPolicy.PURE_OIF:
        return lambda item: (-item.oif,)
    return lambda item: (int(item.sns), -item.oif)


def classify_offers(
    offers: Iterable[SystemOffer],
    profile: UserProfile,
    importance: ImportanceProfile,
    *,
    policy: ClassificationPolicy = ClassificationPolicy.SNS_PRIMARY,
) -> list[ClassifiedOffer]:
    """§4 step 4 (scalar reference): best offer first.

    The sort is stable, so equal-key offers keep enumeration order.
    """
    classified = [
        classify_offer(offer, profile, importance, policy=policy)
        for offer in offers
    ]
    classified.sort(key=_sort_key(policy))
    return classified


# ---------------------------------------------------------------------------
# vectorized product-space classification
# ---------------------------------------------------------------------------

def _axis_levels(
    presented: Sequence[MediaQoS], profile: UserProfile
) -> np.ndarray:
    """Per-variant SNS levels of one axis: 0 desirable / 1 acceptable /
    2 constraint relative to the profile bounds of its medium."""
    levels = np.empty(len(presented), dtype=np.int8)
    for i, qos in enumerate(presented):
        desired = profile.desired.qos_for(qos.medium)
        worst = profile.worst.qos_for(qos.medium)
        if desired is None or qos.satisfies(desired):
            levels[i] = 0
        elif worst is None or qos.satisfies(worst):
            levels[i] = 1
        else:
            levels[i] = 2
    return levels


@dataclass(frozen=True)
class ClassificationArrays:
    """The vectorized §4-step-3/4 products over a whole offer space.

    ``order`` lists flat product indices best-first; the other arrays
    are indexed by flat product index, and :meth:`materialize` turns
    a prefix of the order into classified offers.
    """

    order: np.ndarray
    sns_levels: np.ndarray
    oif: np.ndarray
    affordable: np.ndarray

    def materialize(
        self, space: OfferSpace, top_k: "int | None" = None
    ) -> list[ClassifiedOffer]:
        """Turn the best-first index order into classified offers,
        materialising only the first ``top_k`` (all when None)."""
        order = self.order
        if top_k is not None:
            order = order[: int(top_k)]
        results: list[ClassifiedOffer] = []
        for flat in order:
            offer = space.offer_at(int(flat))
            results.append(
                ClassifiedOffer(
                    offer=offer,
                    sns=StaticNegotiationStatus(int(self.sns_levels[flat])),
                    oif=float(self.oif[flat]),
                    affordable=bool(self.affordable[flat]),
                )
            )
        return results


def classify_arrays(
    space: OfferSpace,
    profile: UserProfile,
    importance: ImportanceProfile,
    *,
    policy: ClassificationPolicy = ClassificationPolicy.SNS_PRIMARY,
) -> ClassificationArrays:
    """Vectorized §4 steps 3–4 over the whole product space.

    Exploits the separability of both parameters across monomedia:
    the offer OIF is a sum of per-axis contributions minus the cost
    term, and the offer SNS is the max of per-axis levels.
    """
    if space.is_empty:
        raise OfferError("cannot classify an empty offer space")
    count = space.offer_count
    if count > MAX_VECTOR_OFFERS:
        raise OfferError(
            f"offer space has {count} offers, above the vectorization "
            f"ceiling of {MAX_VECTOR_OFFERS}; prune variants first"
        )

    axes = [space.axis(mid) for mid in space.monomedia_ids]
    sizes = [len(axis) for axis in axes]
    k = len(sizes)

    def _expand(per_axis: "list[np.ndarray]", dtype) -> np.ndarray:
        """Broadcast per-axis vectors over the product space and sum."""
        total = np.zeros(sizes, dtype=dtype)
        for dim, values in enumerate(per_axis):
            shape = [1] * k
            shape[dim] = sizes[dim]
            total = total + values.reshape(shape)
        return total.reshape(-1)

    importance_axes = [
        np.array(
            [importance.qos_importance(choice.presented) for choice in axis],
            dtype=np.float64,
        )
        for axis in axes
    ]
    cents_axes = [
        np.array([choice.cost_cents for choice in axis], dtype=np.int64)
        for axis in axes
    ]
    level_axes = [
        _axis_levels([choice.presented for choice in axis], profile)
        for axis in axes
    ]

    qos_importance = _expand(importance_axes, np.float64)
    cents = _expand(cents_axes, np.int64) + space.copyright_cents
    cost_dollars = cents.astype(np.float64) / 100.0
    oif = qos_importance - importance.cost_per_dollar * cost_dollars

    level_total = np.zeros(sizes, dtype=np.int8)
    for dim, levels in enumerate(level_axes):
        shape = [1] * k
        shape[dim] = sizes[dim]
        level_total = np.maximum(level_total, levels.reshape(shape))
    sns_levels = level_total.reshape(-1)

    affordable = cents <= profile.max_cost.cents
    # DESIRABLE additionally requires the cost bound (see compute_sns):
    # QoS-desirable but unaffordable offers demote to ACCEPTABLE.
    sns_levels = np.where(
        (sns_levels == 0) & ~affordable, np.int8(1), sns_levels
    )
    if policy is ClassificationPolicy.COST_GATED:
        sns_levels = np.where(affordable, sns_levels, np.int8(2))

    index = np.arange(count)
    if policy is ClassificationPolicy.PURE_OIF:
        order = np.lexsort((index, -oif))
    else:
        order = np.lexsort((index, -oif, sns_levels))

    return ClassificationArrays(
        order=order, sns_levels=sns_levels, oif=oif, affordable=affordable
    )


def classify_arrays_batch(
    space: OfferSpace,
    members: "Sequence[tuple[UserProfile, ImportanceProfile]]",
    *,
    policy: ClassificationPolicy = ClassificationPolicy.SNS_PRIMARY,
) -> "list[ClassificationArrays]":
    """:func:`classify_arrays` for each ``(profile, importance)`` member
    over one shared offer space.  No planning path calls it; the name
    stays because the perfbench tracer wraps it."""
    return [
        classify_arrays(space, profile, importance, policy=policy)
        for profile, importance in members
    ]


def classify_space(
    space: OfferSpace,
    profile: UserProfile,
    importance: ImportanceProfile,
    *,
    policy: ClassificationPolicy = ClassificationPolicy.SNS_PRIMARY,
    top_k: "int | None" = None,
) -> list[ClassifiedOffer]:
    """Classify the entire offer space vectorized; return the ordered
    (best-first) classified offers, materialising only ``top_k`` of
    them (all when ``top_k`` is None)."""
    top_k = check_top_k(top_k)
    if space.is_empty:
        return []
    arrays = classify_arrays(space, profile, importance, policy=policy)
    return arrays.materialize(space, top_k)


def apply_offer_bonus(
    classified: "list[ClassifiedOffer]",
    bonus: "Callable[[SystemOffer], float]",
    *,
    policy: ClassificationPolicy = ClassificationPolicy.SNS_PRIMARY,
) -> "list[ClassifiedOffer]":
    """Re-rank with an additive OIF adjustment per offer.

    ``bonus`` maps a :class:`SystemOffer` to a float (e.g. the server
    preference bonus of :mod:`repro.core.preferences`).  SNS and
    affordability are untouched — preference refines the ordering, it
    does not redefine satisfaction.  The sort is stable, so zero-bonus
    inputs come back unchanged.
    """
    adjusted = [
        ClassifiedOffer(
            offer=c.offer,
            sns=c.sns,
            oif=c.oif + float(bonus(c.offer)),
            affordable=c.affordable,
        )
        for c in classified
    ]
    adjusted.sort(key=_sort_key(policy))
    return adjusted
