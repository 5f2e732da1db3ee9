"""Best-first offer streaming ≡ full classification (exact order)."""

import itertools

import pytest

from repro.client.decoder import DecoderBank
from repro.client.machine import ClientMachine
from repro.core.classification import (
    ClassificationPolicy,
    apply_offer_bonus,
    classify_space,
)
from repro.core.cost import default_cost_model
from repro.core.enumeration import build_offer_space
from repro.core.importance import default_importance
from repro.core.negotiation import negotiate_full_sort
from repro.core.preferences import UserPreferences
from repro.core.status import NegotiationStatus
from repro.core.stream import stream_classified
from repro.documents.builder import make_news_article


@pytest.fixture
def space():
    document = make_news_article("doc.stream")
    return build_offer_space(
        document, ClientMachine("c1"), default_cost_model()
    )


class TestStreamOrder:
    @pytest.mark.parametrize("policy", list(ClassificationPolicy))
    def test_exact_classified_order(self, space, balanced_profile, policy):
        importance = default_importance()
        streamed = list(
            stream_classified(
                space, balanced_profile, importance, policy=policy
            )
        )
        full = classify_space(
            space, balanced_profile, importance, policy=policy
        )
        assert len(streamed) == len(full) == space.offer_count
        for s, f in zip(streamed, full):
            assert s.offer.offer_id == f.offer.offer_id
            assert s.sns is f.sns
            assert s.affordable == f.affordable
            # Bit-identical, not approximately equal: the stream replays
            # the vectorized path's float operation order.
            assert s.oif == f.oif

    def test_lazy_prefix_no_full_drain(self, space, balanced_profile):
        # The whole point: taking the head must not enumerate the tail.
        head = list(
            itertools.islice(
                stream_classified(
                    space, balanced_profile, default_importance()
                ),
                3,
            )
        )
        full = classify_space(space, balanced_profile, default_importance())
        assert [c.offer.offer_id for c in head] == [
            c.offer.offer_id for c in full[:3]
        ]

    def test_empty_space_yields_nothing(self, balanced_profile):
        # Same contract as classify_space: an empty space classifies
        # to an empty ranking.
        document = make_news_article("doc.stream-empty")
        client = ClientMachine("bare", decoders=DecoderBank(()))
        space = build_offer_space(document, client, default_cost_model())
        assert list(
            stream_classified(space, balanced_profile, default_importance())
        ) == []


class TestNegotiationModes:
    """``negotiate`` (the best-first stream, or the full sort when a
    preference bonus breaks separability) against the full-sort
    reference procedure."""

    def _signature(self, result):
        return (
            result.status,
            result.chosen.offer.offer_id if result.chosen else None,
            result.attempts,
        )

    # "stream": a profile without preferences; "auto": explicit but
    # trivial preferences, which pass the separability check and take
    # the best-first stream too.
    @pytest.mark.parametrize("mode", ["stream", "auto"])
    def test_same_outcome_as_full(self, manager, document, balanced_profile,
                                  client, mode):
        from dataclasses import replace

        profile = balanced_profile
        if mode == "auto":
            profile = replace(balanced_profile, preferences=UserPreferences())
            assert profile.preferences.is_trivial
        full = negotiate_full_sort(
            manager, document.document_id, profile, client
        )
        full.commitment.release()
        streamed = manager.negotiate(document.document_id, profile, client)
        assert self._signature(streamed) == self._signature(full)
        streamed.commitment.release()

    def test_ensure_classified_completes_ranking(self, manager, document,
                                                 balanced_profile, client):
        streamed = manager.negotiate(
            document.document_id, balanced_profile, client
        )
        space = streamed.offer_space
        ranking = classify_space(space, balanced_profile, default_importance())
        # The result holds only the consumed prefix until drained.
        assert len(streamed.classified) < len(ranking)
        drained = streamed.ensure_classified()
        assert [c.offer.offer_id for c in drained] == [
            c.offer.offer_id for c in ranking
        ]
        streamed.commitment.release()

    def test_nontrivial_preferences_fall_back_to_full(
        self, manager, document, balanced_profile, client
    ):
        # offer_bonus makes scores non-separable per axis; negotiate
        # must take the full-sort path and still agree with the
        # reference, ranking included.
        from dataclasses import replace

        biased = replace(
            balanced_profile,
            preferences=UserPreferences(
                server_preference={"server-a": 0.5}
            ),
        )
        full = negotiate_full_sort(
            manager, document.document_id, biased, client
        )
        full.commitment.release()
        fallback = manager.negotiate(document.document_id, biased, client)
        assert self._signature(fallback) == self._signature(full)
        bonus = biased.preferences.offer_bonus
        expected = apply_offer_bonus(
            classify_space(
                fallback.offer_space, biased, default_importance()
            ),
            bonus,
        )
        assert [c.offer.offer_id for c in fallback.ensure_classified()] == [
            c.offer.offer_id for c in expected
        ]
        fallback.commitment.release()

    def test_try_later_signature_matches(self, manager, document,
                                         balanced_profile, client, topology):
        topology.link("L-client").set_congestion(1.0)
        full = negotiate_full_sort(
            manager, document.document_id, balanced_profile, client
        )
        streamed = manager.negotiate(
            document.document_id, balanced_profile, client
        )
        assert full.status is NegotiationStatus.FAILED_TRY_LATER
        assert self._signature(streamed) == self._signature(full)
