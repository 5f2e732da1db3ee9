"""Capability equivalence classes: what batches together and what must not.

The class key is the contract the whole batch engine rests on: two
requests share a key exactly when every input steps 1–4 read is
structurally equal, and everything identity-like (client id, access
point, profile name, caller tag) is excluded by construction.
"""

from dataclasses import replace

import pytest

from repro.batch import BatchRequest, request_class_key
from repro.client.machine import ClientMachine
from repro.core import ProfileManager
from repro.core.classification import ClassificationPolicy
from repro.core.preferences import UserPreferences
from repro.documents.media import ColorMode
from repro.network.transport import GuaranteeType
from repro.perf.cache import NegotiationCache


@pytest.fixture
def profile():
    return ProfileManager().get("balanced")


def make_request(manager, profile, client, **kwargs):
    return request_class_key(
        manager, BatchRequest("doc.test", profile, client, **kwargs)
    )


@pytest.fixture
def base_key(manager, profile, client):
    return make_request(manager, profile, client)


class TestIdentityExclusion:
    def test_client_identity_is_excluded(self, manager, profile, client, base_key):
        other = ClientMachine("bob", access_point="server-a-net")
        assert make_request(manager, profile, other) == base_key

    def test_profile_identity_is_excluded(self, manager, profile, client, base_key):
        renamed = replace(profile, name="balanced-copy")
        assert make_request(manager, renamed, client) == base_key

    def test_tag_is_excluded(self, manager, profile, client, base_key):
        tagged = make_request(manager, profile, client, tag="session-17")
        assert tagged == base_key

    def test_structurally_equal_copies_share_a_class(
        self, manager, profile, client, base_key
    ):
        # A rebuilt profile and a rebuilt client: no shared identity at
        # all, yet the same capability class.
        rebuilt_profile = ProfileManager().get("balanced")
        rebuilt_client = ClientMachine("carol")
        assert rebuilt_profile is not profile
        assert make_request(manager, rebuilt_profile, rebuilt_client) == base_key


class TestCapabilitySplits:
    def test_client_capability_splits(self, manager, profile, base_key):
        grey = ClientMachine("alice", screen_color=ColorMode.BLACK_AND_WHITE)
        assert make_request(manager, profile, grey) != base_key

    def test_profile_bounds_split(self, manager, profile, client, base_key):
        premium = ProfileManager().get("premium")
        assert make_request(manager, premium, client) != base_key

    def test_policy_splits(self, manager, profile, client, base_key):
        assert (
            make_request(
                manager, profile, client, policy=ClassificationPolicy.PURE_OIF
            )
            != base_key
        )

    def test_guarantee_splits(self, manager, profile, client, base_key):
        assert (
            make_request(
                manager, profile, client, guarantee=GuaranteeType.BEST_EFFORT
            )
            != base_key
        )

    def test_walk_bounds_split(self, manager, profile, client, base_key):
        assert make_request(manager, profile, client, max_offers=3) != base_key

    def test_document_splits(self, manager, profile, client, document, base_key):
        from repro.documents import make_news_article

        manager.database.insert_document(make_news_article("doc.other"))
        other = request_class_key(
            manager, BatchRequest("doc.other", profile, client)
        )
        assert other != base_key


class TestUnbatchable:
    def test_preferences_are_singletons(self, manager, profile, client):
        quirky = replace(
            profile,
            preferences=UserPreferences(server_preference={"server-a": 1.0}),
        )
        assert make_request(manager, quirky, client) is None


class TestCacheKeyAlignment:
    def test_class_key_extends_the_space_key(self, manager, profile, client):
        """The class key's prefix is exactly the negotiation cache's
        space key — that alignment is what makes the per-class plan a
        pure cache interaction."""
        key = make_request(manager, profile, client)
        space_key = NegotiationCache.space_key(
            database=manager.database,
            document_id="doc.test",
            client=client,
            guarantee=manager.guarantee,
            cost_model=manager.cost_model,
            mapper=manager.mapper,
        )
        assert key[: len(space_key)] == space_key
