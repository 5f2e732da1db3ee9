"""The batch engine end to end: byte-exact with the sequential procedure.

``negotiate_batch`` must be observably identical to ``[negotiate(r) for
r in requests]`` — per-request ``(status, offer id, attempts)``, in
submission order, against the same evolving ledgers — while planning
once per capability class.
"""

from dataclasses import replace

import pytest

from repro.batch import BatchRequest, negotiate_batch
from repro.core import ProfileManager
from repro.core.negotiation import negotiate_full_sort
from repro.core.preferences import UserPreferences
from repro.core.status import NegotiationStatus
from repro.sim import ScenarioSpec, build_scenario

SPEC = ScenarioSpec(server_count=2, client_count=3, document_count=3)


def signature(result):
    return (
        result.status.name,
        result.chosen.offer.offer_id if result.chosen else None,
        result.attempts,
    )


def make_requests(scenario, profiles=("balanced", "premium"), repeat=3):
    """A head-heavy mix: every (document, profile) pair requested by
    ``repeat`` distinct clients — distinct identities, one capability
    class per pair."""
    manager = ProfileManager()
    clients = list(scenario.clients.values())
    requests = []
    for document_id in scenario.document_ids():
        for name in profiles:
            profile = manager.get(name)
            for index in range(repeat):
                requests.append(
                    BatchRequest(
                        document=document_id,
                        profile=profile,
                        client=clients[index % len(clients)],
                        tag=f"{document_id}:{name}:{index}",
                    )
                )
    return requests


def run_sequential(scenario, requests, release=False, reference=False):
    """The requests one by one, through plain ``negotiate`` or the
    full-sort reference procedure."""
    manager = scenario.manager
    signatures = []
    for request in requests:
        args = (request.document, request.profile, request.client)
        if reference:
            result = negotiate_full_sort(
                manager, *args, max_offers=request.max_offers
            )
        else:
            result = manager.negotiate(*args, max_offers=request.max_offers)
        signatures.append(signature(result))
        if release and result.commitment is not None:
            result.commitment.reject(scenario.manager.clock.now())
    return signatures


def run_batched(scenario, requests, release=False):
    def after_each(request, result):
        if release and result.commitment is not None:
            result.commitment.reject(scenario.manager.clock.now())

    results = negotiate_batch(
        scenario.manager, requests, after_each=after_each
    )
    return [signature(result) for result in results]


class TestEquivalence:
    @pytest.mark.parametrize("use_cache", [False, True])
    def test_batched_equals_sequential_accumulating(self, use_cache):
        """No releases: reservations pile up, later walks see scarcer
        ledgers, and the batched walk must see exactly the same ones."""
        sequential = build_scenario(SPEC)
        batched = build_scenario(SPEC, use_cache=use_cache)
        requests = make_requests(sequential)
        assert run_batched(batched, requests) == run_sequential(
            sequential, requests
        )

    @pytest.mark.parametrize("sequential_path", ["full", "stream"])
    def test_batched_equals_sequential_steady_state(self, sequential_path):
        """Reject-after-each: every member walks pristine ledgers, the
        bench's configuration.  The batch must match both the full-sort
        reference and plain (streaming) ``negotiate``."""
        sequential = build_scenario(SPEC)
        batched = build_scenario(SPEC, use_cache=True)
        requests = make_requests(sequential)
        assert run_batched(batched, requests, release=True) == run_sequential(
            sequential, requests, release=True,
            reference=sequential_path == "full",
        )

    def test_mixed_modes_and_bounds(self):
        """Unbounded and ``max_offers``-bounded members of one
        (document, profile) pair form separate classes; each matches
        the full-sort reference."""
        sequential = build_scenario(SPEC)
        batched = build_scenario(SPEC)
        base = make_requests(sequential, repeat=2)
        requests = [
            replace(request, max_offers=2) if index % 3 == 1 else request
            for index, request in enumerate(base)
        ]
        expected = run_sequential(sequential, requests, reference=True)
        assert run_batched(batched, requests) == expected


class TestFallback:
    def test_unbatchable_requests_keep_their_slot(self):
        scenario = build_scenario(SPEC, telemetry_seed=0)
        profile = ProfileManager().get("balanced")
        quirky = replace(
            profile,
            preferences=UserPreferences(
                server_preference={"server-a": 1.0}
            ),
        )
        client = scenario.any_client()
        document_id = scenario.document_ids()[0]
        requests = [
            BatchRequest(document_id, profile, client, tag="plain-1"),
            BatchRequest(document_id, quirky, client, tag="quirky"),
            BatchRequest(document_id, profile, client, tag="plain-2"),
        ]
        results = negotiate_batch(scenario.manager, requests)
        assert len(results) == 3
        assert all(
            result.status is NegotiationStatus.SUCCEEDED
            for result in results
        )
        # Two batchable members → one plan; the preference request fell
        # back to plain negotiate in its slot and never joined a class.
        metrics = scenario.telemetry.metrics
        assert metrics.counter_value("batch.plans") == 1
        assert metrics.counter_value("batch.coalesced", site="batch") == 1


class TestAfterEach:
    def test_called_once_per_request_in_order(self):
        scenario = build_scenario(SPEC)
        requests = make_requests(scenario, repeat=2)
        seen = []

        def after_each(request, result):
            seen.append(request.tag)
            if result.commitment is not None:
                result.commitment.release()

        negotiate_batch(scenario.manager, requests, after_each=after_each)
        assert seen == [request.tag for request in requests]

    def test_runs_before_the_next_member_walks(self):
        """Releasing inside after_each must restore the ledgers before
        the next walk — so every member of a class lands on the same
        offer, which only holds if the callback really runs in between."""
        scenario = build_scenario(ScenarioSpec(server_count=1, client_count=1))

        def after_each(request, result):
            if result.commitment is not None:
                result.commitment.release()

        requests = make_requests(scenario, profiles=("balanced",), repeat=4)
        results = negotiate_batch(
            scenario.manager, requests, after_each=after_each
        )
        offers = {signature(result) for result in results[:4]}
        assert len(offers) == 1
        assert scenario.topology.total_reserved_bps() == 0.0


class TestOutcomeMetrics:
    def test_batched_run_records_the_sequential_metrics(self):
        """Batched and sequential runs leave equal outcome counters and
        attempt / classified-offer histograms in the registry."""
        sequential = build_scenario(SPEC, telemetry_seed=0)
        batched = build_scenario(SPEC, telemetry_seed=0, use_cache=True)
        requests = make_requests(sequential)
        run_sequential(sequential, requests, release=True)
        run_batched(batched, requests, release=True)

        def outcome_metrics(scenario):
            snapshot = scenario.telemetry.metrics.snapshot()
            return {
                "counters": {
                    key: value
                    for key, value in snapshot["counters"].items()
                    if key.startswith("negotiation.outcomes")
                },
                "histograms": {
                    name: snapshot["histograms"][name]
                    for name in (
                        "negotiation.attempts",
                        "negotiation.offers.classified",
                    )
                },
            }

        recorded = outcome_metrics(sequential)
        assert recorded["counters"]
        assert outcome_metrics(batched) == recorded
