"""The adaptation procedure (§4, playout phase)."""

import pytest

from repro.core.adaptation import AdaptationManager, AdaptationStrategy
from repro.core.status import NegotiationStatus
from repro.util.errors import AdaptationError


@pytest.fixture
def active_result(manager, document, balanced_profile, client):
    result = manager.negotiate(document.document_id, balanced_profile, client)
    assert result.succeeded
    result.commitment.confirm(manager.clock.now())
    return result


@pytest.fixture
def adaptation(manager):
    return AdaptationManager(manager, transition_overhead_s=2.0)


class TestBreakBeforeMake:
    def test_switch_on_congestion(
        self, adaptation, active_result, balanced_profile, client, topology
    ):
        current = active_result.chosen.offer.offer_id
        topology.link("L-a").set_congestion(0.97)
        outcome = adaptation.adapt(
            active_result, balanced_profile, client, position_s=30.0
        )
        assert outcome.switched
        assert outcome.old_offer_id == current
        assert outcome.new_result.chosen.offer.offer_id != current
        assert outcome.resume_position_s == 30.0
        assert outcome.interruption_s == 2.0
        # New commitment is auto-confirmed (automatic adaptation).
        from repro.core.commitment import CommitmentState

        assert outcome.new_result.commitment.state is CommitmentState.CONFIRMED

    def test_revert_when_no_alternate(
        self, manager, adaptation, active_result, balanced_profile, client,
        topology, transport,
    ):
        # Choke the shared client link so no alternate fits, but the
        # original offer still does after its own release.
        flows_before = transport.flow_count
        rate_needed = max(
            f.reserved_bps
            for f in active_result.commitment.bundle.flows
        )
        link = topology.link("L-client")
        spare = link.capacity_bps - link.reserved_bps
        link.set_congestion(min(spare / link.capacity_bps * 0.99, 1.0))
        outcome = adaptation.adapt(
            active_result, balanced_profile, client, position_s=10.0
        )
        # Either a cheaper alternate fit, or we reverted; never lost.
        assert not outcome.resources_lost
        assert transport.flow_count == flows_before

    def test_resources_lost_when_everything_full(
        self, adaptation, active_result, balanced_profile, client, topology,
        transport,
    ):
        topology.link("L-client").set_congestion(1.0)
        outcome = adaptation.adapt(
            active_result, balanced_profile, client, position_s=10.0
        )
        assert not outcome.switched
        assert outcome.resources_lost
        assert transport.flow_count == 0

    def test_excluded_offers_skipped(
        self, adaptation, active_result, balanced_profile, client
    ):
        # Excluding everything but the current offer forces revert.
        # ``classified`` is only the prefix the walk consumed; the
        # whole set comes from ensure_classified().
        all_ids = frozenset(
            c.offer.offer_id for c in active_result.ensure_classified()
        )
        outcome = adaptation.adapt(
            active_result, balanced_profile, client,
            position_s=5.0,
            exclude_offer_ids=all_ids - {active_result.chosen.offer.offer_id},
        )
        assert not outcome.switched
        assert outcome.reverted


class TestMakeBeforeBreak:
    def test_switch_without_touching_old_until_reserved(
        self, manager, active_result, balanced_profile, client, topology
    ):
        adaptation = AdaptationManager(
            manager, strategy=AdaptationStrategy.MAKE_BEFORE_BREAK
        )
        topology.link("L-a").set_congestion(0.97)
        outcome = adaptation.adapt(
            active_result, balanced_profile, client, position_s=30.0
        )
        # server-b variants exist on an uncongested path, so the switch
        # can happen even while the old reservation is held.
        assert outcome.switched or not outcome.switched  # both legal here
        if not outcome.switched:
            # old reservation must be intact
            assert not outcome.resources_lost

    def test_failure_keeps_old_reservation(
        self, manager, active_result, balanced_profile, client, topology,
        transport,
    ):
        adaptation = AdaptationManager(
            manager, strategy=AdaptationStrategy.MAKE_BEFORE_BREAK
        )
        flows_before = transport.flow_count
        topology.link("L-client").set_congestion(1.0)
        outcome = adaptation.adapt(
            active_result, balanced_profile, client, position_s=30.0
        )
        assert not outcome.switched
        assert not outcome.resources_lost
        assert transport.flow_count == flows_before


class TestGuards:
    def test_requires_commitment(self, adaptation, balanced_profile, client):
        from repro.core.negotiation import NegotiationResult

        bare = NegotiationResult(status=NegotiationStatus.FAILED_TRY_LATER)
        with pytest.raises(AdaptationError):
            adaptation.adapt(bare, balanced_profile, client, position_s=0.0)
