"""The storm controller: wiring, wave buffering, class batching."""

from types import SimpleNamespace

import pytest

from repro.session.runtime import SessionRuntime
from repro.storm import StormController
from repro.util.errors import ValidationError


@pytest.fixture
def runtime(manager, loop):
    return SessionRuntime(manager, loop)


def stub_session(session_id, document_id, offer_id):
    """Just enough surface for the batching key computation."""
    return SimpleNamespace(
        session_id=session_id,
        current_offer_id=offer_id,
        result=SimpleNamespace(
            offer_space=SimpleNamespace(
                document=SimpleNamespace(document_id=document_id)
            )
        ),
    )


class TestAttachment:
    def test_takes_over_violation_handling(self, runtime):
        assert runtime.adaptation_enabled
        controller = StormController(runtime, seed=1)
        # The sweep must stop adapting per-session and hand victims
        # here instead.
        assert not runtime.adaptation_enabled
        assert runtime.on_violation == controller.on_violation

    def test_invalid_parameters(self, runtime):
        with pytest.raises(ValidationError):
            StormController(runtime, wave_delay_s=0.0)
        with pytest.raises(ValidationError):
            StormController(runtime, max_class_candidates=0)
        with pytest.raises(ValidationError):
            StormController(runtime, retry_budget=-1)
        with pytest.raises(ValidationError):
            StormController(runtime, jitter=2.0)


class TestWaveBuffering:
    def test_burst_schedules_one_wave(self, runtime, loop):
        controller = StormController(runtime, wave_delay_s=0.5, seed=1)
        for i in range(5):
            controller.on_violation(
                SimpleNamespace(session_id=f"session-{i}")
            )
        # One wave event for the whole burst, not one per violation.
        assert len(controller._pending) == 5
        assert controller._wave_scheduled
        loop.run()
        assert not controller._wave_scheduled
        assert controller._pending == {}

    def test_wave_skips_vanished_sessions(self, runtime, loop):
        controller = StormController(runtime, seed=1)
        controller.on_violation(SimpleNamespace(session_id="ghost"))
        loop.run()
        # Nothing to process: the session never existed in the runtime.
        assert controller.stats.waves == 0
        assert controller.stats.sessions_processed == 0

    def test_duplicate_violations_collapse(self, runtime, loop):
        controller = StormController(runtime, seed=1)
        for _ in range(3):
            controller.on_violation(SimpleNamespace(session_id="same"))
        assert len(controller._pending) == 1


class TestClassBatching:
    def test_groups_by_document_and_offer(self):
        sessions = [
            stub_session("s3", "doc.a", "offer-1"),
            stub_session("s1", "doc.a", "offer-1"),
            stub_session("s2", "doc.a", "offer-2"),
            stub_session("s4", "doc.b", "offer-1"),
        ]
        batches = StormController._batch_by_class(sessions)
        assert set(batches) == {
            ("doc.a", "offer-1"), ("doc.a", "offer-2"),
            ("doc.b", "offer-1"),
        }
        # Members are ordered by session id so waves replay identically.
        assert [
            s.session_id for s in batches[("doc.a", "offer-1")]
        ] == ["s1", "s3"]

    def test_missing_offer_space_still_batches(self):
        session = stub_session("s1", "doc.a", "offer-1")
        session.result.offer_space = None
        batches = StormController._batch_by_class([session])
        assert set(batches) == {("?", "offer-1")}


def stub_candidate(offer_id, servers=()):
    return SimpleNamespace(
        offer=SimpleNamespace(
            offer_id=offer_id,
            servers_used=lambda servers=frozenset(servers): servers,
        )
    )


class TestClassCandidates:
    """The fast-path candidate list of a capability class: the best
    alternates, those avoiding degraded servers first."""

    def classified_session(self, servers_of=None):
        servers_of = servers_of or {}
        session = stub_session("s1", "doc.a", "offer-1")
        candidates = [
            stub_candidate(offer_id, servers_of.get(offer_id, ()))
            for offer_id in ("offer-1", "offer-2", "offer-3")
        ]
        session.result.ensure_classified = lambda: candidates
        return session

    def test_current_offer_is_never_an_alternate(self, runtime):
        controller = StormController(runtime, seed=1)
        picked = controller._class_candidates(self.classified_session())
        assert [c.offer.offer_id for c in picked] == ["offer-2", "offer-3"]

    def test_candidates_follow_the_degraded_set(self, runtime, manager):
        controller = StormController(runtime, seed=1)
        degraded_id = next(iter(manager.committer.servers))
        session = self.classified_session({"offer-2": {degraded_id}})
        before = controller._class_candidates(session)
        manager.committer.servers[degraded_id].set_degradation(0.5)
        after = controller._class_candidates(session)
        # Each wave sees the degraded set as it is now.
        assert [c.offer.offer_id for c in before] == ["offer-2", "offer-3"]
        assert [c.offer.offer_id for c in after] == ["offer-3", "offer-2"]

    def test_degraded_servers_sort_behind_healthy(self, runtime, manager):
        controller = StormController(runtime, seed=1)
        degraded_id = next(iter(manager.committer.servers))
        manager.committer.servers[degraded_id].set_degradation(0.5)
        session = stub_session("s1", "doc.a", "offer-0")
        tainted = stub_candidate("offer-1", servers={degraded_id})
        healthy = stub_candidate("offer-2")
        session.result.ensure_classified = lambda: [tainted, healthy]
        picked = controller._class_candidates(session)
        assert [c.offer.offer_id for c in picked] == ["offer-2", "offer-1"]
