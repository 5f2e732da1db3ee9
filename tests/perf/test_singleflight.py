"""Single-flight misses: N concurrent tasks at one cold key, one miss.

The protocol under test (:meth:`_LRUStore.begin` / ``complete`` /
``abandon``): the first task to miss a key becomes the owner and
computes; cooperative tasks arriving while the owner is suspended see
``WAIT``, yield, and re-poll; the owner's ``complete`` publishes for
everyone.  The regression this file pins down: concurrent misses used
to each count a miss and each compute.
"""

import pytest

from repro.perf.cache import (
    HIT,
    OWNER,
    SPACES,
    WAIT,
    NegotiationCache,
    reset_shared_cache,
    shared_cache,
)
from repro.util.errors import ValidationError


@pytest.fixture
def store():
    return NegotiationCache().spaces


class TestProtocol:
    def test_cold_key_makes_an_owner(self, store):
        state, value = store.begin("k")
        assert (state, value) == (OWNER, None)
        assert store._stats.misses[SPACES] == 1

    def test_second_task_waits_without_counting(self, store):
        store.begin("k")
        state, value = store.begin("k")
        assert (state, value) == (WAIT, None)
        assert store._stats.misses[SPACES] == 1
        assert store._stats.hits[SPACES] == 0

    def test_complete_publishes_to_waiters(self, store):
        store.begin("k")
        store.complete("k", "built")
        state, value = store.begin("k")
        assert (state, value) == (HIT, "built")

    def test_abandon_promotes_the_next_beginner(self, store):
        store.begin("k")
        store.abandon("k")
        state, _ = store.begin("k")
        assert state == OWNER
        # The failed flight and the retry are two honest misses.
        assert store._stats.misses[SPACES] == 2

    def test_lookup_abandons_on_compute_failure(self, store):
        def explode():
            raise ValidationError("compute failed")

        with pytest.raises(ValidationError):
            store.lookup("k", explode)
        # The flight is closed: a retry owns the key instead of waiting
        # on a corpse forever.
        state, _ = store.begin("k")
        assert state == OWNER

    def test_synchronous_waiter_computes_privately(self, store):
        """A synchronous caller that finds the key in flight cannot
        yield; it computes for itself without touching counters or
        store — the owner still publishes."""
        store.begin("k")
        value = store.lookup("k", lambda: "private")
        assert value == "private"
        assert store._stats.misses[SPACES] == 1
        assert len(store) == 0


class TestConcurrentColdKey:
    def test_n_tasks_one_cold_key_one_miss(self, store):
        """The headline regression: N cooperative tasks racing one cold
        key cost exactly one miss and one build."""
        builds = []

        def task(name):
            while True:
                state, value = store.begin("hot-key")
                if state == HIT:
                    return value
                if state == OWNER:
                    # Simulate the owner being suspended mid-compute:
                    # yield once before publishing, so every other task
                    # polls at least once while the flight is open.
                    yield
                    builds.append(name)
                    return store.complete("hot-key", f"built-by-{name}")
                yield  # WAIT: yield and re-poll.

        tasks = [task(f"t{i}") for i in range(8)]
        finished = {}
        while len(finished) < len(tasks):
            for index, runner in enumerate(tasks):
                if index in finished:
                    continue
                try:
                    next(runner)
                except StopIteration as stop:
                    finished[index] = stop.value
        assert builds == ["t0"]
        assert set(finished.values()) == {"built-by-t0"}
        assert store._stats.misses[SPACES] == 1
        assert store._stats.hits[SPACES] == len(tasks) - 1


class TestSharedAccessor:
    def test_shared_cache_is_a_singleton(self):
        reset_shared_cache()
        try:
            first = shared_cache()
            assert shared_cache() is first
        finally:
            reset_shared_cache()

    def test_reset_returns_the_old_instance(self):
        reset_shared_cache()
        try:
            cache = shared_cache()
            cache.spaces.begin("warm")
            cache.spaces.complete("warm", object())
            old = reset_shared_cache()
            assert old is cache
            assert old.stats.misses[SPACES] == 1
            assert shared_cache() is not cache
        finally:
            reset_shared_cache()


class TestServiceBurst:
    def test_burst_of_equivalent_requests_costs_one_miss(self):
        """End to end through the concurrent service: a same-tick burst
        of capability-equivalent requests against a cold shared cache
        misses the spaces store exactly once."""
        from repro.core import ProfileManager
        from repro.service import NegotiationService, ServicePolicy
        from repro.sim import ScenarioSpec, build_scenario

        scenario = build_scenario(
            ScenarioSpec(server_count=2, client_count=3, document_count=1),
            telemetry_seed=0,
            use_cache=True,
        )
        service = NegotiationService(
            scenario.manager,
            scenario.loop,
            policy=ServicePolicy(hold_s=1.0),
        )
        profile = ProfileManager().get("balanced")
        clients = list(scenario.clients.values())
        document_id = scenario.document_ids()[0]
        for index in range(6):
            service.submit(
                document_id,
                profile,
                clients[index % len(clients)],
                label=f"n-{index}",
            )
        scenario.loop.run()
        assert service.unfinished() == []
        metrics = scenario.telemetry.metrics
        assert metrics.counter_value("cache.misses", store="spaces") == 1
