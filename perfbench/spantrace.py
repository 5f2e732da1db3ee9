"""Wall-clock spans around the library's public layer entry points.

Traced runs only: :func:`install` wraps each entry point named in
:data:`TARGETS` with a shim that records a span (layer, name, start,
end, parent, request id) into a :class:`SpanRecorder` and bumps the
layer's counters.  Nothing here is imported by an untraced run, so the
end-to-end figures never carry shim overhead.

A span's *self time* is its duration minus the part of it that its
child spans cover (:func:`self_times`); a layer's self time is the sum
over its spans.  Only public entry points are wrapped, so work done in
private callbacks scheduled on the event loop lands in the self time of
the enclosing ``EventLoop.run`` span, the ``service`` layer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable

__all__ = [
    "SpanRecorder",
    "Target",
    "TARGETS",
    "LAYERS",
    "install",
    "self_times",
    "layer_self_ns",
]


class SpanRecorder:
    """Spans of one traced pass, kept in memory until :meth:`write`.

    A span is the tuple ``(span_id, parent_id, layer, name, start_ns,
    end_ns, request)``; spans are appended as they end, so children
    precede their parents.
    """

    def __init__(self, clock: Callable[[], int] = perf_counter_ns) -> None:
        self.clock = clock
        self.spans: "list[tuple]" = []
        self.counters: "Counter[str]" = Counter()
        self.caches: "dict[int, Any]" = {}
        self._stack: "list[tuple[int, Any, str]]" = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def new_request(self) -> str:
        return f"r{next(self._requests)}"

    def outer(self, layer: str) -> bool:
        """Is a call into ``layer`` entering it from another layer?"""
        return not self._stack or self._stack[-1][2] != layer

    def begin(self, layer: str, request: Any = None) -> tuple:
        span_id = next(self._ids)
        stack = self._stack
        if stack:
            parent, parent_request, _ = stack[-1]
        else:
            parent, parent_request = None, None
        if request is None:
            request = parent_request
        stack.append((span_id, request, layer))
        return span_id, parent, request, self.clock()

    def end(self, token: tuple, layer: str, name: str) -> None:
        span_id, parent, request, start = token
        end = self.clock()
        stack = self._stack
        if stack and stack[-1][0] == span_id:
            stack.pop()
        else:
            for position in range(len(stack) - 1, -1, -1):
                if stack[position][0] == span_id:
                    del stack[position]
                    break
        self.spans.append((span_id, parent, layer, name, start, end, request))

    def write(self, path) -> int:
        """Write every span as one JSON array per line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")))
                out.write("\n")
        return len(self.spans)


def self_times(spans) -> "dict[int, int]":
    """``{span_id: self time}``: each span's duration minus the union
    of its children's intervals, clipped to the span."""
    bounds: "dict[int, tuple[int, int]]" = {}
    children: "dict[int, list[tuple[int, int]]]" = defaultdict(list)
    for span_id, parent, _layer, _name, start, end, _request in spans:
        bounds[span_id] = (start, end)
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for span_id, (start, end) in bounds.items():
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            low = max(child_start, cursor)
            high = min(child_end, end)
            if high > low:
                covered += high - low
                cursor = high
        result[span_id] = (end - start) - covered
    return result


def layer_self_ns(spans) -> "dict[str, int]":
    """Summed self time per layer."""
    own = self_times(spans)
    totals: "dict[str, int]" = defaultdict(int)
    for span in spans:
        totals[span[2]] += own[span[0]]
    return dict(totals)


# -- shims --------------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One public entry point to wrap.

    ``where`` is ``module:Class.method`` or ``module:function``.  The
    ``count`` counter goes up once per call that enters the layer from
    outside (``every_call`` counts nested calls too); on those calls
    ``on_result`` sees the result and ``on_error`` names the counter a
    raised exception bumps.  ``returns`` is ``"iterator"`` or
    ``"generator"`` when the call hands back lazy work, whose every step
    is then a span of the same layer; ``yields`` names the counter each
    item of such an iterator bumps.  ``active`` is a predicate on ``self`` (a disabled telemetry hub is
    not telemetry work); ``request`` says how the call names its
    request (``"new"`` id, or the ``holder`` argument).
    """

    layer: str
    where: str
    count: "str | None" = None
    every_call: bool = False
    on_result: "Callable[[SpanRecorder, tuple, Any], None] | None" = None
    on_error: "str | None" = None
    returns: "str | None" = None
    yields: "str | None" = None
    active: "Callable[[Any], bool] | None" = None
    request: "str | None" = None


def _manager_seen(recorder: SpanRecorder, args, result) -> None:
    cache = getattr(args[0], "cache", None)
    if cache is not None:
        recorder.caches[id(cache)] = cache


def _offer_space(recorder: SpanRecorder, args, result) -> None:
    recorder.counters["enumeration.offers"] += result.offer_count


def _offers_out(recorder: SpanRecorder, args, result) -> None:
    recorder.counters["classification.offers_out"] += len(result)


def _commit(recorder: SpanRecorder, args, result) -> None:
    if result is not None:
        recorder.counters["commitment.commits"] += 1


def _adapted(recorder: SpanRecorder, args, result) -> None:
    if not result.switched:
        recorder.counters["session.adapt.failed"] += 1


def _enabled(owner) -> bool:
    return owner.enabled


def _telemetry_enabled(owner) -> bool:
    return owner.telemetry.enabled


TARGETS: "tuple[Target, ...]" = (
    # steps 1–2 checks and the procedure's own glue
    Target("negotiation", "repro.core.negotiation:QoSManager.negotiate",
        count="negotiation.calls", request="new", on_result=_manager_seen),
    Target("negotiation", "repro.core.negotiation:QoSManager.complete"),
    Target("plan", "repro.core.negotiation:QoSManager.plan",
        count="plan.calls", request="new", on_result=_manager_seen),
    Target("metadata", "repro.metadata.database:MetadataDatabase.get_document",
        count="metadata.calls"),
    Target("enumeration", "repro.core.enumeration:build_offer_space",
        count="enumeration.calls", on_result=_offer_space),
    Target("classification", "repro.core.classification:classify_space",
        count="classification.calls", on_result=_offers_out),
    Target("classification", "repro.core.classification:classify_arrays",
        count="classification.calls"),
    Target("classification", "repro.core.classification:classify_arrays_batch",
        count="classification.calls"),
    Target("classification", "repro.core.classification:ClassificationArrays.materialize",
        on_result=_offers_out),
    Target("classification", "repro.core.classification:apply_offer_bonus",
        count="classification.calls", on_result=_offers_out),
    Target("classification", "repro.core.stream:stream_classified",
        count="classification.calls", returns="iterator",
        yields="classification.offers_out"),
    Target("batch.class_key", "repro.batch.classes:request_class_key",
        count="batch.class_key.calls"),
    # step 5 and step 6
    Target("commitment", "repro.core.commitment:ResourceCommitter.try_commit",
        count="commitment.attempts", on_result=_commit, request="holder"),
    Target("commitment", "repro.core.commitment:ResourceCommitter.iter_commit",
        count="commitment.attempts", on_result=_commit, request="holder",
        returns="generator"),
    Target("commitment", "repro.core.commitment:ResourceCommitter.release"),
    Target("commitment", "repro.core.commitment:ResourceCommitter.reap_expired"),
    Target("commitment", "repro.core.commitment:ResourceCommitter.renew_lease"),
    Target("commitment", "repro.core.commitment:Commitment.confirm"),
    Target("commitment", "repro.core.commitment:Commitment.reject"),
    Target("commitment", "repro.core.commitment:Commitment.release"),
    Target("commitment", "repro.core.commitment:Commitment.expire_check"),
    Target("cmfs", "repro.cmfs.server:MediaServer.admit",
        count="cmfs.admit.calls", on_error="cmfs.admit.refused"),
    Target("cmfs", "repro.cmfs.server:MediaServer.release"),
    Target("network", "repro.network.transport:TransportSystem.reserve",
        count="network.reserve.calls", on_error="network.reserve.refused"),
    Target("network", "repro.network.transport:TransportSystem.release"),
    Target("network", "repro.network.routing:find_route",
        count="network.route.calls", every_call=True),
    Target("faults", "repro.faults.retry:execute_with_retry",
        count="faults.retry.calls"),
    Target("faults", "repro.faults.health:CircuitBreaker.allow"),
    Target("faults", "repro.faults.health:CircuitBreaker.record_success"),
    Target("faults", "repro.faults.health:CircuitBreaker.record_failure"),
    Target("faults", "repro.faults.health:CircuitBreaker.earliest_reopen"),
    Target("faults", "repro.faults.lease:LeaseManager.grant"),
    Target("faults", "repro.faults.lease:LeaseManager.renew_if_held"),
    Target("faults", "repro.faults.lease:LeaseManager.drop"),
    Target("faults", "repro.faults.lease:LeaseManager.due"),
    Target("faults", "repro.faults.injector:FaultInjector.before_admit"),
    Target("faults", "repro.faults.injector:FaultInjector.intercept_stream_release"),
    Target("faults", "repro.faults.injector:FaultInjector.intercept_flow_release"),
    Target("journal", "repro.journal.store:ReservationJournal.append",
        count="journal.appends"),
    # telemetry: the tracer, the registry and the flight recorder
    Target("telemetry", "repro.telemetry.tracer:Tracer.start_span",
        count="telemetry.calls", active=_enabled),
    Target("telemetry", "repro.telemetry.tracer:Tracer.end_span",
        count="telemetry.calls", active=_enabled),
    Target("telemetry", "repro.telemetry.tracer:Tracer.emit",
        count="telemetry.calls", active=_enabled),
    Target("telemetry", "repro.telemetry.tracer:Tracer.new_context",
        count="telemetry.calls", active=_enabled),
    Target("telemetry", "repro.telemetry.tracer:Tracer.annotate",
        count="telemetry.calls", active=_enabled),
    Target("telemetry", "repro.telemetry.metrics:MetricsRegistry.count",
        count="telemetry.calls", active=_enabled),
    Target("telemetry", "repro.telemetry.metrics:MetricsRegistry.gauge_set",
        count="telemetry.calls", active=_enabled),
    Target("telemetry", "repro.telemetry.metrics:MetricsRegistry.gauge_add",
        count="telemetry.calls", active=_enabled),
    Target("telemetry", "repro.telemetry.metrics:MetricsRegistry.observe",
        count="telemetry.calls", active=_enabled),
    Target("telemetry", "repro.telemetry.timeseries:FlightRecorder.sample",
        count="telemetry.calls", active=_telemetry_enabled),
    # the event loop and the cooperative service
    Target("service", "repro.session.engine:EventLoop.run"),
    Target("service", "repro.service.negotiator:NegotiationService.submit"),
    Target("service", "repro.service.scheduler:CooperativeScheduler.spawn"),
    # the storm layer: admission gate and wave controller
    Target("storm", "repro.storm.gate:AdmissionGate.submit"),
    Target("storm", "repro.storm.gate:AdmissionGate.submit_deferred"),
    Target("storm", "repro.storm.gate:TokenBucket.try_take"),
    Target("storm", "repro.storm.gate:TokenBucket.time_until_token"),
    Target("storm", "repro.storm.controller:StormController.on_violation"),
    # playout sessions and adaptation
    Target("session", "repro.core.adaptation:AdaptationManager.adapt",
        count="session.adapt.calls", on_result=_adapted),
    Target("session", "repro.session.runtime:SessionRuntime.start_session"),
    Target("session", "repro.session.runtime:SessionRuntime.abort_session"),
    Target("session", "repro.session.runtime:SessionRuntime.sweep_once"),
)

LAYERS: "tuple[str, ...]" = tuple(dict.fromkeys(target.layer for target in TARGETS))


class _TimedIterator:
    """Each ``next`` on a lazily produced sequence is one span."""

    def __init__(self, recorder, target: Target, iterator, counter) -> None:
        self._recorder = recorder
        self._target = target
        self._iterator = iterator
        self._counter = counter

    def __iter__(self):
        return self

    def __next__(self):
        recorder = self._recorder
        layer = self._target.layer
        token = recorder.begin(layer)
        try:
            item = next(self._iterator)
        finally:
            recorder.end(token, layer, self._target.where)
        if self._counter is not None:
            recorder.counters[self._counter] += 1
        return item


class _TimedGenerator:
    """A generator whose every resumption (``send``/``throw``/``close``)
    is one span; its return value goes through the target's result
    hook."""

    def __init__(self, recorder, target: Target, generator, args, hook) -> None:
        self._recorder = recorder
        self._target = target
        self._generator = generator
        self._args = args
        self._hook = hook

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def _step(self, resume, *payload):
        recorder = self._recorder
        layer = self._target.layer
        token = recorder.begin(layer)
        try:
            return resume(*payload)
        except StopIteration as stop:
            if self._hook is not None:
                self._hook(recorder, self._args, stop.value)
            raise
        finally:
            recorder.end(token, layer, self._target.where)

    def send(self, value):
        return self._step(self._generator.send, value)

    def throw(self, *exc_info):
        return self._step(self._generator.throw, *exc_info)

    def close(self):
        return self._step(self._generator.close)


def _request_of(recorder: SpanRecorder, target: Target, args, kwargs):
    if target.request == "new":
        return recorder.new_request()
    if target.request == "holder":
        return kwargs.get("holder")
    return None


def _make_shim(recorder: SpanRecorder, target: Target, original):
    layer = target.layer
    name = target.where
    count = target.count
    every_call = target.every_call
    on_result = target.on_result
    on_error = target.on_error
    active = target.active
    counters = recorder.counters

    @functools.wraps(original)
    def shim(*args, **kwargs):
        if active is not None and not active(args[0]):
            return original(*args, **kwargs)
        outer = recorder.outer(layer)
        if count is not None and (outer or every_call):
            counters[count] += 1
        token = recorder.begin(
            layer, _request_of(recorder, target, args, kwargs)
        )
        failed = True
        try:
            result = original(*args, **kwargs)
            failed = False
        finally:
            recorder.end(token, layer, name)
            if failed and on_error is not None and outer:
                counters[on_error] += 1
        if target.returns == "iterator":
            return _TimedIterator(
                recorder, target, result, target.yields if outer else None
            )
        if target.returns == "generator":
            return _TimedGenerator(
                recorder, target, result, args, on_result if outer else None
            )
        if on_result is not None and outer:
            on_result(recorder, args, result)
        return result

    return shim


def _resolve(where: str):
    module_name, _, path = where.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        return getattr(module, owner_name), attr, True
    return module, attr, False


def install(recorder: SpanRecorder, targets=TARGETS) -> Callable[[], None]:
    """Wrap every target; returns the function that undoes it.

    A method is replaced on its class.  A function is replaced in its
    defining module and wherever a loaded ``repro`` module bound it by
    name, so call sites that imported it directly are traced too.
    """
    patches: "list[tuple[Any, str, Any]]" = []
    try:
        for target in targets:
            owner, attr, is_method = _resolve(target.where)
            original = owner.__dict__[attr] if is_method else getattr(owner, attr)
            shim = _make_shim(recorder, target, original)
            if is_method:
                patches.append((owner, attr, original))
                setattr(owner, attr, shim)
                continue
            for module_name, module in list(sys.modules.items()):
                if module is None or not (
                    module_name == "repro" or module_name.startswith("repro.")
                ):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, binding, original))
                        setattr(module, binding, shim)
    except BaseException:
        _undo(patches)
        raise

    def uninstall() -> None:
        _undo(patches)

    return uninstall


def _undo(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()
