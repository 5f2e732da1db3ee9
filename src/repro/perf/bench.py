"""The negotiation benchmark: ``python -m repro bench``.

Measures negotiation throughput across a matrix of offer-space shapes
(``variants`` per axis × ``axes`` monomedia, spanning 2–8 variants and
2–6 axes) and four configurations — the full-sort reference procedure
(:func:`~repro.core.negotiation.negotiate_full_sort`), plain
``QoSManager.negotiate`` (which streams the classified offers best
first) with the offer-space cache off and on, and the batched
equivalence-class engine (``repro.batch``) — and writes the result to
``BENCH_negotiation.json``, a point on the repo's benchmark trajectory.

Catalogue-scale cells extend the matrix to 8–10 axes and offer spaces
past a million combinations, spread over several documents requested
under a Zipf popularity skew — the news-on-demand access pattern where
batching pays: most requests land on the few hot documents, so the
batch engine plans each hot class once and fans the walk out.  Those
cells skip the full-sort reference (materialising and sorting a
million-offer space per round is exactly the cost the streaming path
exists to avoid) and use the plain ``negotiate`` run as the
equivalence baseline instead; their ``max_offers`` bound keeps every
run's materialised prefix small.

Besides throughput (negotiations/s, classified offers/s, p50/p99 wall
latency) the bench *asserts outcome equivalence*: every configuration
must commit the same offer with the same status and the same attempt
count on every seed scenario, round for round — the batched engine
included.  A divergence makes the run fail (exit 1), which is the CI
gate for the streaming and batching paths.  Classified offers/s counts
the offers each negotiation's step-5 walk consumed
(``NegotiationResult.classified``), the same prefix in every
configuration: the full-sort reference classifies the whole space but
is credited only with that prefix.

This module intentionally reads the wall clock — it measures real
compute, not simulated time — so the REP001/REP011 timing bans are
suppressed line by line.
"""

from __future__ import annotations

import argparse
import functools
import json
from dataclasses import dataclass
from time import perf_counter  # reprolint: disable=REP001,REP011 -- the bench measures real wall time

import numpy as np

from ..batch import BatchRequest, negotiate_batch
from ..cmfs.admission import AdmissionController
from ..cmfs.disk import DiskModel
from ..cmfs.server import MediaServer
from ..client.machine import ClientMachine
from ..core.importance import default_importance
from ..core.negotiation import (
    NegotiationResult,
    QoSManager,
    negotiate_full_sort,
)
from ..core.profiles import MMProfile, UserProfile
from ..documents.builder import DocumentBuilder, MonomediaBuilder
from ..documents.document import Document
from ..documents.media import Codecs, ColorMode, Medium, TV_RESOLUTION
from ..documents.quality import VideoQoS
from ..metadata.database import MetadataDatabase
from ..network.topology import Topology
from ..network.transport import TransportSystem
from ..util.clock import ManualClock
from ..util.errors import ValidationError
from ..util.rng import make_rng
from .baseline import (
    DEFAULT_TOLERANCE,
    bench_throughputs,
    compare_throughputs,
    load_baseline,
)
from .cache import reset_shared_cache, shared_cache

__all__ = [
    "BENCH_CELLS",
    "CATALOGUE_CELLS",
    "QUICK_CELLS",
    "QUICK_CATALOGUE_CELLS",
    "SIX_AXIS_CELL",
    "add_bench_arguments",
    "run_bench",
    "run_bench_command",
    "main",
]

# (variants per axis, axes).  Spans 2–8 variants and 2–6 monomedia;
# the largest cells hold 8^4 = 4096 offers.
BENCH_CELLS: "tuple[tuple[int, int], ...]" = (
    (2, 2), (4, 2), (8, 2),
    (2, 4), (4, 4), (8, 4),
    (2, 6), (3, 6), (4, 6),
)
QUICK_CELLS: "tuple[tuple[int, int], ...]" = ((2, 2), (4, 4), (4, 6))
# (variants per axis, axes, documents).  Catalogue-scale: million-offer
# spaces (6^8 ≈ 1.7M, 4^10 ≈ 1.0M, 8^8 ≈ 16.8M — the last one past the
# vectorization ceiling, so the full sort cannot run at all)
# spread across a small catalogue with Zipf-skewed popularity.
CATALOGUE_CELLS: "tuple[tuple[int, int, int], ...]" = (
    (6, 8, 4),
    (4, 10, 4),
    (8, 8, 4),
)
QUICK_CATALOGUE_CELLS: "tuple[tuple[int, int, int], ...]" = ((4, 10, 4),)
SIX_AXIS_CELL: "tuple[int, int]" = (4, 6)
SPEEDUP_THRESHOLD = 5.0
# Best committed single-config throughput of the seed bench (stream
# +cache on the hottest cell); the batch engine on the 6-axis cell must
# beat it by SPEEDUP_THRESHOLD.
COMMITTED_BEST_NPS = 488.0
# Above this offer count the full-sort reference is left out: one
# round would materialise and sort the whole product space.
FULL_SORT_CEILING = 5_000

FULL_SORT = "full"
CONFIGS: "tuple[tuple[str, bool, bool], ...]" = (
    # (label, cached, batched); "full" is the full-sort reference,
    # "stream" plain negotiate, which streams the classified offers.
    (FULL_SORT, False, False),
    ("stream", False, False),
    ("stream+cache", True, False),
    ("batch", True, True),
)

# The eight bench variant flavours, best-first by construction: the
# lead combination satisfies the desired profile, the tail ones only
# the worst-acceptable bound.  A document with V variants per axis
# takes the first V.
_VARIANT_FLAVOURS: "tuple[tuple[ColorMode, int], ...]" = (
    (ColorMode.COLOR, 25),
    (ColorMode.COLOR, 15),
    (ColorMode.COLOR, 10),
    (ColorMode.GREY, 25),
    (ColorMode.GREY, 15),
    (ColorMode.GREY, 10),
    (ColorMode.COLOR, 5),
    (ColorMode.GREY, 5),
)

_SERVER_IDS = ("server-a", "server-b", "server-c")
_DURATION_S = 30.0
_ZIPF_EXPONENT = 1.2
_SCHEDULE_SEED = 1996
_CATALOGUE_ROUNDS = 24
_CATALOGUE_MAX_OFFERS = 64


@dataclass(frozen=True)
class _Cell:
    """One matrix cell: a document shape plus catalogue knobs."""

    variants: int
    axes: int
    documents: int = 1
    rounds: "int | None" = None
    max_offers: "int | None" = None

    @property
    def offer_count(self) -> int:
        return self.variants ** self.axes

    def default_rounds(self) -> int:
        if self.rounds is not None:
            return self.rounds
        if self.documents > 1:
            return _CATALOGUE_ROUNDS
        # The larger cells get *more* rounds, not fewer: the amortised
        # configurations (cache, batch) need enough rounds past the
        # shared plan to show their steady state, and the full-sort
        # configs stay bounded (~seconds) even at 4096 offers.
        # Enough rounds that sub-millisecond cells measure a window the
        # scheduler can't dominate.
        return 32 if self.offer_count <= 256 else 24


def _matrix(quick: bool) -> "list[_Cell]":
    standard = QUICK_CELLS if quick else BENCH_CELLS
    catalogue = QUICK_CATALOGUE_CELLS if quick else CATALOGUE_CELLS
    cells = [_Cell(variants, axes) for variants, axes in standard]
    cells.extend(
        _Cell(
            variants, axes, documents=documents,
            max_offers=_CATALOGUE_MAX_OFFERS,
        )
        for variants, axes, documents in catalogue
    )
    return cells


def _bench_document(variants: int, axes: int, index: int = 0) -> Document:
    """A synthetic document with ``axes`` video monomedia of
    ``variants`` variants each — offer space of ``variants**axes``.
    ``index`` distinguishes catalogue siblings of the same shape."""
    document_id = f"doc.bench-{variants}x{axes}" + (
        f".d{index + 1}" if index else ""
    )
    builder = DocumentBuilder(
        document_id,
        f"bench article {variants} variants x {axes} axes #{index + 1}",
    )
    for axis in range(axes):
        mono = MonomediaBuilder(
            f"{document_id}.m{axis + 1}",
            Medium.VIDEO,
            f"segment {axis + 1}",
            _DURATION_S,
        )
        for vindex, (color, frame_rate) in enumerate(
            _VARIANT_FLAVOURS[:variants]
        ):
            mono.add_variant(
                Codecs.MPEG1,
                VideoQoS(
                    color=color,
                    frame_rate=frame_rate,
                    resolution=TV_RESOLUTION,
                ),
                _SERVER_IDS[(axis + vindex + index) % len(_SERVER_IDS)],
            )
        builder.add(mono)
    return builder.copyright(0.25).build()


def _bench_profile() -> UserProfile:
    """Desires the lead flavour, tolerates the worst one, with a cost
    ceiling high enough that the best offers commit on first attempt —
    the head-heavy case the streaming path is built for."""
    return UserProfile(
        name="bench",
        desired=MMProfile(
            video=VideoQoS(
                color=ColorMode.COLOR, frame_rate=25, resolution=TV_RESOLUTION
            ),
            cost=500.0,
        ),
        worst=MMProfile(
            video=VideoQoS(
                color=ColorMode.GREY, frame_rate=5, resolution=TV_RESOLUTION
            ),
            cost=500.0,
        ),
        importance=default_importance(),
    )


def _zipf_schedule(documents: int, rounds: int) -> "list[int]":
    """The request schedule: which document each round asks for.

    Single-document cells are the degenerate schedule; catalogue cells
    draw from a Zipf popularity over document ranks with a fixed seed,
    so every configuration (and every bench run) replays the identical
    request sequence.
    """
    if documents <= 1:
        return [0] * rounds
    rng = make_rng(_SCHEDULE_SEED)
    ranks = np.arange(1, documents + 1, dtype=np.float64)
    weights = ranks ** -_ZIPF_EXPONENT
    weights /= weights.sum()
    return [int(i) for i in rng.choice(documents, size=rounds, p=weights)]


def _deployment(
    documents: "list[Document]", cached: bool
) -> "tuple[QoSManager, ClientMachine]":
    servers = {
        server_id: MediaServer(
            server_id,
            disk=DiskModel(),
            admission=AdmissionController(
                disk=DiskModel(), nic_bps=622e6, max_streams=256
            ),
        )
        for server_id in _SERVER_IDS
    }
    topology = Topology()
    for server in servers.values():
        topology.connect(
            server.access_point, "backbone", 622e6,
            link_id=f"L-{server.server_id}",
        )
    topology.connect("client-net", "backbone", 622e6, link_id="L-client")
    database = MetadataDatabase()
    for document in documents:
        database.insert_document(document)
    # Every configuration starts cold: the process-wide shared cache is
    # flushed before each run so a cached configuration never inherits
    # a predecessor's entries.
    reset_shared_cache()
    manager = QoSManager(
        database=database,
        transport=TransportSystem(topology),
        servers=servers,
        clock=ManualClock(),
        cache=shared_cache() if cached else None,
    )
    client = ClientMachine("bench-client", access_point="client-net")
    return manager, client


@dataclass
class _ConfigRun:
    signatures: "list[tuple[str, str | None, int]]"
    latencies_s: "list[float]"
    offers_classified: int
    elapsed_s: float

    def metrics(self, rounds: int) -> "dict[str, float]":
        ordered = sorted(self.latencies_s)

        def pct(q: float) -> float:
            if not ordered:
                return 0.0
            index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
            return ordered[index]

        elapsed = max(self.elapsed_s, 1e-9)
        return {
            "negotiations_per_s": rounds / elapsed,
            "offers_per_s": self.offers_classified / elapsed,
            "latency_p50_ms": pct(0.50) * 1e3,
            "latency_p99_ms": pct(0.99) * 1e3,
            "elapsed_s": elapsed,
        }


def _signature(
    result: NegotiationResult,
) -> "tuple[str, str | None, int]":
    return (
        result.status.name,
        result.chosen.offer.offer_id if result.chosen else None,
        result.attempts,
    )


def _run_config(
    documents: "list[Document]",
    schedule: "list[int]",
    label: str,
    cached: bool,
    *,
    batched: bool = False,
    max_offers: "int | None" = None,
) -> _ConfigRun:
    manager, client = _deployment(documents, cached)
    negotiate = (
        functools.partial(negotiate_full_sort, manager)
        if label == FULL_SORT
        else manager.negotiate
    )
    profile = _bench_profile()
    # One unmeasured warm-up round per requested document: the cached
    # configurations are meant to measure the steady state, not the
    # first-request miss.
    for index in dict.fromkeys(schedule):
        warmup = negotiate(
            documents[index].document_id, profile, client,
            max_offers=max_offers,
        )
        if warmup.commitment is not None:
            warmup.commitment.reject(manager.clock.now())

    signatures: "list[tuple[str, str | None, int]]" = []
    latencies: "list[float]" = []
    offers = 0
    if batched:
        requests = [
            BatchRequest(
                document=documents[index].document_id,
                profile=profile,
                client=client,
                max_offers=max_offers,
            )
            for index in schedule
        ]
        marks: "list[float]" = []

        def after_each(
            request: BatchRequest, result: NegotiationResult
        ) -> None:
            # Reject before the next member walks, so the batched run
            # replays the sequential run's exact ledger states.
            if result.commitment is not None:
                result.commitment.reject(manager.clock.now())
            marks.append(perf_counter())  # reprolint: disable=REP001,REP011 -- bench wall time

        started = perf_counter()  # reprolint: disable=REP001,REP011 -- bench wall time
        results = negotiate_batch(manager, requests, after_each=after_each)
        elapsed = perf_counter() - started  # reprolint: disable=REP001,REP011 -- bench wall time
        # Per-member latency from the after_each marks; the first mark
        # also carries the per-class planning, which is the honest
        # accounting — batching front-loads the shared work.
        previous = started
        for mark in marks:
            latencies.append(mark - previous)
            previous = mark
        for result in results:
            offers += len(result.classified)
            signatures.append(_signature(result))
    else:
        started = perf_counter()  # reprolint: disable=REP001,REP011 -- bench wall time
        for index in schedule:
            t0 = perf_counter()  # reprolint: disable=REP001,REP011 -- bench wall time
            result = negotiate(
                documents[index].document_id, profile, client,
                max_offers=max_offers,
            )
            t1 = perf_counter()  # reprolint: disable=REP001,REP011 -- bench wall time
            latencies.append(t1 - t0)
            offers += len(result.classified)
            signatures.append(_signature(result))
            if result.commitment is not None:
                result.commitment.reject(manager.clock.now())
        elapsed = perf_counter() - started  # reprolint: disable=REP001,REP011 -- bench wall time
    return _ConfigRun(
        signatures=signatures,
        latencies_s=latencies,
        offers_classified=offers,
        elapsed_s=elapsed,
    )


def run_bench(
    *, quick: bool = False, rounds: "int | None" = None
) -> "dict[str, object]":
    """Run the full matrix; return the report dict (see module doc)."""
    report_cells: "list[dict[str, object]]" = []
    all_equivalent = True
    speedups: "dict[str, float]" = {}
    six_axis_batch_nps: "float | None" = None

    for cell in _matrix(quick):
        documents = [
            _bench_document(cell.variants, cell.axes, index)
            for index in range(cell.documents)
        ]
        cell_rounds = rounds or cell.default_rounds()
        schedule = _zipf_schedule(cell.documents, cell_rounds)
        runs: "dict[str, _ConfigRun]" = {}
        for label, cached, batched in CONFIGS:
            if cell.offer_count > FULL_SORT_CEILING and label == FULL_SORT:
                continue
            runs[label] = _run_config(
                documents, schedule, label, cached,
                batched=batched, max_offers=cell.max_offers,
            )
        baseline_label = FULL_SORT if FULL_SORT in runs else "stream"
        baseline = runs[baseline_label].signatures
        equivalent = all(
            run.signatures == baseline for run in runs.values()
        )
        all_equivalent = all_equivalent and equivalent
        cell_report: "dict[str, object]" = {
            "variants": cell.variants,
            "axes": cell.axes,
            "documents": cell.documents,
            "offer_count": cell.offer_count,
            "rounds": cell_rounds,
            "max_offers": cell.max_offers,
            "baseline_config": baseline_label,
            "first_committed": baseline[0][1] if baseline else None,
            "status": baseline[0][0] if baseline else None,
            "equivalent": equivalent,
            "configs": {
                label: run.metrics(cell_rounds)
                for label, run in runs.items()
            },
        }
        report_cells.append(cell_report)
        if (
            (cell.variants, cell.axes) == SIX_AXIS_CELL
            and cell.documents == 1
        ):
            full = runs[FULL_SORT].metrics(cell_rounds)["negotiations_per_s"]
            fast = runs["stream+cache"].metrics(cell_rounds)[
                "negotiations_per_s"
            ]
            speedups["six_axis_stream_cache_vs_full"] = (
                fast / full if full else 0.0
            )
            six_axis_batch_nps = runs["batch"].metrics(cell_rounds)[
                "negotiations_per_s"
            ]

    six_axis_speedup = speedups.get("six_axis_stream_cache_vs_full")
    batch_speedup = (
        six_axis_batch_nps / COMMITTED_BEST_NPS
        if six_axis_batch_nps is not None
        else None
    )
    return {
        "schema": "bench-negotiation/v1",
        "command": "python -m repro bench" + (" --quick" if quick else ""),
        "quick": quick,
        "cells": report_cells,
        "summary": {
            "all_outcomes_equivalent": all_equivalent,
            "six_axis_cell": list(SIX_AXIS_CELL),
            "six_axis_speedup_stream_cache_vs_full": six_axis_speedup,
            "speedup_threshold": SPEEDUP_THRESHOLD,
            "six_axis_speedup_ok": (
                six_axis_speedup is None
                or six_axis_speedup >= SPEEDUP_THRESHOLD
            ),
            "six_axis_batch_negotiations_per_s": six_axis_batch_nps,
            "committed_best_negotiations_per_s": COMMITTED_BEST_NPS,
            "six_axis_batch_speedup_vs_committed": batch_speedup,
            "six_axis_batch_ok": (
                batch_speedup is None
                or batch_speedup >= SPEEDUP_THRESHOLD
            ),
        },
    }


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--quick", action="store_true",
        help="small 4-cell matrix (CI-friendly)",
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="override measured rounds per cell",
    )
    parser.add_argument(
        "--output", default="BENCH_negotiation.json",
        help="report path (default: %(default)s)",
    )
    parser.add_argument(
        "--require-speedup", action="store_true",
        help="also fail when the 6-axis streaming+cache or batch "
        "speedup is below the threshold (only meaningful on quiet "
        "machines)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="committed BENCH_negotiation.json to regress against; "
        "fail when any shared cell/config drops below the tolerance",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        metavar="F",
        help="tolerated fractional throughput drop vs the baseline "
        "(default %(default)s)",
    )


def run_bench_command(args: argparse.Namespace) -> int:
    # Read the baseline before the run (and before --output lands):
    # CI regresses a fresh measurement against the *committed* file
    # even when both flags name the same path.
    baseline = None
    if args.baseline is not None:
        try:
            baseline = bench_throughputs(load_baseline(args.baseline))
        except ValidationError as error:
            print(f"bad --baseline: {error}")
            return 2
    report = run_bench(quick=args.quick, rounds=args.rounds)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    summary = report["summary"]
    assert isinstance(summary, dict)
    speedup = summary["six_axis_speedup_stream_cache_vs_full"]
    batch_speedup = summary["six_axis_batch_speedup_vs_committed"]
    print(f"wrote {args.output}")
    for cell in report["cells"]:  # type: ignore[union-attr]
        assert isinstance(cell, dict)
        configs = cell["configs"]
        assert isinstance(configs, dict)
        line = ", ".join(
            f"{label}={metrics['negotiations_per_s']:.0f}/s"
            for label, metrics in configs.items()
        )
        shape = f"{cell['variants']}^{cell['axes']}"
        if cell["documents"] != 1:
            shape += f"x{cell['documents']}"
        print(
            f"  {shape}"
            f" ({cell['offer_count']} offers, {cell['status']}):"
            f" {line}"
        )
    if speedup is not None:
        print(
            f"6-axis streaming+cache speedup vs full sort: {speedup:.1f}x "
            f"(threshold {SPEEDUP_THRESHOLD}x)"
        )
    if batch_speedup is not None:
        print(
            f"6-axis batch vs committed best "
            f"({COMMITTED_BEST_NPS:.0f}/s): {batch_speedup:.1f}x "
            f"(threshold {SPEEDUP_THRESHOLD}x)"
        )
    if not summary["all_outcomes_equivalent"]:
        print("FAIL: negotiation outcomes diverged between configurations")
        return 1
    if args.require_speedup and not (
        summary["six_axis_speedup_ok"] and summary["six_axis_batch_ok"]
    ):
        print("FAIL: 6-axis speedup below threshold")
        return 1
    if baseline is not None:
        try:
            regressions = compare_throughputs(
                bench_throughputs(report), baseline,
                tolerance=args.tolerance,
            )
        except ValidationError as error:
            print(f"bad --baseline: {error}")
            return 2
        if regressions:
            print(f"FAIL: throughput regressed vs {args.baseline}")
            for regression in regressions:
                print(f"  {regression.render()}")
            return 1
        print(f"no throughput regression vs {args.baseline} "
              f"(tolerance {args.tolerance:.0%})")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="negotiation throughput benchmark "
        "(negotiate vs the full-sort reference vs batch, cache on/off)",
    )
    add_bench_arguments(parser)
    return run_bench_command(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
