"""Negotiation throughput layer: caching, fingerprints and the bench.

The §4 pipeline is a pure function of (document, client, profile,
tariffs) until step 5 touches shared resource state; this package
exploits that purity.  :mod:`repro.perf.cache` memoises the offer-space
build across requests;
:mod:`repro.perf.fingerprint` provides the value-identity keys;
:mod:`repro.perf.bench` measures the result and writes the repo's
benchmark trajectory point (``BENCH_negotiation.json``);
:mod:`repro.perf.baseline` regresses a fresh report against the
committed one, the CI bench-regression gate.
"""

from .baseline import (
    Regression,
    bench_throughputs,
    compare_throughputs,
    load_baseline,
    load_throughputs,
)
from .cache import (
    CacheStats,
    NegotiationCache,
    reset_shared_cache,
    shared_cache,
)
from .fingerprint import (
    client_fingerprint,
    cost_model_fingerprint,
    importance_fingerprint,
    mapper_fingerprint,
    profile_fingerprint,
)

__all__ = [
    "CacheStats",
    "NegotiationCache",
    "Regression",
    "bench_throughputs",
    "compare_throughputs",
    "load_baseline",
    "load_throughputs",
    "client_fingerprint",
    "cost_model_fingerprint",
    "importance_fingerprint",
    "mapper_fingerprint",
    "profile_fingerprint",
    "reset_shared_cache",
    "shared_cache",
]
