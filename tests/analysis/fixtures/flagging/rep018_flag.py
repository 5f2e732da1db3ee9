"""REP018 fixture (flagged): private NegotiationCache constructions —
bare, dotted, and aliased — outside repro.perf.cache."""

from repro.perf import cache as cache_module
from repro.perf.cache import NegotiationCache
from repro.perf.cache import NegotiationCache as PrivateCache


def build_manager_cache():
    return NegotiationCache(max_spaces=8)


def build_dotted():
    return cache_module.NegotiationCache()


def build_aliased():
    return PrivateCache(max_spaces=4)
