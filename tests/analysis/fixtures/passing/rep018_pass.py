"""REP018 fixture (clean): the process-wide accessor, the test-reset
helper, and static-method key access — no private construction."""

from repro.perf.cache import NegotiationCache, reset_shared_cache, shared_cache


def manager_cache():
    return shared_cache()


def isolated_run():
    reset_shared_cache()
    return shared_cache()


def key_helper(database, document_id, client, guarantee, cost_model, mapper):
    # Static-method access is not a construction.
    return NegotiationCache.space_key(
        database=database,
        document_id=document_id,
        client=client,
        guarantee=guarantee,
        cost_model=cost_model,
        mapper=mapper,
    )
