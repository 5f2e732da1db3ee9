"""Record the per-seed outcome digests shipped with the benchmark.

    python3 perfbench/digests.py --write perfbench/digests.json

A digest hashes the ``(status, offer id, attempts)`` outcomes of one
seed: the first requests of the catalogue-browse trace, every verdict
of one operated-service cell, and the statuses plus journaled
per-holder attempt sequence of one brownout storm.  ``run.py`` compares
the digest of every seed it runs against this file and fails the run on
a mismatch, so a change that alters any negotiation outcome on a
shipped seed cannot pass the benchmark unnoticed.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import import_repro

SHIPPED_SEEDS = range(0, 41)


def seed_digests(workload_cls, seed: int) -> "dict[str, str]":
    workload = workload_cls()
    workload.setup(seed)
    if workload_cls.name == "catalogue-browse":
        end = workload.finish()
        failed, failures, digests = end.failed, end.failures, end.digests
    else:
        unit = workload.account(0, workload.execute(0))
        failed, failures, digests = unit.failed, unit.failures, unit.digests
    if failed or failures:
        raise RuntimeError(f"{workload_cls.name} seed {seed}: {failures}")
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    import_repro()
    import workloads

    document = {}
    for name, workload_cls in workloads.WORKLOADS.items():
        document[name] = {}
        for seed in SHIPPED_SEEDS:
            document[name].update(seed_digests(workload_cls, seed))
        print(f"{name}: {len(document[name])} seeds", file=sys.stderr)
    text = json.dumps(document, indent=1, sort_keys=True) + "\n"
    if args.write:
        with open(args.write, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
