"""Tests for the benchmark itself (not part of the repo's tier-1 suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import pathlib

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402

common.import_repro()

import run  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402
from repro.metadata import MetadataDatabase  # noqa: E402
from repro.sim import StormSpec, run_storm  # noqa: E402

RUN_PY = BENCH_DIR / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _trace_rows(workload):
    return [
        (r.document_id, r.client_id, r.profile.name, r.arrival_s)
        for r in workload.requests
    ]


class TestGenerator:
    def test_same_seed_same_inputs(self):
        first, second = workloads.CatalogueBrowse(), workloads.CatalogueBrowse()
        first.setup(11)
        second.setup(11)
        assert _trace_rows(first) == _trace_rows(second)
        assert first.confirms == second.confirms
        assert [d.document_id for d in first.scenario.database.to_catalog()] == [
            d.document_id for d in second.scenario.database.to_catalog()
        ]

    def test_other_seed_other_inputs(self):
        first, second = workloads.CatalogueBrowse(), workloads.CatalogueBrowse()
        first.setup(11)
        second.setup(12)
        assert _trace_rows(first) != _trace_rows(second)

    def test_catalogue_spans_tens_to_thousands_of_offers(self):
        workload = workloads.CatalogueBrowse()
        workload.setup(1)
        client = workload.clients["client-1"]
        sizes = [
            workloads.build_offer_space(
                document, client, workload.manager.cost_model
            ).offer_count
            for document in workloads.catalogue_documents()
        ]
        assert min(sizes) < 10 and max(sizes) > 1000


class TestOracle:
    def _browsed(self):
        workload = workloads.CatalogueBrowse()
        workload.setup(5)
        workload.digest_requests = 60
        workload.warm_up()
        return workload

    def test_clean_run_passes(self):
        end = self._browsed().finish()
        assert end.failed == 0 and end.failures == []
        assert end.extra_ops == 60 and list(end.digests) == ["5"]

    def test_corrupted_outcome_is_rejected(self):
        workload = self._browsed()
        index = next(
            i for i, outcome in workload.outcomes.items() if outcome[2] > 0
        )
        status, offer, attempts = workload.outcomes[index]
        workload.outcomes[index] = (status, offer, attempts + 1)
        end = workload.finish()
        assert end.failed == 1
        assert any(f"request {index}" in failure for failure in end.failures)

    def test_leaked_storm_is_rejected(self):
        storm = workloads.BrownoutStorm()
        storm.seed = 3
        report, scenario = run_storm(StormSpec(seed=3, sessions=20, late_requests=4))
        assert storm.account(0, (report, scenario)).failures == []
        report.leaked_streams = 1
        unit = storm.account(0, (report, scenario))
        assert unit.failed == unit.ops and unit.failures

    def test_digest_mismatch_fails_the_run(self, monkeypatch):
        class Stub:
            name = "stub"

            def finish(self):
                return workloads.EndCheck(digests={"7": "abc"})

        monkeypatch.setattr(run, "shipped_digests", lambda name: {"7": "xyz"})
        attempted, failed, failures, _ = run.check_outputs(
            Stub(), [workloads.UnitResult(ops=3, refused=0, failed=0)]
        )
        assert attempted == 3 and failed == 1 and failures


class TestSelfTime:
    def test_hand_built_tree(self):
        # (id, parent, layer, name, start, end, request)
        spans = [
            (3, 2, "c", "grandchild", 15, 20, "r1"),
            (2, 1, "b", "child-a", 10, 40, "r1"),
            (4, 1, "b", "child-b", 30, 60, "r1"),   # overlaps child-a
            (5, 1, "d", "child-c", 90, 120, "r1"),  # runs past the root
            (1, None, "a", "root", 0, 100, "r1"),
        ]
        own = spantrace.self_times(spans)
        assert own == {3: 5, 2: 25, 4: 30, 5: 30, 1: 100 - 50 - 10}
        assert spantrace.layer_self_ns(spans) == {"a": 40, "b": 55, "c": 5, "d": 30}

    def test_recorder_nesting_and_requests(self):
        ticks = iter(range(100))
        recorder = spantrace.SpanRecorder(clock=lambda: next(ticks))
        outer = recorder.begin("x", request="req-1")
        inner = recorder.begin("y")
        recorder.end(inner, "y", "inner")
        recorder.end(outer, "x", "outer")
        (inner_span, outer_span) = recorder.spans
        assert inner_span[1] == outer_span[0]      # parent link
        assert inner_span[6] == "req-1"            # inherited request id
        assert spantrace.layer_self_ns(recorder.spans) == {"x": 2, "y": 1}

    def test_shims_are_transparent_and_removable(self):
        original = MetadataDatabase.get_document
        database = workloads.CatalogueBrowse()
        database.setup(1)
        db = database.manager.database
        recorder = spantrace.SpanRecorder()
        target = spantrace.Target(
            "metadata", "repro.metadata.database:MetadataDatabase.get_document",
            count="metadata.calls",
        )
        uninstall = spantrace.install(recorder, targets=(target,))
        try:
            document = db.get_document("doc.cat-01")
        finally:
            uninstall()
        assert MetadataDatabase.get_document is original
        assert document.document_id == "doc.cat-01"
        assert recorder.counters["metadata.calls"] == 1
        assert [span[2] for span in recorder.spans] == ["metadata"]


class TestDeclaration:
    def test_benchmark_json_shape(self):
        spec = common.load_spec()
        assert set(spec) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
        }
        assert spec["paths"] == ["perfbench"]
        assert 1 <= spec["run_seconds"] <= 60
        names = [w["name"] for w in spec["workloads"]]
        assert names == list(workloads.WORKLOADS)
        for workload in spec["workloads"]:
            assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        seen = set()
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
                assert metric["name"] not in seen
                seen.add(metric["name"])
                assert metric["better"] in ("lower", "higher")
        for metric in spec["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert setup["unit"] == "s" and setup["better"] == "lower"
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])

    @pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
    def test_printed_metrics_are_declared(self, trace, section):
        completed = subprocess.run(
            [sys.executable, str(RUN_PY), "--workload", "catalogue-browse",
             "--seed", "2", "--seconds", "1", "--trace", str(trace)],
            cwd=common.CHECKOUT, capture_output=True, text=True, timeout=300,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = common.declared_units(section)
        assert set(result["metrics"]) == set(declared)
        for name, entry in result["metrics"].items():
            assert entry["unit"] == declared[name]
        printed = {
            line.split()[0] for line in lines[:-1] if not line.startswith("#")
        }
        assert printed == set(declared)

    def test_fails_without_the_program(self, tmp_path):
        shutil.copy(common.SPEC_PATH, tmp_path / "BENCHMARK.json")
        shutil.copytree(
            BENCH_DIR, tmp_path / "perfbench",
            ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
        )
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "catalogue-browse",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
        )
        assert completed.returncode != 0
        assert '"correct"' not in completed.stdout
