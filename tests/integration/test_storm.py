"""End-to-end storm runs: survival, determinism, thrash, recovery."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults.plan import FaultKind, FaultSpec
from repro.sim import StormSpec, run_storm, run_storm_comparison
from repro.util.errors import SimulationError


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSpecValidation:
    def test_rejects_zero_severity(self):
        with pytest.raises(SimulationError):
            StormSpec(severity=0.0)

    def test_rejects_more_targets_than_servers(self):
        with pytest.raises(SimulationError):
            StormSpec(servers=2, target_servers=3)

    def test_rejects_empty_storm(self):
        with pytest.raises(SimulationError):
            StormSpec(sessions=0)


class TestStormSurvival:
    def test_brownout_at_scale_is_survived(self):
        # The flagship contract: 200+ concurrent sessions, 40% of one
        # server's capacity gone, and every session still reaches a
        # terminal state with nothing leaked.
        report, scenario = run_storm(StormSpec(seed=1))
        assert report.sessions_started >= 200
        assert report.stuck_sessions == 0
        assert report.aborted_sessions == 0
        assert report.clean_teardown
        assert report.journal_balanced
        assert report.survived
        # The brownout actually bit: waves ran and sessions moved.
        assert report.fault_stats["brownouts"] == 1
        assert report.fault_stats["brownout_heals"] == 1
        assert report.waves["waves"] >= 1
        assert report.waves["inplace_switches"] >= 1
        # Load was genuinely shed, and every shed/blocked verdict
        # carried an honest retry hint.
        assert report.blocked > 0
        assert len(report.retry_after_hints) == report.blocked
        assert all(hint > 0.0 for hint in report.retry_after_hints)

    def test_every_holder_timeline_ends_terminal(self):
        report, scenario = run_storm(
            StormSpec(sessions=120, late_requests=24, severity=0.5, seed=5)
        )
        assert report.survived
        journal = scenario.manager.committer.journal
        for timeline in journal.by_holder().values():
            assert timeline[-1].is_terminal


class TestDeterminism:
    def test_same_seed_same_report_and_trace(self, tmp_path):
        def once(path):
            spec = StormSpec(
                sessions=120, late_requests=24, severity=0.5, seed=5,
                telemetry_seed=7, telemetry_jsonl=str(path),
            )
            report, _ = run_storm(spec)
            return report

        first = once(tmp_path / "a.jsonl")
        second = once(tmp_path / "b.jsonl")
        assert first.as_dict() == second.as_dict()
        # Byte-for-byte: the CI storm job diffs exactly this.
        assert digest(tmp_path / "a.jsonl") == digest(tmp_path / "b.jsonl")
        assert first.metrics_match is True

    def test_different_seeds_diverge(self):
        base = dict(sessions=120, late_requests=24, severity=0.5)
        first, _ = run_storm(StormSpec(seed=5, **base))
        second, _ = run_storm(StormSpec(seed=6, **base))
        assert first.as_dict() != second.as_dict()


class TestThrashComparison:
    def test_backpressure_beats_the_bare_deployment(self):
        comparison = run_storm_comparison(
            StormSpec(sessions=140, late_requests=24, severity=0.5, seed=5)
        )
        gated = comparison.with_backpressure
        bare = comparison.without_backpressure
        assert gated.survived
        # The bare deployment demonstrably thrashes: it spends multiples
        # of the commitment attempts and failed adaptations to deliver
        # the same storm.
        assert comparison.demonstrates_thrash
        assert comparison.attempt_ratio > 1.5
        assert comparison.failed_adaptation_ratio > 1.5
        assert bare.commit_attempts > gated.commit_attempts
        # The verdict survives serialization (the CLI's --json path).
        document = comparison.as_dict()
        assert document["demonstrates_thrash"] is True
        assert document["with_backpressure"]["backpressure"] is True
        assert document["without_backpressure"]["backpressure"] is False


class TestHashSeedIndependence:
    def test_comparison_is_identical_under_different_hash_seeds(self):
        """String hashing must not steer a storm: the monitor once
        walked the server's victim set in hash order, so the bare
        deployment's re-reservation order followed PYTHONHASHSEED."""
        src = str(Path(__file__).resolve().parents[2] / "src")

        def run(hash_seed):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            completed = subprocess.run(
                [
                    sys.executable, "-m", "repro", "storm", "--seed", "1",
                    "--sessions", "100", "--late-requests", "20", "--json",
                ],
                capture_output=True, text=True, env=env, check=True,
            )
            return completed.stdout

        first = run("0")
        assert '"without_backpressure"' in first
        assert run("1") == first


class TestInterruptedStorm:
    def test_manager_crash_mid_wave_replays_leak_free(self):
        # Kill the manager while the brownout wave is being processed:
        # recovery must replay the journal, re-adopt live sessions, and
        # still land the whole storm with zero leaks.
        crash = FaultSpec(
            FaultKind.MANAGER_CRASH, "manager", start_s=92.0, value=3
        )
        report, scenario = run_storm(
            StormSpec(
                sessions=140, late_requests=24, severity=0.5, seed=5,
                extra_faults=(crash,),
            )
        )
        assert report.manager_crashes == 1
        assert report.recoveries == 1
        assert report.recovered_active > 0
        assert report.stuck_sessions == 0
        assert report.clean_teardown
        assert report.journal_balanced
        assert report.survived
        journal = scenario.manager.committer.journal
        for timeline in journal.by_holder().values():
            assert timeline[-1].is_terminal
