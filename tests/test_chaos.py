"""Executor chaos harness (repro.eval.chaos): deterministic plans,
end-to-end crash/recover/parity runs, and store write-lock contention.

``repro resilience`` faults the *simulated* network; these tests fault
the *executor* and require it to recover to bit-identical metrics — the
contract ``repro chaos`` gates in CI (docs/reliability.md).
"""

from __future__ import annotations

import time

import pytest

from repro.eval.chaos import (
    ChaosSpec,
    chaos_summary_lines,
    hold_store_lock,
    run_chaos,
    truncate_newest_checkpoint,
)
from repro.eval.scenario import ScenarioSpec, run_scenario
from repro.mobility import io as trace_io
from repro.sim.checkpoint import RunDir
from repro.store.db import ExperimentDB


# -- deterministic plan resolution --------------------------------------------


class TestChaosSpec:
    def test_seed_pins_serial_knobs(self):
        plan = ChaosSpec(seed=3).resolve(n_points=4)
        assert plan.point == 3
        assert plan.interrupt_after in (1, 2)

    def test_resolution_is_deterministic(self):
        a = ChaosSpec(seed=11).resolve(9)
        b = ChaosSpec(seed=11).resolve(9)
        assert a == b

    def test_explicit_knobs_survive_resolution(self):
        spec = ChaosSpec(seed=0, point=2, interrupt_after=5)
        plan = spec.resolve(n_points=4)
        assert plan.point == 2 and plan.interrupt_after == 5

    def test_truncate_implies_a_second_checkpoint(self):
        plan = ChaosSpec(truncate_checkpoint=True).resolve(3)
        assert plan.interrupt_after >= 2

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty grid"):
            ChaosSpec().resolve(0)

    def test_as_dict_omits_unset_knobs(self):
        assert ChaosSpec(seed=1).as_dict() == {"seed": 1, "point": None}
        full = ChaosSpec(seed=1, point=0, truncate_checkpoint=True).as_dict()
        assert full["truncate_checkpoint"]


# -- end-to-end chaos runs -----------------------------------------------------


@pytest.fixture(scope="module")
def chaos_spec_file(tmp_path_factory, dart_tiny):
    path = tmp_path_factory.mktemp("chaos-trace") / "tiny.csv"
    trace_io.dump_trace(dart_tiny, path)
    return ScenarioSpec.from_dict({
        "name": "chaos-test",
        "trace": {"path": str(path)},
        "sim": {"memory_kb": 2000, "rate": 150, "workload_scale": 0.02},
        "protocols": ["DTN-FLOW"],
        "seeds": [1],
    }).validate()


class TestSerialChaos:
    def test_crash_resume_recovers_bit_identical(self, chaos_spec_file, tmp_path):
        chaos = ChaosSpec(point=0, interrupt_after=1)
        report, result = run_chaos(
            chaos_spec_file, chaos, tmp_path / "rd", every_events=400
        )
        assert report.ok, report.mismatches
        assert report.resumed
        assert not report.mismatches
        assert report.recovery_events.get("executor.resume", 0) >= 1
        assert result.results[0] is not None
        lines = chaos_summary_lines(report)
        assert lines[-1].startswith("chaos: OK")

    def test_truncated_checkpoint_still_recovers(self, chaos_spec_file, tmp_path):
        chaos = ChaosSpec(point=0, interrupt_after=2, truncate_checkpoint=True)
        report, _ = run_chaos(
            chaos_spec_file, chaos, tmp_path / "rd", every_events=400
        )
        assert report.ok, report.mismatches
        assert report.resumed
        assert any("truncated" in note for note in report.notes)

    def test_failed_report_formats_as_failure(self):
        from repro.eval.chaos import ChaosReport

        report = ChaosReport(
            ok=False, plan={"seed": 0}, n_points=1, resumed=False,
            mismatches=["point 0: metrics differ on ['delivered']"],
        )
        lines = chaos_summary_lines(report)
        assert lines[-1] == "chaos: FAILED"
        assert any("MISMATCH" in line for line in lines)
        assert report.as_dict()["kind"] == "chaos"

    def test_truncate_helper_on_empty_dir(self, tmp_path):
        assert truncate_newest_checkpoint(tmp_path) is None


# -- profile traces: the resume must read the trace back ------------------------


@pytest.fixture(scope="module")
def chaos_profile():
    """A small-DART profile scenario and its undisturbed baseline."""
    spec = ScenarioSpec.from_dict({
        "name": "chaos-profile",
        "trace": {"profile": "DART", "seed": 1, "full_scale": False},
        "sim": {"memory_kb": 2000, "rate": 150, "workload_scale": 0.02},
        "protocols": ["Direct"],
        "seeds": [1],
    }).validate()
    return spec, run_scenario(spec)


class TestProfileTraceChaos:
    def test_resume_reads_the_trace_back(self, chaos_profile, tmp_path):
        spec, baseline = chaos_profile
        report, _ = run_chaos(
            spec, ChaosSpec(point=0, interrupt_after=1), tmp_path / "rd",
            every_events=2000, baseline=baseline,
        )
        assert report.ok, report.mismatches
        resumes = [r for r in RunDir(tmp_path / "rd").recovery_log().records()
                   if r["event"] == "executor.resume"]
        assert [r["trace"] for r in resumes] == ["run-dir"]

    def test_a_rebuilt_trace_fails_the_verdict(self, chaos_profile, tmp_path, monkeypatch):
        # a run directory that never stores its trace: the resume rebuilds
        # it, to the same metrics, but the read-back path went untested
        monkeypatch.setattr(RunDir, "write_trace", lambda self, key, trace: None)
        spec, baseline = chaos_profile
        report, _ = run_chaos(
            spec, ChaosSpec(point=0, interrupt_after=1), tmp_path / "rd",
            every_events=2000, baseline=baseline,
        )
        assert not report.ok
        assert report.mismatches == [
            "the resume did not read its profile trace back from the run "
            "directory (trace sources: ['rebuilt'])"
        ]


# -- store lock contention -----------------------------------------------------


class TestStoreLockContention:
    def test_record_succeeds_while_rival_holds_write_lock(self, tmp_path):
        db_path = tmp_path / "exp.sqlite"
        with ExperimentDB(db_path):
            pass  # create the schema before arming the rival
        holder = hold_store_lock(db_path, hold_ms=400)
        t0 = time.perf_counter()
        with ExperimentDB(db_path) as db:
            run_id = db.record_run("contended", label="lock-test")
        waited = time.perf_counter() - t0
        holder.join(timeout=10.0)
        assert run_id is not None
        # the write really contended: it had to outwait the rival's hold
        assert waited >= 0.2
        with ExperimentDB(db_path) as db:
            kinds = [row["kind"] for row in db.runs(kind="contended")]
        assert kinds == ["contended"]
