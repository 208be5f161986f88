"""Crash-safe execution plane: checkpoint framing, interrupt handling,
serial resume parity, and resumable run directories (docs/reliability.md).

The contract under test is the one ``repro resume`` sells: any
kill/resume sequence yields metrics bit-identical to an uninterrupted
run, and a corrupted checkpoint falls back to its predecessor instead of
loading garbage.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.eval.experiment import execute_config
from repro.eval.resume import create_run, open_run, resume_run, run_resumable
from repro.eval.scenario import ScenarioSpec, run_scenario
from repro.mobility import io as trace_io
from repro.obs import events as event_types
from repro.sim.checkpoint import (
    CheckpointError,
    InterruptFlag,
    RecoveryLog,
    RunDir,
    SerialCheckpointer,
    SimulatedCrash,
    dump_checkpoint,
    load_checkpoint,
    read_frame,
    try_load_checkpoint,
    write_frame,
)


# -- framed atomic files -------------------------------------------------------


class TestFrames:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_frame(path, b"payload bytes")
        assert read_frame(path) == b"payload bytes"

    def test_pickle_round_trip(self, tmp_path):
        path = tmp_path / "a.ckpt"
        obj = {"nested": [1, 2.5, "x"], "t": (3, 4)}
        dump_checkpoint(path, obj)
        assert load_checkpoint(path) == obj

    def test_truncation_fails_integrity(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_frame(path, b"x" * 1000)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="integrity|truncated"):
            read_frame(path)
        assert try_load_checkpoint(path) is None

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_frame(path, b"data")
        path.write_bytes(b"not-a-checkpoint" + path.read_bytes())
        with pytest.raises(CheckpointError):
            read_frame(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_frame(tmp_path / "nope.ckpt")
        assert try_load_checkpoint(tmp_path / "nope.ckpt") is None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "a.ckpt"
        for _ in range(3):
            write_frame(path, b"payload")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt"]


# -- recovery log --------------------------------------------------------------


class TestRecoveryLog:
    def test_emit_appends_and_counts(self, tmp_path):
        log = RecoveryLog(tmp_path / "recovery.jsonl")
        log.emit(event_types.EXECUTOR_CHECKPOINT, checkpoint="c1")
        log.emit(event_types.EXECUTOR_RESUME, checkpoint="c1")
        records = log.records()
        assert [r["event"] for r in records] == [
            event_types.EXECUTOR_CHECKPOINT,
            event_types.EXECUTOR_RESUME,
        ]
        assert all("ts" in r for r in records)
        assert log.registry.counter(event_types.EXECUTOR_RESUME).value == 1

    def test_unknown_event_type_rejected(self, tmp_path):
        log = RecoveryLog(tmp_path / "recovery.jsonl")
        with pytest.raises(ValueError, match="unknown executor event"):
            log.emit("sim.delivered")

    def test_missing_log_reads_empty(self, tmp_path):
        assert RecoveryLog(tmp_path / "recovery.jsonl").records() == []


# -- interrupt flag ------------------------------------------------------------


class TestInterruptFlag:
    def test_defers_sigint_and_restores_handler(self):
        before = signal.getsignal(signal.SIGINT)
        with InterruptFlag() as flag:
            assert not flag.triggered
            os.kill(os.getpid(), signal.SIGINT)
            # deferred into the flag, not raised as KeyboardInterrupt
            assert flag.triggered and flag.signum == signal.SIGINT
        assert signal.getsignal(signal.SIGINT) is before


# -- serial checkpoint / resume parity ----------------------------------------


def _execute(trace, config, checkpointer=None):
    return execute_config(
        trace, "DTN-FLOW", config,
        memory_kb=2000.0, rate=200.0, seed=5,
        checkpointer=checkpointer,
    )


class TestSerialCheckpointer:
    def test_cadence_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="every_events"):
            SerialCheckpointer(tmp_path, every_events=0)

    def test_checkpointed_run_is_bit_identical(
        self, dart_tiny, tiny_sim_config, tmp_path
    ):
        baseline = _execute(dart_tiny, tiny_sim_config)
        ckpt = SerialCheckpointer(tmp_path / "ck", every_events=400)
        chk = _execute(dart_tiny, tiny_sim_config, checkpointer=ckpt)
        assert chk.metrics == baseline.metrics
        assert ckpt.n_saves >= 2
        # keep policy: only the newest files survive
        assert len(list((tmp_path / "ck").glob("serial-*.ckpt"))) <= ckpt.keep

    def test_crash_then_resume_matches_baseline(
        self, dart_tiny, tiny_sim_config, tmp_path
    ):
        baseline = _execute(dart_tiny, tiny_sim_config)
        directory = tmp_path / "ck"
        log = RecoveryLog(tmp_path / "recovery.jsonl")
        crashing = SerialCheckpointer(
            directory, every_events=400, recovery=log, crash_after_saves=2
        )
        with pytest.raises(SimulatedCrash):
            _execute(dart_tiny, tiny_sim_config, checkpointer=crashing)
        resumed = _execute(
            dart_tiny, tiny_sim_config,
            checkpointer=SerialCheckpointer(directory, every_events=400, recovery=log),
        )
        assert resumed.metrics == baseline.metrics
        events = [r["event"] for r in log.records()]
        assert event_types.EXECUTOR_RESUME in events

    def test_truncated_checkpoint_falls_back_to_predecessor(
        self, dart_tiny, tiny_sim_config, tmp_path
    ):
        baseline = _execute(dart_tiny, tiny_sim_config)
        directory = tmp_path / "ck"
        crashing = SerialCheckpointer(directory, every_events=400, crash_after_saves=3)
        with pytest.raises(SimulatedCrash):
            _execute(dart_tiny, tiny_sim_config, checkpointer=crashing)
        paths = sorted(directory.glob("serial-*.ckpt"))
        assert len(paths) >= 2
        newest = paths[-1]
        newest.write_bytes(newest.read_bytes()[:50])
        log = RecoveryLog(tmp_path / "recovery.jsonl")
        resumed = _execute(
            dart_tiny, tiny_sim_config,
            checkpointer=SerialCheckpointer(directory, every_events=400, recovery=log),
        )
        assert resumed.metrics == baseline.metrics
        restores = [r for r in log.records()
                    if r["event"] == event_types.EXECUTOR_RESUME]
        assert restores and restores[0]["checkpoint"] != newest.name


# -- resumable run directories -------------------------------------------------


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory, dart_tiny):
    path = tmp_path_factory.mktemp("trace") / "tiny.csv"
    trace_io.dump_trace(dart_tiny, path)
    return path


def tiny_spec(tiny_csv, **overrides):
    base = {
        "name": "ckpt-test",
        "trace": {"path": str(tiny_csv)},
        "sim": {"memory_kb": 2000, "rate": 150, "workload_scale": 0.02},
        "protocols": ["DTN-FLOW", "Direct"],
        "seeds": [1],
    }
    base.update(overrides)
    return ScenarioSpec.from_dict(base).validate()


class TestRunDirectories:
    def test_resumable_run_matches_plain_run(self, tiny_csv, tmp_path):
        spec = tiny_spec(tiny_csv)
        baseline = run_scenario(spec)
        rd = create_run(tmp_path / "rd", spec, every_events=400)
        result, infos = run_resumable(spec, rd, every_events=400)
        assert [r.metrics for r in result.results] == [
            r.metrics for r in baseline.results
        ]
        assert all(info["execution"]["mode"] == "serial" for info in infos)

    def test_completed_points_are_skipped_on_reentry(self, tiny_csv, tmp_path):
        spec = tiny_spec(tiny_csv)
        rd = create_run(tmp_path / "rd", spec, every_events=400)
        first, _ = run_resumable(spec, rd, every_events=400)
        again, _ = run_resumable(spec, rd, every_events=400)
        assert [r.metrics for r in again.results] == [
            r.metrics for r in first.results
        ]
        skips = [r for r in rd.recovery_log().records()
                 if r["event"] == event_types.EXECUTOR_RESUME
                 and r.get("kind") == "point"]
        assert len(skips) == spec.n_points()

    def test_resume_run_reads_everything_from_manifest(self, tiny_csv, tmp_path):
        spec = tiny_spec(tiny_csv)
        baseline = run_scenario(spec)
        create_run(tmp_path / "rd", spec, every_events=400)
        result, _, opened_spec = resume_run(tmp_path / "rd")
        assert opened_spec.as_dict() == spec.as_dict()
        assert [r.metrics for r in result.results] == [
            r.metrics for r in baseline.results
        ]

    def test_create_refuses_a_different_scenario(self, tiny_csv, tmp_path):
        create_run(tmp_path / "rd", tiny_spec(tiny_csv), every_events=400)
        other = tiny_spec(tiny_csv, protocols=["PROPHET"])
        with pytest.raises(CheckpointError, match="different scenario"):
            create_run(tmp_path / "rd", other)

    def test_create_is_reentrant_for_the_same_scenario(self, tiny_csv, tmp_path):
        spec = tiny_spec(tiny_csv)
        a = create_run(tmp_path / "rd", spec, every_events=400)
        b = create_run(tmp_path / "rd", spec, every_events=400)
        assert a.path == b.path

    def test_edited_manifest_fails_the_hash_check(self, tiny_csv, tmp_path):
        spec = tiny_spec(tiny_csv)
        rd = create_run(tmp_path / "rd", spec, every_events=400)
        manifest = rd.read_manifest()
        manifest["scenario"]["sim"]["rate_per_landmark_per_day"] = 999.0
        rd.manifest_path.write_text(__import__("json").dumps(manifest))
        with pytest.raises(CheckpointError, match="content hash mismatch"):
            open_run(tmp_path / "rd")

    def test_not_a_run_directory(self, tmp_path):
        with pytest.raises(CheckpointError, match="not a run directory"):
            open_run(tmp_path / "nothing-here")

    def test_corrupt_point_result_is_treated_as_unfinished(self, tmp_path):
        rd = RunDir.create(tmp_path / "rd", {"version": 1})
        rd.write_result(0, {"index": 0})
        path = rd.point_dir(0) / RunDir.RESULT
        path.write_bytes(path.read_bytes()[:30])
        assert rd.load_result(0) is None

    def test_reading_results_leaves_the_tree_unchanged(self, tmp_path):
        rd = RunDir.create(tmp_path / "rd", {"version": 1})
        rd.write_result(1, {"index": 1})
        before = sorted(rd.path.rglob("*"))
        assert rd.load_result(1) == {"index": 1}
        assert rd.load_result(7) is None  # a point that never ran
        assert sorted(rd.path.rglob("*")) == before
        assert [p.name for p in rd.point_dirs()] == ["001"]
