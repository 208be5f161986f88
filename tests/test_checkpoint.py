"""Crash-safe execution plane: checkpoint framing, interrupt handling,
serial resume parity, and resumable run directories (docs/reliability.md).

The contract under test is the one ``repro resume`` sells: any
kill/resume sequence yields metrics bit-identical to an uninterrupted
run, and a corrupted checkpoint falls back to its predecessor instead of
loading garbage.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys

import pytest

from repro.core.routing_table import RouteEntry
from repro.eval.experiment import execute_config
from repro.eval.resume import create_run, open_run, resume_run, run_resumable
from repro.eval.runner import TraceSpec, execute
from repro.eval.scenario import ScenarioSpec, run_scenario
from repro.mobility import io as trace_io
from repro.obs import events as event_types
from repro.sim.checkpoint import (
    KEEP_CHECKPOINTS,
    CheckpointError,
    InterruptFlag,
    RecoveryLog,
    RunDir,
    SerialCheckpointer,
    SimulatedCrash,
    dump_checkpoint,
    load_checkpoint,
    read_frame,
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
        with pytest.raises(CheckpointError, match="integrity|truncated"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_frame(path, b"data")
        path.write_bytes(b"not-a-checkpoint" + path.read_bytes())
        with pytest.raises(CheckpointError):
            read_frame(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_frame(tmp_path / "nope.ckpt")
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.ckpt")

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
        assert len(list((tmp_path / "ck").glob("serial-*.ckpt"))) <= KEEP_CHECKPOINTS

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


class _PreTupleEntry:
    """Pickles as ``RouteEntry()``, which no longer loads: the failure a
    checkpoint written while ``RouteEntry`` was a frozen dataclass (whose
    pickle rebuilds it without arguments) meets after it became a tuple."""

    def __reduce__(self):
        return RouteEntry, ()


def make_unpicklable(path):
    """Re-frame checkpoint ``path`` so its digest holds but its pickle
    fails to load."""
    state = pickle.loads(read_frame(path))
    state["protocol"] = _PreTupleEntry()
    write_frame(path, pickle.dumps(state))
    with pytest.raises(CheckpointError, match="does not unpickle"):
        load_checkpoint(path)


def fallbacks_in(log):
    return [r for r in log.records() if r["event"] == event_types.EXECUTOR_FALLBACK]


class TestUnpicklableCheckpoints:
    """A checkpoint whose frame is intact but whose pickle no longer loads
    is skipped like a corrupted one: set aside, logged, never fatal."""

    def crashed(self, directory, dart_tiny, tiny_sim_config):
        crashing = SerialCheckpointer(directory, every_events=400, crash_after_saves=3)
        with pytest.raises(SimulatedCrash):
            _execute(dart_tiny, tiny_sim_config, checkpointer=crashing)
        paths = sorted(directory.glob("serial-*.ckpt"))
        assert [p.name for p in paths] == [
            f"serial-{800:012d}.ckpt", f"serial-{1200:012d}.ckpt"
        ]
        return paths

    def test_newest_restores_from_its_predecessor(
        self, dart_tiny, tiny_sim_config, tmp_path
    ):
        baseline = _execute(dart_tiny, tiny_sim_config)
        directory = tmp_path / "ck"
        older, newest = self.crashed(directory, dart_tiny, tiny_sim_config)
        make_unpicklable(newest)
        log = RecoveryLog(tmp_path / "recovery.jsonl")
        resumed = _execute(
            dart_tiny, tiny_sim_config,
            checkpointer=SerialCheckpointer(directory, every_events=400, recovery=log),
        )
        assert resumed.metrics == baseline.metrics
        (fallback,) = fallbacks_in(log)
        assert fallback["kind"] == "checkpoint"
        assert fallback["checkpoint"] == newest.name
        assert "does not unpickle" in fallback["reason"]
        restore = next(r for r in log.records()
                       if r["event"] == event_types.EXECUTOR_RESUME)
        assert restore["checkpoint"] == older.name
        assert (directory / (newest.name + ".bad")).is_file()

    def test_all_unpicklable_starts_fresh_and_keeps_its_own_saves(
        self, dart_tiny, tiny_sim_config, tmp_path
    ):
        baseline = _execute(dart_tiny, tiny_sim_config)
        directory = tmp_path / "ck"
        stale = self.crashed(directory, dart_tiny, tiny_sim_config)
        for path in stale:
            make_unpicklable(path)
        log = RecoveryLog(tmp_path / "recovery.jsonl")
        # a fresh start behind the stale files, crashing after its first save
        with pytest.raises(SimulatedCrash):
            _execute(dart_tiny, tiny_sim_config, checkpointer=SerialCheckpointer(
                directory, every_events=400, recovery=log, crash_after_saves=1,
            ))
        assert sorted(r["checkpoint"] for r in fallbacks_in(log)) == [
            p.name for p in stale
        ]
        assert not any(r["event"] == event_types.EXECUTOR_RESUME for r in log.records())
        first = f"serial-{400:012d}.ckpt"
        assert [p.name for p in directory.glob("serial-*.ckpt")] == [first]
        resumed = _execute(
            dart_tiny, tiny_sim_config,
            checkpointer=SerialCheckpointer(directory, every_events=400, recovery=log),
        )
        assert resumed.metrics == baseline.metrics
        (restore,) = [r for r in log.records()
                      if r["event"] == event_types.EXECUTOR_RESUME]
        assert restore["checkpoint"] == first
        assert len(fallbacks_in(log)) == 2


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

    def test_scenario_run_dir_runs_jobs_workers(self, tmp_path, capsys):
        """``scenario run --run-dir D --jobs 2`` runs its points over a
        pool, to the metrics of a serial run."""
        from repro.cli import main

        manifest = {
            "trace": {"profile": "DNET", "seed": 1},
            "sim": {"memory_kb": 2000, "rate": 100, "workload_scale": 0.05},
            "protocols": ["Direct", "DTN-FLOW"],
            "seeds": [1],
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(manifest))
        argv = ["scenario", "run", str(path), "--run-dir", str(tmp_path / "rd"),
                "--jobs", "2", "--json"]
        assert main(argv) == 0
        pooled = json.loads(capsys.readouterr().out)["results"]
        rd = RunDir(tmp_path / "rd")
        modes = [rd.load_result(i)["info"]["execution"]["mode"] for i in range(2)]
        assert modes == ["pool", "pool"]
        serial = run_scenario(ScenarioSpec.from_dict(manifest).validate())
        assert pooled == json.loads(json.dumps(
            [r.metrics.as_dict() for r in serial.results]
        ))

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

    def test_unpicklable_point_result_reruns_its_point(self, tiny_csv, tmp_path):
        spec = tiny_spec(tiny_csv)
        rd = create_run(tmp_path / "rd", spec, every_events=400)
        first, _ = run_resumable(spec, rd, every_events=400)
        path = rd.point_dir(0) / RunDir.RESULT
        write_frame(path, pickle.dumps(_PreTupleEntry()))
        again, _ = run_resumable(spec, rd, every_events=400)
        assert [r.metrics for r in again.results] == [
            r.metrics for r in first.results
        ]
        (fallback,) = records_of(rd, event_types.EXECUTOR_FALLBACK)
        assert fallback["kind"] == "checkpoint"
        assert fallback["checkpoint"] == RunDir.RESULT and fallback["index"] == 0
        skipped = [r["index"] for r in records_of(rd, event_types.EXECUTOR_RESUME)
                   if r.get("kind") == "point"]
        assert skipped == [1]
        assert rd.load_result(0) is not None  # the re-run committed a new one

    def test_reading_results_leaves_the_tree_unchanged(self, tmp_path):
        rd = RunDir.create(tmp_path / "rd", {"version": 1})
        rd.write_result(1, {"index": 1})
        before = sorted(rd.path.rglob("*"))
        assert rd.load_result(1) == {"index": 1}
        assert rd.load_result(7) is None  # a point that never ran
        assert sorted(rd.path.rglob("*")) == before
        assert [p.name for p in rd.point_dirs()] == ["001"]


# -- the trace a run directory keeps -------------------------------------------

#: serial checkpoint cadence of the small-DART point below (~25k events)
EVERY = 2000


@pytest.fixture(scope="module")
def dart_point():
    """A small-DART profile point: spec, trace spec, built trace, and the
    metrics of its uninterrupted run."""
    spec = ScenarioSpec.from_dict({
        "name": "ckpt-trace",
        "trace": {"profile": "DART", "seed": 1, "full_scale": False},
        "sim": {"memory_kb": 2000, "rate": 150, "workload_scale": 0.05},
        "protocols": ["DTN-FLOW"],
        "seeds": [1],
    }).validate()
    _, tspec, _ = spec.resolve_trace()
    trace = tspec.materialize()
    baseline = run_scenario(spec, traces={tspec.key: trace})
    return spec, tspec, trace, baseline.results[0].metrics


def crashed_run(path, dart_point):
    """A run directory whose point crashed right after its 2nd save."""
    spec, tspec, trace, _ = dart_point
    rd = create_run(path, spec, every_events=EVERY)
    with pytest.raises(SimulatedCrash):
        run_resumable(
            spec, rd, every_events=EVERY, trace_cache={tspec.key: trace},
            injections={0: {"crash_after_saves": 2}},
        )
    return rd


def records_of(rd, etype):
    return [r for r in rd.recovery_log().records() if r["event"] == etype]


def numeric(metrics):
    return {k: v for k, v in metrics.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


def _no_rebuild(self):
    raise AssertionError(f"trace {self.key} was rebuilt")


class TestRunDirTrace:
    def test_resume_reads_the_trace_back(self, dart_point, tmp_path, monkeypatch):
        _, tspec, trace, want = dart_point
        rd = crashed_run(tmp_path / "rd", dart_point)
        assert [p.name for p in (rd.path / RunDir.TRACES).iterdir()] == [
            rd.trace_path(tspec.key).name
        ]
        monkeypatch.setattr(TraceSpec, "materialize", _no_rebuild)
        result, _, _ = resume_run(rd.path)
        assert result.results[0].metrics == want
        (resume,) = records_of(rd, event_types.EXECUTOR_RESUME)
        assert resume["trace"] == "run-dir"
        assert resume["checkpoint"] == f"serial-{2 * EVERY:012d}.ckpt"
        assert not records_of(rd, event_types.EXECUTOR_FALLBACK)
        assert RunDir(rd.path).read_trace(tspec.key).records == trace.records

    @pytest.mark.parametrize("damage", ["truncate", "flip", "rekey"])
    def test_damaged_trace_file_is_rebuilt(self, damage, dart_point, tmp_path):
        _, tspec, trace, want = dart_point
        rd = crashed_run(tmp_path / "rd", dart_point)
        path = rd.trace_path(tspec.key)
        blob = path.read_bytes()
        if damage == "truncate":
            path.write_bytes(blob[: len(blob) // 2])
        elif damage == "flip":
            i = len(blob) // 2
            path.write_bytes(blob[:i] + bytes([blob[i] ^ 0x01]) + blob[i + 1:])
        else:  # a well-framed file holding another spec's trace
            other = TraceSpec.from_profile("DART", 2, full_scale=False).key
            _, _, csv = read_frame(path).partition(b"\n")
            write_frame(path, other.encode("utf-8") + b"\n" + csv)
        result, _, _ = resume_run(rd.path)
        assert result.results[0].metrics == want
        (fallback,) = records_of(rd, event_types.EXECUTOR_FALLBACK)
        assert fallback["kind"] == "trace" and fallback["key"] == tspec.key
        (resume,) = records_of(rd, event_types.EXECUTOR_RESUME)
        assert resume["trace"] == "rebuilt"
        # the resume's first save stored the rebuilt trace again
        assert RunDir(rd.path).read_trace(tspec.key).records == trace.records

    def test_missing_trace_file_is_rebuilt_silently(self, dart_point, tmp_path):
        # every run directory made before traces were stored looks like this
        _, tspec, trace, want = dart_point
        rd = crashed_run(tmp_path / "rd", dart_point)
        rd.trace_path(tspec.key).unlink()
        result, _, _ = resume_run(rd.path)
        assert result.results[0].metrics == want
        assert not records_of(rd, event_types.EXECUTOR_FALLBACK)
        (resume,) = records_of(rd, event_types.EXECUTOR_RESUME)
        assert resume["trace"] == "rebuilt"
        assert RunDir(rd.path).read_trace(tspec.key).records == trace.records

    def test_cli_resume_in_a_fresh_interpreter(self, dart_point, tmp_path, child_env):
        spec, _, _, want = dart_point
        rd, out = tmp_path / "rd", tmp_path / "resumed.json"
        crash = (
            "import json, sys\n"
            "from repro.eval.resume import create_run, run_resumable\n"
            "from repro.eval.scenario import ScenarioSpec\n"
            "from repro.sim.checkpoint import SimulatedCrash\n"
            "spec = ScenarioSpec.from_dict(json.loads(sys.argv[1]))\n"
            f"rd = create_run(sys.argv[2], spec, every_events={EVERY})\n"
            "try:\n"
            f"    run_resumable(spec, rd, every_events={EVERY},\n"
            "                  injections={0: {'crash_after_saves': 2}})\n"
            "except SimulatedCrash:\n"
            "    sys.exit(3)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", crash, json.dumps(spec.as_dict()), str(rd)],
            env=child_env, capture_output=True, text=True,
        )
        assert proc.returncode == 3, proc.stderr
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "resume", str(rd), "--out", str(out)],
            env=child_env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        (got,) = json.loads(out.read_text())["results"]
        assert numeric(got) == numeric(want.as_dict())
        (resume,) = records_of(RunDir(rd), event_types.EXECUTOR_RESUME)
        assert resume["trace"] == "run-dir"


class TestRunDirHoldsOnlyWhatAResumeReads:
    """Point directories hold ``serial/`` only once a checkpoint was saved,
    and ``traces/`` holds profile traces only, written at a first save."""

    @staticmethod
    def leftovers(rd):
        return sorted(
            str(p.relative_to(rd.path)) for p in rd.path.rglob("*")
            if p.is_dir() and p.name in ("serial", RunDir.TRACES)
        )

    def test_a_point_that_never_saves(self, dart_point, tmp_path):
        spec, tspec, trace, want = dart_point
        rd = create_run(tmp_path / "rd", spec)  # default cadence: no save
        result, _ = run_resumable(spec, rd, trace_cache={tspec.key: trace})
        assert result.results[0].metrics == want
        assert rd.load_result(0) is not None
        assert self.leftovers(rd) == []

    def test_a_pool_run(self, dart_point, tmp_path):
        spec, tspec, trace, _ = dart_point
        spec = ScenarioSpec.from_dict(
            {**spec.as_dict(), "protocols": ["Direct"], "seeds": [1, 2]}
        ).validate()
        rd = create_run(tmp_path / "rd", spec, every_events=EVERY)
        results, infos = execute(
            spec.entries(), jobs=2, run_dir=rd, every_events=EVERY,
            traces={tspec.key: trace},
        )
        assert [info["execution"]["mode"] for info in infos] == ["pool", "pool"]
        assert all(rd.load_result(i) is not None for i in range(2))
        assert self.leftovers(rd) == []

    def test_a_path_trace_scenario(self, tiny_csv, tmp_path):
        spec = tiny_spec(tiny_csv)
        rd = create_run(tmp_path / "rd", spec)
        run_resumable(spec, rd)
        assert self.leftovers(rd) == []

    def test_path_traces_are_never_written(self, tiny_csv, tmp_path):
        spec = tiny_spec(tiny_csv)
        rd = create_run(tmp_path / "rd", spec, every_events=400)
        run_resumable(spec, rd, every_events=400)
        assert records_of(rd, event_types.EXECUTOR_CHECKPOINT)
        assert not (rd.path / RunDir.TRACES).exists()

    def test_one_trace_file_per_profile(self, dart_point, tmp_path):
        spec, tspec, trace, _ = dart_point
        spec = ScenarioSpec.from_dict(
            {**spec.as_dict(), "protocols": ["Direct"], "seeds": [1, 2]}
        ).validate()
        rd = create_run(tmp_path / "rd", spec, every_events=EVERY)
        run_resumable(spec, rd, every_events=EVERY, trace_cache={tspec.key: trace})
        assert [p.name for p in (rd.path / RunDir.TRACES).iterdir()] == [
            rd.trace_path(tspec.key).name
        ]
        assert self.leftovers(rd) == ["points/000/serial", "points/001/serial", "traces"]
