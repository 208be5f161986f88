"""One executor, every path: executor parity on a tiny 3-point grid.

Every way of running a grid — ``run_point_specs`` in-process and over a
pool, a fresh resumable run, a crash then ``resume_run``, a cancel then a
resume, and ``repro serve``'s job manager in-process and over its
long-lived pool — goes through :func:`repro.eval.runner.execute`.
They must all land on identical metric values, report exactly one
``started`` and one ``finished`` event (with the measured ``seconds``) per
executed point, and go quiet once :class:`SweepInterrupted` is raised.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

from repro.eval.resume import create_run, resume_run, run_resumable
from repro.eval.runner import SweepInterrupted, run_point_specs
from repro.eval.scenario import ScenarioSpec
from repro.mobility import io as trace_io
from repro.obs import events as event_types
from repro.serve import JobManager
from repro.sim.checkpoint import InterruptFlag, SimulatedCrash

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

EVERY = 400  # ~5 checkpoints per point on the tiny trace
WAIT = 240.0


@pytest.fixture(scope="module")
def spec(tmp_path_factory, dart_tiny):
    path = tmp_path_factory.mktemp("trace") / "tiny.csv"
    trace_io.dump_trace(dart_tiny, path)
    return ScenarioSpec.from_dict({
        "name": "executor-parity",
        "trace": {"path": str(path)},
        "sim": {"memory_kb": 2000, "rate": 150, "workload_scale": 0.02},
        # station relay, direct delivery and node-node contacts
        "protocols": ["DTN-FLOW", "Direct", "Epidemic"],
        "seeds": [1],
    }).validate()


def physics(metrics: dict) -> dict:
    """Metric values only: provenance and phase timings are wall-clock."""
    out = dict(metrics)
    out.pop("provenance", None)
    out.pop("phase_timings", None)
    return out


def values(results) -> list:
    return [physics(r.metrics.as_dict()) for r in results]


@pytest.fixture(scope="module")
def reference(spec):
    return values(run_point_specs(spec.entries(), jobs=1))


class Recorder:
    """A progress callback keeping every event, optionally acting on each."""

    def __init__(self, act=None) -> None:
        self.events: list = []
        self.act = act

    def __call__(self, event) -> None:
        self.events.append(event)
        if self.act is not None:
            self.act(event)

    def assert_one_pair_per_point(self, executed) -> None:
        started = [e.index for e in self.events if e.kind == "started"]
        finished = [e for e in self.events if e.kind == "finished"]
        assert sorted(started) == sorted(executed)
        assert sorted(e.index for e in finished) == sorted(executed)
        assert all(e.seconds is not None and e.seconds > 0 for e in finished)
        assert all(e.result is not None for e in finished)

    def assert_quiet(self) -> None:
        """No event may arrive once the interrupt has been raised."""
        seen = len(self.events)
        time.sleep(0.5)
        assert len(self.events) == seen


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_point_specs(spec, reference, jobs):
    rec = Recorder()
    results = run_point_specs(spec.entries(), jobs=jobs, progress=rec)
    assert values(results) == reference
    rec.assert_one_pair_per_point([0, 1, 2])


def test_fresh_run_resumable(spec, reference, tmp_path):
    rd = create_run(tmp_path / "rd", spec, every_events=EVERY)
    rec = Recorder()
    result, infos = run_resumable(spec, rd, every_events=EVERY, progress=rec)
    assert values(result.results) == reference
    rec.assert_one_pair_per_point([0, 1, 2])
    assert [info["execution"]["mode"] for info in infos] == ["serial"] * 3


def test_crash_after_second_save_then_resume(spec, reference, tmp_path):
    rd = create_run(tmp_path / "rd", spec, every_events=EVERY)
    rec = Recorder()
    with pytest.raises(SimulatedCrash):
        run_resumable(spec, rd, every_events=EVERY, progress=rec,
                      injections={1: {"crash_after_saves": 2}})
    assert [(e.kind, e.index) for e in rec.events] == [
        ("started", 0), ("finished", 0), ("started", 1),
    ]
    result, _, _ = resume_run(rd.path)
    assert values(result.results) == reference
    resumes = [r for r in rd.recovery_log().records()
               if r["event"] == event_types.EXECUTOR_RESUME]
    assert {r.get("kind") for r in resumes} == {"point", None}
    assert any(r.get("n_dispatched") == 2 * EVERY for r in resumes)


def test_cancel_through_the_flag_then_resume(spec, reference, tmp_path):
    rd = create_run(tmp_path / "rd", spec, every_events=EVERY)
    flag = InterruptFlag()

    def cancel_at_point_1(event) -> None:
        if event.kind == "started" and event.index == 1:
            flag.triggered = True

    rec = Recorder(cancel_at_point_1)
    with pytest.raises(SweepInterrupted) as err:
        run_resumable(spec, rd, every_events=EVERY, progress=rec, flag=flag)
    rec.assert_quiet()
    assert [r is not None for r in err.value.results] == [True, False, False]
    interrupts = [r for r in rd.recovery_log().records()
                  if r["event"] == event_types.EXECUTOR_INTERRUPT]
    assert interrupts  # point 1 flushed its state on the way out

    rec = Recorder()
    result, _ = run_resumable(spec, rd, every_events=EVERY, progress=rec)
    assert values(result.results) == reference
    # point 0 is restored first, not re-run; points 1 and 2 execute
    first = rec.events.pop(0)
    assert (first.kind, first.index, first.seconds) == ("finished", 0, None)
    rec.assert_one_pair_per_point([1, 2])


def test_interrupted_pool_goes_quiet(spec, reference):
    def interrupt_on_first_result(event) -> None:
        if event.kind == "finished":
            raise KeyboardInterrupt  # a SIGINT mid-sweep

    rec = Recorder(interrupt_on_first_result)
    with pytest.raises(SweepInterrupted) as err:
        run_point_specs(spec.entries(), jobs=2, progress=rec)
    rec.assert_quiet()
    done = [i for i, r in enumerate(err.value.results) if r is not None]
    assert len(done) == 1
    assert values([err.value.results[done[0]]]) == [reference[done[0]]]


@pytest.mark.parametrize("jobs", [1, 2])
def test_job_manager(spec, reference, tmp_path, jobs):
    manager = JobManager(tmp_path / "runs", jobs=jobs, every_events=EVERY)
    manager.start()
    try:
        job = manager.submit(spec)
        deadline = time.monotonic() + WAIT
        while job.state != "done" and time.monotonic() < deadline:
            time.sleep(0.05)
        assert job.state == "done", job.error
        events = list(job.stream.events_since(0))
    finally:
        manager.stop()
    assert [physics(r["metrics"]) for r in job.point_results()] == reference
    started = [d for _, e, d in events if e == "point.started"]
    finished = [d for _, e, d in events if e == "point.finished"]
    assert sorted(d["index"] for d in started) == [0, 1, 2]
    assert sorted(d["index"] for d in finished) == [0, 1, 2]
    assert all(d["seconds"] > 0 for d in finished)
    # in-process points run in the server; pool hand-overs name no worker
    assert all((d["pid"] is None) == (jobs > 1) for d in started)


SPAWN_GRID = r"""
import json, multiprocessing, os, sys
from repro.eval.runner import run_point_specs
from repro.eval.scenario import ScenarioSpec

multiprocessing.set_start_method("spawn")
spec = ScenarioSpec.from_dict(json.loads(sys.argv[1])).validate()
entries = spec.entries()
trace_spec = entries[0][0]
trace = trace_spec.materialize()
os.unlink(trace_spec.path)  # from here on, only the built trace can run
finished = []
results = run_point_specs(
    entries, jobs=2, materialized={trace_spec.key: trace},
    progress=lambda e: finished.append(e.pid) if e.kind == "finished" else None,
)
metrics = []
for r in results:
    m = r.metrics.as_dict()
    m.pop("provenance", None)
    m.pop("phase_timings", None)
    metrics.append(m)
print(json.dumps({"metrics": metrics, "parent": os.getpid(), "pids": finished}))
"""


def test_spawned_pool_runs_the_parents_trace(spec, reference, tmp_path, child_env):
    """Built traces travel to spawned workers by pickle (macOS, and the
    forkserver default from Python 3.14) and give the jobs=1 metrics."""
    doc = spec.as_dict()
    doc["trace"] = {"path": str(tmp_path / "copy.csv")}
    shutil.copy(spec.trace.path, doc["trace"]["path"])
    proc = subprocess.run(
        [sys.executable, "-c", SPAWN_GRID, json.dumps(doc)],
        capture_output=True, text=True, env=child_env, timeout=WAIT,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["metrics"] == json.loads(json.dumps(reference))
    # every point ran in a worker: none failed over to the parent
    assert len(out["pids"]) == 3 and out["parent"] not in out["pids"]
    assert "re-running serially" not in proc.stderr
