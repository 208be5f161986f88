"""Run directories and job records stored while sharded execution existed.

Such a record may hold a scenario with a ``shards`` key, and its content
hash covers that key.  ``ScenarioSpec`` now refuses the key, so both
readers go through :func:`repro.eval.resume.stored_scenario`: it checks
the declared hash against the scenario as stored, then drops ``shards``.
The run then continues on the serial engine: committed points are
restored, not re-run, the in-flight point restarts from scratch, and the
``shard*/`` and ``barrier-*.ckpt`` files it left are never read.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import main
from repro.eval import runner
from repro.eval.resume import stored_scenario
from repro.eval.scenario import run_scenario
from repro.serve import JobManager
from repro.sim.checkpoint import CheckpointError, RunDir, dump_checkpoint
from repro.store import content_hash

EVERY = 400
WAIT = 240.0


def physics(metrics: dict) -> dict:
    """Metric values only: provenance and phase timings are wall-clock."""
    out = dict(metrics)
    out.pop("provenance", None)
    out.pop("phase_timings", None)
    return out


@pytest.fixture(scope="module")
def two_points(tiny_scenario):
    """A 2-point grid and its uninterrupted serial results."""
    spec = tiny_scenario(name="stored-shards", protocols=["DTN-FLOW", "Direct"])
    spec = spec.validate()
    return spec, run_scenario(spec).results


def reference(results) -> list:
    return [physics(r.metrics.as_dict()) for r in results]


def sharded_scenario(spec) -> dict:
    return {**spec.as_dict(), "shards": 2}


def write_sharded_run_dir(path, spec, point0) -> RunDir:
    """A run dir as a sharded run left it when shard 1 of point 1 died.

    The manifest and its hashed scenario carry ``shards: 2``; point 0 is
    committed; point 1 holds epoch and barrier checkpoints only.
    """
    scenario = sharded_scenario(spec)
    rd = RunDir.create(path, {
        "version": 1,
        "kind": "scenario-run",
        "scenario": scenario,
        "content_hash": content_hash(scenario),
        "shards": 2,
        "every_events": EVERY,
    })
    execution = {"mode": "sharded", "shards": 2, "epochs": 7}
    rd.write_result(0, {"index": 0, "result": point0, "info": {"execution": execution}})
    point1 = rd.point_dir(1)
    for shard in (0, 1):
        (point1 / f"shard{shard}").mkdir(parents=True)
        dump_checkpoint(point1 / f"shard{shard}" / "epoch-000003.ckpt", {"epoch": 3})
    dump_checkpoint(point1 / "barrier-000003.ckpt", {"epoch": 3, "pending": [[], []]})
    with open(rd.recovery_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "ts": 0.0, "event": "executor.worker_dead", "shard": 1, "epoch": 4,
            "reason": "worker died: EOFError()",
        }) + "\n")
    return rd


def left_behind(rd: RunDir) -> dict:
    point1 = rd.point_dir(1)
    return {
        p.relative_to(point1).as_posix(): p.read_bytes()
        for p in sorted(point1.rglob("*.ckpt"))
        if p.name != RunDir.RESULT and p.parent.name != "serial"
    }


def test_resume_finishes_a_sharded_run_dir_serially(two_points, tmp_path, monkeypatch):
    spec, results = two_points
    rd = write_sharded_run_dir(tmp_path / "rd", spec, results[0])
    stale = left_behind(rd)
    assert sorted(stale) == [
        "barrier-000003.ckpt", "shard0/epoch-000003.ckpt", "shard1/epoch-000003.ckpt",
    ]
    ran = []
    run_entry = runner._run_entry

    def counting(trace, point, config, checkpointer=None):
        ran.append(point.protocol)
        return run_entry(trace, point, config, checkpointer)

    monkeypatch.setattr(runner, "_run_entry", counting)
    out = tmp_path / "resumed.json"
    assert main(["resume", str(rd.path), "--out", str(out)]) == 0
    assert ran == ["Direct"], "point 0 was committed and must not re-run"
    payload = json.loads(out.read_text())
    assert "shards" not in payload["scenario"]
    assert [physics(m) for m in payload["results"]] == reference(results)
    assert left_behind(rd) == stale
    resumed = [r for r in rd.recovery_log().records() if r["event"] == "executor.resume"]
    assert [(r.get("kind"), r.get("index")) for r in resumed] == [("point", 0)]


def test_a_restarted_server_finishes_a_sharded_job(two_points, tmp_path):
    spec, results = two_points
    job_dir = tmp_path / "runs" / "job-0001"
    write_sharded_run_dir(job_dir / "run", spec, results[0])
    scenario = sharded_scenario(spec)
    (job_dir / "job.json").write_text(json.dumps({
        "id": "job-0001",
        "state": "running",
        "label": "stored-shards",
        "scenario": scenario,
        "content_hash": content_hash(scenario),
        "submitted_at": 1.0,
        "started_at": 2.0,
        "finished_at": None,
        "error": None,
        "n_points": 2,
        "done_points": 1,
        "recorded": None,
    }))
    manager = JobManager(tmp_path / "runs", jobs=1, every_events=EVERY)
    (recovered,) = manager.start()
    try:
        deadline = time.monotonic() + WAIT
        while recovered.state != "done" and time.monotonic() < deadline:
            time.sleep(0.05)
        assert recovered.state == "done", recovered.error
    finally:
        manager.stop()
    assert [physics(r["metrics"]) for r in recovered.point_results()] == reference(results)


def test_the_stored_hash_still_guards_a_sharded_scenario(two_points):
    spec, _ = two_points
    scenario = sharded_scenario(spec)
    assert stored_scenario(scenario, content_hash(scenario), "x").as_dict() == spec.as_dict()
    with pytest.raises(CheckpointError, match="content hash mismatch"):
        stored_scenario(scenario, content_hash(spec.as_dict()), "x")
