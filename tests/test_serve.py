"""End-to-end tests for the ``repro serve`` experiment service.

Coverage map (ISSUE 10 satellite c):

* SSE plumbing: frame format, history replay, eviction, close semantics;
* HTTP job lifecycle over an ephemeral port: concurrent submissions from
  threads, FIFO completion, per-job SSE ordering, two-client isolation;
* store recording: an HTTP-submitted job writes the same rows as
  ``repro scenario run --record`` (re-ingest is a pure dedup no-op);
* cancellation: a running job stops with a checkpointed, resumable
  partial in its run directory;
* kill -9 emulation: abandon the manager mid-job, restart on the same
  run root, every unfinished job resumes to ``done`` with metrics
  identical to an uninterrupted batch run (zero tolerance);
* pool mode (``jobs=2``): points fan out over the shared worker pool;
* replay: request validation, batch-metric parity, dilated wall-clock
  pacing with monotonic timestamps, and the HTTP SSE endpoint;
* the sweep progress-drain stop gate (satellite b).
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.eval.scenario import ScenarioSpec, run_scenario
from repro.serve import (
    JobManager,
    ReplayRequest,
    ServeClient,
    ServeError,
    make_server,
    replay_stream,
)
from repro.serve.client import parse_sse
from repro.serve.sse import HEARTBEAT_FRAME, EventStream, sse_frame
from repro.sim.checkpoint import RunDir
from repro.store import ExperimentDB, ingest_scenario_result, query_points

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

WAIT = 240.0  # generous terminal-state deadline for loaded CI machines


def scenario(name: str, protocols=("Direct",), seeds=(1,), scale=0.02) -> dict:
    """A tiny DART scenario manifest (sub-second per Direct point)."""
    return {
        "name": name,
        "trace": {"profile": "DART", "seed": 1},
        "sim": {"workload_scale": scale},
        "protocols": list(protocols),
        "seeds": list(seeds),
    }


def physics(metrics: dict) -> dict:
    """Strip wall-clock telemetry; what's left must match bit-for-bit."""
    out = dict(metrics)
    out.pop("provenance", None)
    out.pop("phase_timings", None)
    return out


def batch_metrics(manifest: dict) -> list:
    """Reference per-point metrics from an uninterrupted batch run."""
    spec = ScenarioSpec.from_dict(manifest).validate()
    res = run_scenario(spec)
    return [physics(r.metrics.as_dict()) for r in res.results]


def wait_all_done(manager: JobManager, deadline: float = WAIT) -> None:
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if all(j.state == "done" for j in manager.list_jobs()):
            return
        time.sleep(0.05)
    states = {j.id: j.state for j in manager.list_jobs()}
    raise AssertionError(f"jobs not done after {deadline}s: {states}")


# ---------------------------------------------------------------------------
# SSE plumbing
# ---------------------------------------------------------------------------


def test_sse_frame_and_parse_roundtrip():
    frame = sse_frame("point.finished", {"index": 2, "ok": True}, id=7)
    assert frame == (
        b'id: 7\nevent: point.finished\ndata: {"index": 2, "ok": true}\n\n'
    )
    # parse_sse skips heartbeat comments and reassembles frames
    wire = HEARTBEAT_FRAME + frame + sse_frame("job.finished", {"id": "j"})
    events = list(parse_sse(iter(wire.splitlines(keepends=True))))
    assert events == [
        ("point.finished", {"index": 2, "ok": True}),
        ("job.finished", {"id": "j"}),
    ]


def test_event_stream_history_eviction_and_close():
    stream = EventStream(capacity=3)
    ids = [stream.publish("e", {"n": n}) for n in range(5)]
    assert ids == [1, 2, 3, 4, 5]  # ids are monotonic from 1
    assert stream.n_evicted == 2
    # evicted history resumes from the oldest retained record
    assert [e[2]["n"] for e in stream.events_since(0)] == [2, 3, 4]
    assert [e[2]["n"] for e in stream.events_since(4)] == [4]
    stream.close()
    stream.close()  # idempotent
    # a late subscriber drains retained history, then the stream ends
    frames = list(stream.subscribe(0, heartbeat=0.01))
    assert len(frames) == 3
    assert all(f != HEARTBEAT_FRAME for f in frames)


def test_event_stream_subscriber_wakes_on_publish():
    stream = EventStream()
    got = []

    def consume():
        for frame in stream.subscribe(0, heartbeat=30.0):
            got.append(frame)

    t = threading.Thread(target=consume, daemon=True)
    t.start()
    time.sleep(0.05)  # let the subscriber park in wait()
    stream.publish("a", {"x": 1})
    stream.publish("b", {"x": 2})
    stream.close()
    t.join(timeout=5.0)
    assert not t.is_alive()
    assert len(got) == 2


# ---------------------------------------------------------------------------
# HTTP service: lifecycle, FIFO, SSE isolation, store parity
# ---------------------------------------------------------------------------


@pytest.fixture()
def server(tmp_path):
    srv = make_server(
        "127.0.0.1",
        0,
        run_root=str(tmp_path / "serve-runs"),
        db_path=str(tmp_path / "store.sqlite"),
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    client = ServeClient(f"http://{host}:{port}", timeout=WAIT)
    try:
        yield srv, client
    finally:
        srv.shutdown()
        srv.manager.stop()
        srv.server_close()
        thread.join(timeout=5.0)


def test_jobs_submitted_from_threads_complete_fifo(server):
    srv, client = server
    manifests = [scenario(f"fifo-{i}", seeds=(i + 1,)) for i in range(3)]
    submitted = [None] * 3
    barrier = threading.Barrier(3)

    def submit(i):
        barrier.wait()
        submitted[i] = client.submit(manifests[i], label=f"fifo-{i}")

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert all(rec is not None for rec in submitted)
    ids = sorted(rec["id"] for rec in submitted)
    assert len(set(ids)) == 3

    finals = {jid: client.wait(jid, timeout=WAIT) for jid in ids}
    assert all(rec["state"] == "done" for rec in finals.values())
    # strict FIFO: completion order == id (submission) order
    finish_times = [finals[jid]["finished_at"] for jid in ids]
    assert finish_times == sorted(finish_times)

    # per-job SSE stream: complete, ordered lifecycle
    for jid in ids:
        events = [e for e, _ in client.events(jid)]
        assert events[0] == "job.queued"
        assert events[1] == "job.started"
        assert events[-1] == "job.finished"
        assert events.count("point.finished") == 1
        assert events.index("point.started") < events.index("point.finished")

    # ?results=1 exposes the committed per-point metrics
    detail = client.job(ids[0], results=True)
    assert len(detail["results"]) == 1
    assert detail["results"][0]["metrics"]["success_rate"] >= 0


def test_two_sse_clients_see_only_their_own_job(server):
    srv, client = server
    ja = client.submit(scenario("iso-a", protocols=("Direct", "Epidemic")))
    jb = client.submit(scenario("iso-b", seeds=(2,)))
    streams: dict = {}

    def consume(jid):
        streams[jid] = list(client.events(jid))

    threads = [
        threading.Thread(target=consume, args=(jid,))
        for jid in (ja["id"], jb["id"])
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=WAIT)
    assert set(streams) == {ja["id"], jb["id"]}
    for jid, other in ((ja["id"], jb["id"]), (jb["id"], ja["id"])):
        assert streams[jid], f"no events for {jid}"
        for event, data in streams[jid]:
            if "id" in data:
                assert data["id"] == jid  # never the other job's id
        # the stream carries exactly this job's point count
        n_points = client.job(jid)["n_points"]
        finished = [e for e, _ in streams[jid] if e == "point.finished"]
        assert len(finished) == n_points

    # resuming a stream past ``after`` skips the replayed prefix
    first_id = 1
    resumed = list(client.events(ja["id"], after=first_id))
    full = streams[ja["id"]]
    assert [e for e, _ in resumed] == [e for e, _ in full][first_id:]


def test_http_recording_matches_cli_record_path(server, tmp_path):
    srv, client = server
    manifest = scenario("parity", protocols=("Direct", "Epidemic"))
    job = client.submit(manifest)
    final = client.wait(job["id"], timeout=WAIT)
    assert final["state"] == "done"
    assert "2 new" in final["recorded"]

    # the exact CLI --record ingest on the same store is a pure dedup no-op
    spec = ScenarioSpec.from_dict(manifest).validate()
    res = run_scenario(spec)
    with ExperimentDB(str(tmp_path / "store.sqlite")) as db:
        stats = ingest_scenario_result(db, res)
        assert (stats.points_new, stats.points_dup) == (0, 2)
        rows = query_points(db)
    # and the stored rows carry the batch run's exact metric values
    stored = {(r.protocol): r.metrics for r in rows}
    for r in res.results:
        m = {
            k: float(v)
            for k, v in r.metrics.as_dict().items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        for key, value in m.items():
            if key in stored[r.protocol]:
                assert stored[r.protocol][key] == pytest.approx(value, abs=0)

    # the query endpoint mirrors ``repro db query --json``
    points = client.db_query(latest=1)
    assert {p["protocol"] for p in points} == {"Direct", "Epidemic"}
    assert client.db_report()  # JSON report renders from the same store


def test_rest_error_and_catalog_surface(server):
    srv, client = server
    assert client.health()["ok"] is True
    presets = client.scenarios()
    assert any(p["name"].startswith("fig11") for p in presets)

    with pytest.raises(ServeError) as err:
        client.job("job-9999")
    assert err.value.status == 404
    with pytest.raises(ServeError) as err:
        client.submit({"trace": {"profile": "DART"}, "protocols": ["NOPE"]})
    assert err.value.status == 400
    with pytest.raises(ServeError) as err:
        client.submit({"trace": {"profile": "DART"}, "shards": 2})
    assert err.value.status == 400
    assert "'shards' was removed" in str(err.value)
    with pytest.raises(ServeError) as err:
        client._request("GET", "/v1/nope")
    assert err.value.status == 404
    # regress endpoint validates its parameter contract
    with pytest.raises(ServeError) as err:
        client.db_regress()
    assert err.value.status == 400


# ---------------------------------------------------------------------------
# cancellation and restart recovery
# ---------------------------------------------------------------------------


def test_cancel_running_job_leaves_resumable_partial(tmp_path):
    manager = JobManager(tmp_path / "runs", db_path=str(tmp_path / "db.sqlite"))
    manager.start()
    try:
        # 5 points: cancel lands well before the tail finishes
        job = manager.submit(scenario("cancel", seeds=(1, 2, 3, 4, 5)))
        deadline = time.monotonic() + WAIT
        while job.done_points < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert job.done_points >= 1
        manager.cancel(job.id)
        while job.state not in ("cancelled", "done") and time.monotonic() < deadline:
            time.sleep(0.02)
        assert job.state == "cancelled"
        assert 1 <= job.done_points < job.n_points

        # the durable record agrees, and the run dir holds the partial
        durable = json.loads((job.path / "job.json").read_text())
        assert durable["state"] == "cancelled"
        rd = RunDir(job.run_path)
        committed = [i for i in range(job.n_points) if rd.load_result(i)]
        assert len(committed) == job.done_points
        results = job.point_results()
        assert sum(r is not None for r in results) == job.done_points
        # the checkpointed partial went into the store under ":partial"
        assert "point(s)" in (job.recorded or "")
    finally:
        manager.stop()

    # queued jobs cancel instantly without ever running
    manager2 = JobManager(tmp_path / "runs2")
    manager2.start()
    try:
        a = manager2.submit(scenario("run-a", seeds=(1, 2, 3)))
        b = manager2.submit(scenario("never-runs"))
        cancelled = manager2.cancel(b.id)
        assert cancelled.state == "cancelled"
        assert manager2.cancel(b.id).state == "cancelled"  # idempotent
        deadline = time.monotonic() + WAIT
        while a.state != "done" and time.monotonic() < deadline:
            time.sleep(0.05)
        assert a.state == "done"
    finally:
        manager2.stop()


def test_kill_restart_recovers_queued_jobs_with_metric_parity(tmp_path):
    m1 = scenario("kr-1", protocols=("Direct", "Epidemic"))
    m2 = scenario("kr-2", seeds=(2,))
    first = JobManager(tmp_path / "runs", every_events=20_000)
    first.start()
    j1 = first.submit(m1)
    first.submit(m2)
    deadline = time.monotonic() + WAIT
    while j1.done_points < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert j1.done_points >= 1
    # kill -9 emulation: nothing persists from here on, so the durable
    # state still claims running/queued and recovery has real work to do
    first.stop(abandon=True)
    on_disk = json.loads((tmp_path / "runs" / j1.id / "job.json").read_text())
    assert on_disk["state"] in ("running", "queued")

    second = JobManager(tmp_path / "runs", every_events=20_000)
    recovered = second.start()
    try:
        assert [j.id for j in recovered] == ["job-0001", "job-0002"]
        # recovery announced itself on each job's fresh stream
        for job in recovered:
            events = [ev for _, ev, _ in job.stream.events_since(0)]
            assert "job.requeued" in events
        wait_all_done(second)
        # new submissions don't collide with recovered ids
        j3 = second.submit(scenario("kr-3"))
        assert j3.id == "job-0003"
        wait_all_done(second)

        # zero-tolerance parity with uninterrupted batch runs
        for manifest, jid in ((m1, "job-0001"), (m2, "job-0002")):
            job = second.get(jid)
            expected = batch_metrics(manifest)
            got = [physics(r["metrics"]) for r in job.point_results()]
            assert got == expected  # exact equality, no tolerance
    finally:
        second.stop()


def test_pool_mode_fans_points_over_shared_workers(tmp_path):
    manager = JobManager(tmp_path / "runs", jobs=2)
    manager.start()
    try:
        job = manager.submit(scenario("pool", seeds=(1, 2, 3)))
        deadline = time.monotonic() + WAIT
        while job.state != "done" and time.monotonic() < deadline:
            time.sleep(0.05)
        assert job.state == "done"
        assert job.done_points == 3
        results = job.point_results()
        assert all(r is not None for r in results)
        finished = [
            d for _, e, d in job.stream.events_since(0) if e == "point.finished"
        ]
        assert sorted(d["index"] for d in finished) == [0, 1, 2]
        # pool results match the serial batch run exactly
        assert [physics(r["metrics"]) for r in results] == batch_metrics(
            scenario("pool", seeds=(1, 2, 3))
        )
    finally:
        manager.stop()


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def test_replay_request_validation():
    multi = scenario("multi", protocols=("Direct", "Epidemic"))
    with pytest.raises(ValueError, match="single-point"):
        ReplayRequest.from_payload({"scenario": multi})
    with pytest.raises(ValueError, match="speed"):
        ReplayRequest.from_payload({"scenario": scenario("s"), "speed": -1})
    with pytest.raises(ValueError, match="limit"):
        ReplayRequest.from_payload({"scenario": scenario("s"), "limit": 0})
    with pytest.raises(ValueError, match="unknown event"):
        ReplayRequest.from_payload(
            {"scenario": scenario("s"), "events": ["packet.teleported"]}
        )
    with pytest.raises(ValueError, match="exactly one"):
        ReplayRequest.from_payload({})
    with pytest.raises(ValueError, match="exactly one"):
        ReplayRequest.from_payload({"scenario": scenario("s"), "point": "abc"})
    with pytest.raises(ValueError, match="store"):
        ReplayRequest.from_payload({"point": "abc"})  # no db_path


def test_replay_metrics_match_batch_and_pacing_dilates(tmp_path):
    manifest = scenario("replay")
    streamed: list = []

    request = ReplayRequest.from_payload({"scenario": manifest, "speed": 0})
    summary = replay_stream(request, lambda e, d: streamed.append((e, d)))
    assert summary["events_streamed"] == len(streamed) > 0
    # replay pacing never changes the physics: metrics are bit-identical
    assert physics(summary["metrics"]) == batch_metrics(manifest)[0]
    # sim timestamps arrive in order, seq is 1-based and dense
    ts = [d["t"] for _, d in streamed]
    assert ts == sorted(ts)
    assert [d["seq"] for _, d in streamed] == list(range(1, len(streamed) + 1))

    # paced replay: wall clock tracks sim time / speed, monotonically
    speed = 500_000.0  # fast enough to keep the test quick
    limit = 40
    paced: list = []
    request = ReplayRequest.from_payload(
        {"scenario": manifest, "speed": speed, "limit": limit}
    )
    summary = replay_stream(request, lambda e, d: paced.append(d))
    assert summary["events_streamed"] == limit
    assert physics(summary["metrics"]) == batch_metrics(manifest)[0]
    walls = [d["wall_s"] for d in paced]
    assert walls == sorted(walls)  # dilated timestamps stay monotonic
    t0 = paced[0]["t"]
    for d in paced:
        # each event waited at least its dilated offset (minus sleep slop)
        assert d["wall_s"] >= (d["t"] - t0) / speed - 0.05


def test_replay_http_endpoint_streams_and_finishes(server):
    srv, client = server
    frames = list(client.replay(scenario("replay-http"), speed=0, limit=25))
    assert frames, "no SSE frames from /v1/replay"
    *body, (final_event, final_data) = frames
    assert final_event == "replay.finished"
    assert final_data["events_streamed"] == 25
    assert final_data["metrics"]["success_rate"] >= 0
    assert all(e != "replay.finished" for e, _ in body)

    # a bad request fails before the stream starts, as a JSON error
    with pytest.raises(ServeError) as err:
        list(client.replay(scenario("bad", protocols=("Direct", "Epidemic"))))
    assert err.value.status == 400


def test_replay_point_source_resurrects_stored_scenario(server):
    srv, client = server
    job = client.submit(scenario("stored"))
    final = client.wait(job["id"], timeout=WAIT)
    assert final["state"] == "done"
    rows = client.db_query(latest=1)
    shash = rows[0]["scenario_hash"]
    frames = list(client.replay(point=shash[:12], speed=0, limit=10))
    assert frames[-1][0] == "replay.finished"
    assert frames[-1][1]["events_streamed"] == 10


# ---------------------------------------------------------------------------
# CLI surface shared with the service
# ---------------------------------------------------------------------------


def test_scenario_list_json_matches_service_catalog(capsys):
    from repro.cli import main
    from repro.eval.scenario import preset_catalog

    assert main(["scenario", "list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == preset_catalog()
    assert any(p["name"] == "fig11-dart-memory" for p in payload)
    for entry in payload:
        assert {"name", "trace", "n_points", "protocols"} <= set(entry)
