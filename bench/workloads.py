"""The four benchmark workloads.

Each workload function runs one workload for about ``seconds``, checks its outputs
through a :class:`~bench.harness.Gate`, and returns a
:class:`~bench.harness.WorkloadRun`.  Every workload runs the same unit of
work two ways on the same inputs:

* the **direct** path — the library called serially in-process (or in a
  fresh child process where memory is measured): no pool, no shards, no
  server, no checkpoints;
* the **path under test** — the subsystem the workload exists for: the
  2-worker pool, 2 shards, ``repro serve --jobs 2``, or checkpointing
  with a crash and a resume.

The end-to-end metrics are named after that split (``direct_s`` vs
``wall_s`` ...; bench/README.md maps them per workload).  Every time they
report is host-scaled by a :class:`~bench.harness.HostClock`.  Sizes are
keyword arguments so tests can run every workload tiny.

With ``trace=True`` a workload function also runs an in-process *pass* of its work
twice, untraced then traced (see :mod:`bench.tracing`), and reports the
per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from datetime import datetime
from pathlib import Path
from statistics import fmean
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import make_protocol
from repro.eval import experiment, resume, runner, sharded
from repro.eval.scenario import ScenarioResult, ScenarioSpec, preset_scenario
from repro.mobility.stream import TraceStream
from repro.mobility.synthetic import CampusConfig, CampusMobilityModel
from repro.mobility.trace import days
from repro.serve import ServeClient, make_server
from repro.sim.checkpoint import RunDir, SimulatedCrash
from repro.sim.engine import SimConfig, Simulation
from repro.store import ExperimentDB, ingest

from bench.harness import (
    ROOT,
    BenchError,
    Gate,
    HostClock,
    WorkloadRun,
    children_rss_mb,
    cycles,
    median,
    metric_values,
    percentile,
    self_rss_mb,
    timed_median,
    tree_hwm_mb,
)
from bench.tracing import Tracer, traced

#: the fleet size is fixed so numbers stay comparable across hosts
FLEET = 2
BASELINES = ("PER", "PROPHET", "SimBet", "PGR", "GeoComm")


def _on_finished(sink: List[Any]) -> Callable[[Any], None]:
    """A progress callback keeping every timed ``finished`` event."""

    def on_progress(ev: Any) -> None:
        if ev.kind == "finished" and ev.seconds is not None:
            sink.append(ev)

    return on_progress


def _twin(run_pass: Callable[[Optional[Tracer]], None]) -> Tuple[Tracer, float, float]:
    """Run ``run_pass`` untraced, then traced; (tracer, untraced, traced) walls.

    The pass receives the active tracer (None when untraced) for any
    bench-side spans of its own.
    """
    t0 = perf_counter()
    run_pass(None)
    untraced = perf_counter() - t0
    tracer = Tracer()
    with traced(tracer):
        t0 = perf_counter()
        run_pass(tracer)
        wall = perf_counter() - t0
    return tracer, untraced, wall


def _span_metrics(
    tracer: Tracer, untraced: float, wall: float, ingested_points: int = 0
) -> Dict[str, float]:
    """Per-layer metrics read off the traced pass's spans."""
    t = tracer
    out: Dict[str, float] = {
        "engine.events": t.count("engine.dispatch"),
        "engine.dispatch_self_s": t.self_seconds("engine.run")
        + t.self_seconds("engine.dispatch"),
        "engine.transfers": t.count("engine.transfer"),
        "engine.transfer_s": t.self_seconds("engine.transfer"),
        "core.dtnflow.calls": t.count("core.dtnflow.hook"),
        "core.dtnflow.hook_s": t.self_seconds("core.dtnflow.hook"),
        "core.table_merges": t.count("core.table_merge"),
        "core.table_merge_s": t.self_seconds("core.table_merge"),
        "checkpoint.saves": t.count("checkpoint.save"),
        "trace.overhead_frac": wall / untraced - 1.0,
    }
    for name in BASELINES:
        out[f"baselines.{name}.hook_s"] = t.self_seconds(f"baselines.{name}.hook")
    for metric, span, per in (
        ("mobility.trace_build_s", "mobility.trace_build", "mobility.trace_build"),
        ("checkpoint.save_s", "checkpoint.save", "checkpoint.save"),
        ("checkpoint.restore_s", "checkpoint.restore", "checkpoint.install"),
    ):
        if t.count(per):
            out[metric] = t.total(span) / t.count(per)
    if ingested_points and t.count("store.ingest"):
        out["store.ingest_per_point_s"] = t.total("store.ingest") / ingested_points
    return out


def _trace_doc(tracer: Tracer, untraced: float, wall: float) -> Dict[str, Any]:
    return {
        "untraced_wall_s": untraced,
        "wall_s": wall,
        "layers": tracer.layers(),
        "spans": tracer.dump(),
    }


# -- fig11-sweep ------------------------------------------------------------------------


def fig11_spec(seed: int) -> ScenarioSpec:
    """Preset ``fig11-dart-memory`` with its seeds derived from ``seed``
    (trace seed ``seed``, sim seed ``seed + 2``: seed 1 is the preset)."""
    data = preset_scenario("fig11-dart-memory").as_dict()
    data["trace"] = {"profile": "DART", "seed": seed, "full_scale": False}
    data["seeds"] = [seed + 2]
    return ScenarioSpec.from_dict(data)


def fig11_sweep(
    *, seed: int, seconds: float, trace: bool, work: Path, clock: HostClock,
    points: Optional[int] = None,
) -> WorkloadRun:
    """The paper's headline sweep, serially and through the 2-worker pool.

    Unit: one memory column of the 6-protocol x 5-memory DART grid — the
    six protocols at one memory size — sent as one ``run_point_specs``
    call, so the pool's start-up, dispatch and result transport count.
    Cycle ``i`` runs column ``i`` (mod the column count) both ways; the
    columns differ by about 2% in cost.  ``points`` truncates the grid.
    """
    spec = fig11_spec(seed)
    profile, tspec, _ = spec.resolve_trace()
    entries = spec.entries(profile, tspec)[:points]
    by_memory: Dict[float, list] = {}
    for entry in entries:
        by_memory.setdefault(entry[1].memory_kb, []).append(entry)
    columns = list(by_memory.values())
    setup_s, dart = timed_median(clock, tspec.materialize)
    materialized = {tspec.key: dart}
    gate = Gate()
    pool_points: List[float] = []
    direct_walls: List[float] = []
    pool_walls: List[float] = []
    pool_starts: List[float] = []
    for i in cycles(seconds):
        column = columns[i % len(columns)]
        serial_s, serial = clock.time(
            runner.run_point_specs, column, jobs=1, materialized=materialized
        )
        called: List[float] = []
        started: List[float] = []
        finished: List[Any] = []
        record = _on_finished(finished)

        def on_pool(ev: Any) -> None:
            if ev.kind == "started":
                started.append(perf_counter())
            record(ev)

        def through_pool() -> list:
            called.append(perf_counter())
            return runner.run_point_specs(column, jobs=FLEET, progress=on_pool)

        pool_s, pooled = clock.time(through_pool)
        direct_walls.append(serial_s)
        pool_walls.append(pool_s)
        pool_starts.append(min(started) - called[0])
        pool_points += [ev.seconds for ev in finished]
        for (_, point, _), a, b in zip(column, serial, pooled):
            label = f"{point.protocol}@{point.memory_kb:g}kB"
            want = metric_values(a)
            gate.conserves(want, label)
            gate.same(metric_values(b), want, f"{label} jobs={FLEET} vs jobs=1")

    end_to_end = {
        "setup_s": setup_s,
        "direct_s": median(direct_walls),
        "wall_s": median(pool_walls),
        "direct_rss_mb": self_rss_mb(),
        "rss_mb": children_rss_mb(),
    }
    per_layer = {
        "host.speed": clock.speed(),
        "runner.pool_start_s": median(pool_starts),
        "runner.point_p50_s": median(pool_points),
        "runner.parallel_eff": median(direct_walls) / (FLEET * median(pool_walls)),
    }
    doc = None
    if trace:
        dbs = itertools.count()

        def run_pass(_: Optional[Tracer]) -> None:
            built = tspec.materialize()
            results = runner.run_point_specs(
                entries, jobs=1, materialized={tspec.key: built}
            )
            done = ScenarioResult(spec, [p for _, p, _ in entries], results)
            with ExperimentDB(work / f"fig11-{next(dbs)}.sqlite") as db:
                ingest.ingest_scenario_result(db, done)

        work.mkdir(parents=True, exist_ok=True)
        tracer, untraced, wall = _twin(run_pass)
        per_layer.update(_span_metrics(tracer, untraced, wall, ingested_points=len(entries)))
        doc = _trace_doc(tracer, untraced, wall)
    return WorkloadRun(end_to_end, per_layer, gate, doc)


# -- campus-stream ----------------------------------------------------------------------

#: 50 landmarks (10 departments x 3 buildings + 12 dorms + 4 dining + 3 misc
#: + library), 500 nodes, 5 days: ~16k visit records
CAMPUS = dict(
    n_nodes=500, n_departments=10, buildings_per_department=3, n_dorms=12,
    n_dining=4, n_misc=3, days=5, holidays=(),
)
#: the share of a run's seconds the serial child measures for; the sharded
#: child, about 3x slower per point but steadier, gets the rest
SERIAL_SHARE = 0.45


def campus_sim_config(seed: int) -> SimConfig:
    """DTN-FLOW tuned to the stream's 5-day span (a 0.5-day time unit
    instead of the 3-day default, which equals a short trace's length)."""
    return SimConfig(
        seed=seed,
        rate_per_landmark_per_day=20.0,
        workload_scale=0.1,
        node_memory_kb=2000.0,
        generation_end_fraction=0.7,
        time_unit=days(0.5),
        ttl=days(2.0),
    )


def _campus_stream(campus: Dict[str, Any], seed: int, meta: Optional[dict] = None) -> TraceStream:
    model = CampusMobilityModel(CampusConfig(**campus), seed=seed)
    if meta is None:
        return model.trace_stream("campus")  # scans once for metadata
    return TraceStream(model.stream_visits, name="campus", **meta)


def campus_child() -> None:
    """Run the campus point serially or sharded, again and again, for a
    number of seconds in a fresh interpreter.

    Reads ``{campus, seed, mode, meta, seconds}`` as JSON on stdin and
    writes its measurements as one JSON line on stdout: per run, the
    wall-clock start and end, the seconds and the metrics.
    """
    args = json.load(sys.stdin)
    campus, seed, mode = args["campus"], args["seed"], args["mode"]
    stream = _campus_stream(campus, seed, args["meta"])
    config = campus_sim_config(seed)
    out: Dict[str, Any] = {"runs": [], "metrics": []}

    def serial() -> Any:
        return Simulation(stream, make_protocol("DTN-FLOW"), config).run()

    def sharded_point() -> Any:
        t0 = perf_counter()
        plan = sharded.plan_shards(stream, FLEET, collect_records=False)
        out["plan_s"] = perf_counter() - t0
        result, info = sharded.run_sharded_point(
            stream, "DTN-FLOW", config, shards=FLEET, memory_kb=2000.0,
            rate=20.0, seed=seed, plan=plan, source_factory=stream.iter_records,
        )
        rss = info["max_rss_kb"]
        out["rss_kb"] = max(out.get("rss_kb", 0), *rss["shards"], rss["coordinator"])
        out["epochs"] = info["execution"]["epochs"]
        out["cross_transits"] = info["execution"]["cross_shard_transits"]
        out["mode"] = info["execution"]["mode"]
        return result.metrics

    for _ in cycles(args["seconds"]):
        start = time.time()
        t0 = perf_counter()
        summary = serial() if mode == "serial" else sharded_point()
        out["runs"].append((start, time.time(), perf_counter() - t0))
        out["metrics"].append(metric_values(summary))
        if mode != "serial":
            out["run_s"] = summary.phase_timings["shard.run"]["seconds"]
            out["merge_s"] = summary.phase_timings["shard.merge"]["seconds"]
    out["rss_mb"] = self_rss_mb() if mode == "serial" else out.pop("rss_kb") / 1024.0
    print(json.dumps(out))


def _in_child(args: Dict[str, Any], timeout: float = 170.0) -> Dict[str, Any]:
    """Run :func:`campus_child` in its own session and wait for it.

    A plain subprocess rather than a multiprocessing spawn, which would
    leave a resource-tracker process behind the benchmark.  Whatever the
    child leaves in its session (shard workers, if it dies) is killed.
    """
    mode = args["mode"]
    proc = subprocess.Popen(
        [sys.executable, "-c", "from bench.workloads import campus_child; campus_child()"],
        cwd=str(ROOT), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(json.dumps(args), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"campus child {mode} did not finish in {timeout:g}s") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"campus child {mode} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def campus_stream(
    *, seed: int, seconds: float, trace: bool, work: Path, clock: HostClock,
    campus: Optional[Dict[str, Any]] = None, min_success: float = 0.5,
) -> WorkloadRun:
    """One large streamed DTN-FLOW point, serial vs 2 shards: a fresh child
    process per path, each running the point for its share of ``seconds``.
    Unit: the point."""
    campus = dict(CAMPUS if campus is None else campus)
    setup_s, stream = timed_median(clock, lambda: _campus_stream(campus, seed))
    meta = dict(
        start_time=stream.start_time, end_time=stream.end_time,
        nodes=stream.nodes, landmarks=stream.landmarks, n_records=len(stream),
    )
    child = dict(campus=campus, seed=seed, meta=meta)
    serial = _in_child({**child, "mode": "serial", "seconds": seconds * SERIAL_SHARE})
    shard = _in_child({**child, "mode": "sharded", "seconds": seconds * (1 - SERIAL_SHARE)})
    gate = Gate()
    want = serial["metrics"][0]
    gate.conserves(want, "serial")
    gate.check(
        want["success_rate"] >= min_success,
        f"DTN-FLOW delivered {want['success_rate']:.3f} < {min_success} (degenerate regime)",
    )
    gate.check(shard["mode"] == "sharded", f"sharded run fell back: {shard['mode']}")
    for i, got in enumerate(serial["metrics"][1:], 1):
        gate.same(got, want, f"serial run {i} vs run 0")
    for i, got in enumerate(shard["metrics"]):
        gate.same(got, want, f"{FLEET} shards, run {i}, vs serial")

    end_to_end = {
        "setup_s": setup_s,
        "direct_s": median([clock.scale(s, a, b) for a, b, s in serial["runs"]]),
        "wall_s": median([clock.scale(s, a, b) for a, b, s in shard["runs"]]),
        "direct_rss_mb": serial["rss_mb"],
        "rss_mb": shard["rss_mb"],
    }
    per_layer = {
        "host.speed": clock.speed(),
        "shard.plan_s": shard["plan_s"],
        "shard.run_s": shard["run_s"],
        "shard.merge_s": shard["merge_s"],
        "shard.epochs": shard["epochs"],
        "shard.cross_transits": shard["cross_transits"],
        "shard.speedup": end_to_end["direct_s"] / end_to_end["wall_s"],
    }
    doc = None
    if trace:
        config = campus_sim_config(seed)

        def run_pass(tracer: Optional[Tracer]) -> None:
            Simulation(stream, make_protocol("DTN-FLOW"), config).run()
            with tracer.span("mobility.stream_pass") if tracer else nullcontext():
                for _ in stream.iter_records():
                    pass

        tracer, untraced, wall = _twin(run_pass)
        per_layer.update(_span_metrics(tracer, untraced, wall))
        per_layer["mobility.stream_pass_s"] = tracer.total("mobility.stream_pass")
        doc = _trace_doc(tracer, untraced, wall)
    return WorkloadRun(end_to_end, per_layer, gate, doc)


# -- serve-dnet -------------------------------------------------------------------------

SERVE_PROTOCOLS = ("DTN-FLOW", "PROPHET", "PER")
SERVE_RATES = (100.0, 300.0, 500.0, 700.0, 900.0)
#: the DNET map every run serves.  The small DNET generator draws 9-12
#: landmarks depending on its seed, which changes how much work a job is
#: rather than sampling the same work, so the map stays fixed and
#: ``--seed`` varies the traffic (sim seeds) instead
SERVE_MAP_SEED = 1
#: server launches timed per run; each takes over a second
SERVER_LAUNCHES = 3


def serve_job(seed: int, k: int) -> Dict[str, Any]:
    """Job ``k``: one DNET point cycling through the protocols and the
    packet rates, with its own sim seed."""
    return {
        "name": f"bench-dnet-{k}",
        "trace": {"profile": "DNET", "seed": SERVE_MAP_SEED, "full_scale": False},
        "sim": {"rate": SERVE_RATES[(k // len(SERVE_PROTOCOLS)) % len(SERVE_RATES)]},
        "protocols": [SERVE_PROTOCOLS[k % len(SERVE_PROTOCOLS)]],
        "seeds": [seed * 1000 + k],
    }


class _Server:
    """A real ``repro serve --jobs 2 --record`` subprocess."""

    def __init__(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.log_path = root / "server.log"
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
                "--port", "0", "--jobs", str(FLEET), "--run-root", str(root / "runs"),
                "--record", "--db", str(root / "serve.sqlite"),
            ],
            cwd=str(ROOT), stdout=subprocess.DEVNULL, stderr=self._log,
        )
        self.client = ServeClient(self._wait_for_address(), timeout=60.0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.client.health()
                return
            except OSError:
                if time.monotonic() > deadline:
                    self.stop()
                    raise BenchError("server bound but never became healthy") from None
                time.sleep(0.01)

    def _wait_for_address(self) -> str:
        deadline = time.monotonic() + 60.0
        marker = "listening on "
        while time.monotonic() < deadline:
            text = self.log_path.read_text()
            if marker in text:
                return text.split(marker, 1)[1].split()[0]
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise BenchError(f"server never reported its address:\n{self.log_path.read_text()}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _epoch(iso: str) -> float:
    return datetime.fromisoformat(iso).timestamp()


def _wait_terminal(
    client: ServeClient, ids: Sequence[str], timeout: float = 120.0
) -> Dict[str, dict]:
    want = set(ids)
    deadline = time.monotonic() + timeout
    while True:
        records = {j["id"]: j for j in client.jobs() if j["id"] in want}
        if len(records) == len(want) and all(
            r["state"] in ("done", "failed", "cancelled") for r in records.values()
        ):
            return records
        if time.monotonic() > deadline:
            raise BenchError(f"jobs not finished after {timeout:g}s")
        time.sleep(0.1)


#: the open loop must stay valid: a generator this late would distort the
#: schedule it claims to keep
MAX_GENERATOR_LATE_S = 0.05


def serve_dnet(
    *, seed: int, seconds: float, trace: bool, work: Path, clock: HostClock,
    rate: float = 1.5, open_jobs: Optional[int] = None, traced_jobs: int = 6,
) -> WorkloadRun:
    """Single-point DNET jobs served by ``repro serve --jobs 2 --record``
    in an open loop of ``open_jobs`` jobs at ``rate`` jobs/s.

    By default the open loop sends whole mixes of the 15 protocol x rate
    jobs (as many as fit in ``seconds`` at ``rate``), so every run sees the
    same job mix.  Unit: one job; its times are means over the mix, whose
    jobs differ up to 5x in cost.  Latency runs from the job's due time to
    the server's ``finished_at``, host-scaled over that window; the load
    is one thread on one connection.
    """
    if open_jobs is None:
        mix = len(SERVE_PROTOCOLS) * len(SERVE_RATES)
        open_jobs = max(1, int(rate * seconds) // mix) * mix
    scenarios = [serve_job(seed, k) for k in range(open_jobs)]
    # run untimed on both paths first, one point per pool worker, so no
    # timed job pays the trace build or its first event-stream replay
    warm = serve_job(seed, open_jobs)
    warm["seeds"] = [warm["seeds"][0] + i for i in range(FLEET)]
    gate = Gate()

    def entries_of(jobs: List[Dict[str, Any]]) -> list:
        return [e for s in jobs for e in ScenarioSpec.from_dict(s).entries()]

    # the direct path: every job's point run in-process by the library
    warm_entries = entries_of([warm])
    traces = {spec.key: spec.materialize() for spec, _, _ in warm_entries}
    runner.run_point_specs(warm_entries[:1], jobs=1, materialized=traces)
    direct_times: List[float] = []
    reference = []
    for entry in entries_of(scenarios):
        job_s, (result,) = clock.time(
            runner.run_point_specs, [entry], jobs=1, materialized=traces
        )
        direct_times.append(job_s)
        reference.append(result)
    direct_rss = self_rss_mb()

    setup_times = []
    for i in range(SERVER_LAUNCHES):
        if i:
            server.stop()
        setup_s, server = clock.time(_Server, work / f"server-{i}")
        setup_times.append(setup_s)
    try:
        client = server.client
        (warmed,) = _wait_terminal(client, [client.submit(warm)["id"]]).values()
        gate.check(warmed["state"] == "done", f"warm-up job ended {warmed['state']}")

        due0 = time.time() + 0.05
        open_ids: List[Tuple[str, float]] = []
        rtts: List[float] = []
        late: List[float] = []
        for k, scenario in enumerate(scenarios):
            due = due0 + k / rate
            delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            sent = time.time()
            record = client.submit(scenario)
            rtts.append(time.time() - sent)
            late.append(sent - due)
            open_ids.append((record["id"], due))
        records = _wait_terminal(client, [i for i, _ in open_ids])
        rss = tree_hwm_mb(server.proc.pid)
        served = [client.job(job_id, results=True) for job_id, _ in open_ids]
    finally:
        server.stop()

    for job, want in zip(served, reference):
        label = f"{job['id']} ({job['name']})"
        if not gate.check(
            job["state"] == "done", f"{label} ended {job['state']}: {job['error']}"
        ):
            continue
        got = job["results"][0]["metrics"]
        got.pop("phase_timings", None)
        gate.conserves(got, label)
        gate.same(got, metric_values(want), f"{label} served vs direct")
    gate.check(
        max(late) < MAX_GENERATOR_LATE_S,
        f"open-loop generator ran {max(late):.3f}s late (limit {MAX_GENERATOR_LATE_S}s)",
    )
    latency = []
    for job_id, due in open_ids:
        finished = _epoch(records[job_id]["finished_at"])
        latency.append(clock.scale(finished - due, due, finished))
    opened = [records[i] for i, _ in open_ids]
    waits = [_epoch(r["started_at"]) - _epoch(r["submitted_at"]) for r in opened]
    runs = [_epoch(r["finished_at"]) - _epoch(r["started_at"]) for r in opened]
    end_to_end = {
        "setup_s": median(setup_times),
        "direct_s": fmean(direct_times),
        "wall_s": fmean(latency),
        "direct_rss_mb": direct_rss,
        "rss_mb": rss,
    }
    per_layer = {
        "host.speed": clock.speed(),
        "serve.submit_rtt_p50_s": median(rtts),
        "serve.queue_wait_p50_s": median(waits),
        "serve.queue_wait_p90_s": percentile(waits, 90),
        "serve.run_p50_s": median(runs),
        "serve.generator_late_max_s": max(late),
    }
    doc = None
    if trace:
        roots = itertools.count()
        subset = scenarios[:traced_jobs]

        def run_pass(_: Optional[Tracer]) -> None:
            root = work / f"inproc-{next(roots)}"
            srv = make_server(
                "127.0.0.1", 0, run_root=str(root / "runs"),
                db_path=str(root / "serve.sqlite"), jobs=1,
            )
            loop = threading.Thread(
                target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
            )
            loop.start()
            try:
                host, port = srv.server_address[:2]
                local = ServeClient(f"http://{host}:{port}", timeout=60.0)
                for scenario in subset:
                    final = local.wait(local.submit(scenario)["id"], poll=0.01)
                    gate.check(final["state"] == "done",
                               f"in-process job ended {final['state']}")
            finally:
                srv.shutdown()
                srv.manager.stop()
                srv.server_close()
                loop.join(timeout=10.0)

        tracer, untraced, wall = _twin(run_pass)
        per_layer.update(_span_metrics(tracer, untraced, wall, ingested_points=len(subset)))
        doc = _trace_doc(tracer, untraced, wall)
    return WorkloadRun(end_to_end, per_layer, gate, doc)


# -- crash-resume -----------------------------------------------------------------------

#: the injected crash fires after this many checkpoint saves of a point
CRASH_AFTER_SAVES = 3


def crash_unit(seed: int, protocols: Sequence[str]) -> List[ScenarioSpec]:
    """DART trace seed ``seed``, 2000 kB, rate 500, sim seed ``seed``: one
    single-point spec per protocol."""
    return [
        ScenarioSpec.from_dict({
            "name": f"bench-crash-{protocol}-{seed}",
            "trace": {"profile": "DART", "seed": seed, "full_scale": False},
            "sim": {"memory_kb": 2000.0, "rate": 500.0},
            "protocols": [protocol],
            "seeds": [seed],
        })
        for protocol in protocols
    ]


def crash_resume(
    *, seed: int, seconds: float, trace: bool, work: Path, clock: HostClock,
    protocols: Sequence[str] = ("DTN-FLOW", "PER"), every_events: int = 5000,
) -> WorkloadRun:
    """Each point plain, checkpointed every ``every_events`` events, and
    crashed after its ``CRASH_AFTER_SAVES``-th save then resumed.

    Unit: the points of :func:`crash_unit`, one per protocol; every cycle
    runs the same unit.  ``wall_s`` is its crashed runs plus the resumes.
    """
    unit = crash_unit(seed, protocols)
    profile, tspec, _ = unit[0].resolve_trace()
    dirs = itertools.count()

    def fresh(spec: ScenarioSpec) -> RunDir:
        return resume.create_run(work / f"run-{next(dirs)}", spec, every_events=every_events)

    def build():
        dart = tspec.materialize()
        fresh(unit[0])
        return dart

    work.mkdir(parents=True, exist_ok=True)
    setup_s, dart = timed_median(clock, build)
    cache = {tspec.key: dart}
    gate = Gate()
    ckpt_bytes: List[int] = []
    skipped: List[int] = []

    def plain(spec: ScenarioSpec) -> Tuple[float, Dict[str, Any]]:
        (_, p, config), = spec.entries(profile, tspec)
        seconds, result = clock.time(
            experiment.execute_config, dart, p.protocol, config,
            memory_kb=p.memory_kb, rate=p.rate, seed=p.seed, scenario=p.scenario,
        )
        want = metric_values(result)
        gate.conserves(want, spec.name)
        return seconds, want

    def checkpointed(spec: ScenarioSpec, want: Dict[str, Any]) -> float:
        rd = fresh(spec)
        seconds, (done, _) = clock.time(
            resume.run_resumable, spec, rd, every_events=every_events, trace_cache=cache
        )
        gate.same(metric_values(done.results[0]), want, f"{spec.name} checkpointed vs plain")
        ckpt_bytes.extend(
            f.stat().st_size for f in (rd.point_dir(0) / "serial").glob("serial-*.ckpt")
        )
        shutil.rmtree(rd.path)
        return seconds

    def crash_and_resume(spec: ScenarioSpec, want: Dict[str, Any]) -> float:
        rd = fresh(spec)

        def crash_then_resume() -> Tuple[bool, Any]:
            try:
                resume.run_resumable(
                    spec, rd, every_events=every_events, trace_cache=cache,
                    injections={0: {"crash_after_saves": CRASH_AFTER_SAVES}},
                )
                fired = False
            except SimulatedCrash:
                fired = True
            resumed, _, _ = resume.resume_run(rd.path)
            return fired, resumed

        seconds, (fired, resumed) = clock.time(crash_then_resume)
        gate.check(fired, f"{spec.name}: the injected crash never fired")
        gate.same(metric_values(resumed.results[0]), want, f"{spec.name} resumed vs plain")
        resumes = [r for r in rd.recovery_log().records() if r["event"] == "executor.resume"]
        gate.check(bool(resumes), f"{spec.name}: no executor.resume in recovery.jsonl")
        skipped.extend(r["n_dispatched"] for r in resumes if "n_dispatched" in r)
        shutil.rmtree(rd.path)
        return seconds

    def run_unit() -> Tuple[float, float, float, float]:
        """Plain, checkpointed and crash+resume seconds of the unit, and
        the peak RSS before any checkpointed run."""
        plain_s, wants = zip(*(plain(spec) for spec in unit))
        plain_rss = self_rss_mb()
        ckpt_s = sum(checkpointed(spec, want) for spec, want in zip(unit, wants))
        crash_s = sum(crash_and_resume(spec, want) for spec, want in zip(unit, wants))
        return sum(plain_s), ckpt_s, crash_s, plain_rss

    plain_walls: List[float] = []
    ckpt_walls: List[float] = []
    crash_walls: List[float] = []
    for i in cycles(seconds):
        plain_s, ckpt_s, crash_s, plain_rss = run_unit()
        if i == 0:
            direct_rss = plain_rss
        plain_walls.append(plain_s)
        ckpt_walls.append(ckpt_s)
        crash_walls.append(crash_s)

    end_to_end = {
        "setup_s": setup_s,
        "direct_s": median(plain_walls),
        "wall_s": median(crash_walls),
        "direct_rss_mb": direct_rss,
        "rss_mb": self_rss_mb(),
    }
    per_layer = {
        "host.speed": clock.speed(),
        "checkpoint.bytes": median(ckpt_bytes),
        "checkpoint.overhead_frac": sum(ckpt_walls) / sum(plain_walls) - 1.0,
        "resume.skipped_events": median(skipped),
    }
    doc = None
    if trace:
        tracer, untraced, wall = _twin(lambda _: run_unit())
        per_layer.update(_span_metrics(tracer, untraced, wall))
        doc = _trace_doc(tracer, untraced, wall)
    return WorkloadRun(end_to_end, per_layer, gate, doc)


WORKLOADS: Dict[str, Callable[..., WorkloadRun]] = {
    "fig11-sweep": fig11_sweep,
    "campus-stream": campus_stream,
    "serve-dnet": serve_dnet,
    "crash-resume": crash_resume,
}
