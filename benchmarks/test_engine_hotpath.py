"""Hot-path microbenchmarks: dispatch, transfers, table merges, traces.

The sweep benchmarks (Fig. 11-14) measure whole experiments; these
isolate the layers the hot-path work touches, so a regression in one
layer shows up directly instead of being averaged into a 30-point sweep:

* **event dispatch** — visit/generation event handling with a no-op
  protocol: the floor every protocol run pays;
* **transfer path** — ``station_to_node`` / ``node_to_station`` handovers
  through a greedy protocol: buffer accounting, delivery, metrics;
* **routing-table merge** — the distance-vector relaxation
  (``RoutingTable.merge_snapshot``) over realistic snapshot sizes;
* **trace build** — one small DART trace: generator, raw log and the
  preprocessing pipeline, the cost every sweep and job pays once;
* **event assembly** — ``Simulation._events()`` built and iterated for
  the fig11 DART point (small DART, 2000 kB, rate 500): over a fresh
  ``Trace`` (the sorted visit events built and memoized), over the same
  ``Trace`` again (memoized, the run's own events merged in), and over
  ``TraceStream.from_trace`` of it (streamed);
* **stream pass** — one pass over a 500-node campus ``TraceStream``:
  the per-node day generators, the day merge and the order check;
* **stream pass at scale** — one ``stream_visits()`` pass over the
  200-landmark campus of ``benchmarks/test_sharded_scale.py`` at 10k
  nodes (100k under ``REPRO_FULL_SCALE``), in a fresh interpreter: pass
  seconds, records/s and peak RSS, with the stream's sha256 pinned so the
  check covers byte identity at scale;
* **streamed DTN-FLOW point** — one serial DTN-FLOW run over that stream
  (the ``campus-stream`` benchmark's point): stream replay, dispatch and
  the DTN-FLOW control plane, with the routing-table writes it made;
* **resume** — a resume reads back the trace its run directory stored at
  the first checkpoint instead of rebuilding it: the read against the
  build (small DART; paper-scale under ``REPRO_FULL_SCALE=1``), and
  ``resume_run`` of one crashed small-DART point with and without the
  stored trace;
* **paper-scale points** (``REPRO_FULL_SCALE=1`` only) — one DTN-FLOW and
  one PER point on paper-scale DART (2000 kB, rate 500, trace seed 1,
  sim seed 3): the per-visit cost of the paper's evaluation at the scale
  it ran, in seconds and dispatched events per second.

Each records its figures into ``BENCH_sweeps.json`` via the conftest
recorder, which stamps the host fingerprint on every snapshot.
Assertions are sanity floors (the machinery actually ran), not
wall-clock gates — CI wall-clock is gated by the perf-gate job on the ci
scenario instead.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import pytest

from repro.baselines import make_protocol
from repro.core.routing_table import RouteEntry, RoutingTable, TableSnapshot
from repro.eval.config import full_scale
from repro.eval.resume import create_run, resume_run, run_resumable
from repro.eval.runner import TraceSpec, run_point_specs
from repro.eval.scenario import ScenarioSpec
from repro.mobility.stream import TraceStream
from repro.mobility.synthetic import CampusConfig, CampusMobilityModel, dart_like
from repro.mobility.trace import Trace, VisitRecord, days
from repro.sim.checkpoint import RunDir, SimulatedCrash
from repro.sim.engine import RoutingProtocol, SimConfig, Simulation

from .conftest import record_bench


def _shuttle_trace(n_nodes: int, n_visits: int, n_landmarks: int) -> Trace:
    """Each node cycles the landmarks on a staggered timetable."""
    recs = []
    for nid in range(n_nodes):
        for i in range(n_visits):
            start = i * 1000.0 + nid * 37.0
            recs.append(
                VisitRecord(
                    start=start,
                    end=start + 500.0,
                    node=nid,
                    landmark=(nid + i) % n_landmarks,
                )
            )
    return Trace(recs, name=f"shuttle{n_nodes}x{n_visits}")


class _NoopProtocol(RoutingProtocol):
    """Accepts every hook and does nothing: isolates engine dispatch."""

    name = "noop"
    uses_contacts = True

    def on_contact(self, world, a, b, station, t):
        pass


class _GreedyProtocol(RoutingProtocol):
    """Hands every station packet to the arriving node: transfer stress."""

    name = "greedy"

    def on_visit_start(self, world, node, station, t):
        for p in station.buffer.packets():
            world.station_to_node(station, node, p)


def test_event_dispatch_micro():
    trace = _shuttle_trace(n_nodes=60, n_visits=80, n_landmarks=12)
    config = SimConfig(rate_per_landmark_per_day=200.0, seed=7)
    sim = Simulation(trace, _NoopProtocol(), config)
    n_events = 2 * len(trace.records)  # visit start + end per record

    t0 = perf_counter()
    sim.run()
    elapsed = perf_counter() - t0

    rate = n_events / elapsed if elapsed > 0 else float("inf")
    record_bench("engine_event_dispatch", {
        "visit_events": n_events,
        "seconds": round(elapsed, 4),
        "events_per_second": round(rate, 1),
    })
    assert rate > 1000  # anything slower means dispatch itself broke


def test_transfer_path_micro():
    trace = _shuttle_trace(n_nodes=40, n_visits=60, n_landmarks=8)
    # high rate + roomy memory: nearly every visit moves packets both ways
    config = SimConfig(
        rate_per_landmark_per_day=2000.0, node_memory_kb=4000.0, seed=7
    )
    sim = Simulation(trace, _GreedyProtocol(), config)

    t0 = perf_counter()
    summary = sim.run()
    elapsed = perf_counter() - t0

    forwards = summary.forwarding_ops
    rate = forwards / elapsed if elapsed > 0 else float("inf")
    record_bench("engine_transfer_path", {
        "forwards": forwards,
        "seconds": round(elapsed, 4),
        "transfers_per_second": round(rate, 1),
    })
    assert forwards > 0
    assert rate > 500


def test_routing_table_merge_micro():
    n_landmarks = 40
    n_rounds = 400
    table = RoutingTable(0)
    for lm in range(1, 6):
        table.set_direct_link(lm, float(10 + lm))

    # neighbours advertise full tables with slowly improving delays and
    # fresh sequence numbers, the steady-state merge workload of a run
    snapshots = []
    for seq in range(n_rounds):
        origin = 1 + seq % 5
        entries = tuple(
            RouteEntry(dest=d, next_hop=origin, delay=100.0 + ((seq * 7 + d) % 50))
            for d in range(n_landmarks)
            if d != origin
        )
        snapshots.append(TableSnapshot(origin=origin, seq=seq, entries=entries))

    t0 = perf_counter()
    merged = 0
    for snap in snapshots:
        if table.merge_snapshot(snap, link_delay=float(10 + snap.origin)):
            merged += 1
    elapsed = perf_counter() - t0

    entries_folded = merged * (n_landmarks - 1)
    rate = entries_folded / elapsed if elapsed > 0 else float("inf")
    record_bench("routing_table_merge", {
        "snapshots": merged,
        "entries_folded": entries_folded,
        "seconds": round(elapsed, 4),
        "entries_per_second": round(rate, 1),
    })
    assert merged == n_rounds
    assert len(table.entries()) >= n_landmarks - 6
    assert rate > 10_000


def test_trace_build_micro():
    t0 = perf_counter()
    trace = dart_like("small", seed=1)
    elapsed = perf_counter() - t0

    rate = len(trace) / elapsed if elapsed > 0 else float("inf")
    record_bench("mobility_trace_build", {
        "trace": trace.name,
        "records": len(trace),
        "seconds": round(elapsed, 4),
        "records_per_second": round(rate, 1),
        "cpu_count": os.cpu_count(),
    })
    assert len(trace) > 1000


def _assembly(make_trace, config, reps: int = 7):
    """Median seconds to build and iterate ``Simulation._events()``, and
    the last event sequence (a fresh simulation per repeat)."""
    seconds = []
    for _ in range(reps):
        sim = Simulation(make_trace(), _NoopProtocol(), config)
        t0 = perf_counter()
        events = list(sim._events())
        seconds.append(perf_counter() - t0)
    return statistics.median(seconds), events


def test_event_assembly_micro(dart_profile, dart_trace):
    # the fig11 default point; the assembled events do not depend on the
    # protocol, only on the trace and the config's workload
    config = dart_profile.sim_config(memory_kb=2000.0, rate=500.0, seed=1)
    records = list(dart_trace)
    cold_s, cold = _assembly(
        lambda: Trace(records, name=dart_trace.name, presorted=True), config
    )
    warm_s, warm = _assembly(lambda: dart_trace, config)
    stream = TraceStream.from_trace(dart_trace)
    stream_s, streamed = _assembly(lambda: stream, config)
    record_bench("event_assembly", {
        "trace": dart_trace.name,
        "records": len(dart_trace),
        "events": len(warm),
        "trace_cold_s": round(cold_s, 4),
        "trace_memoized_s": round(warm_s, 4),
        "stream_s": round(stream_s, 4),
        "cpu_count": os.cpu_count(),
    })
    assert cold == warm == streamed


#: the benchmark's campus-stream map: 50 landmarks, 500 nodes, 5 days
CAMPUS_500 = CampusConfig(
    n_nodes=500, n_departments=10, buildings_per_department=3, n_dorms=12,
    n_dining=4, n_misc=3, days=5, holidays=(),
)


def test_stream_pass_micro():
    stream = CampusMobilityModel(CAMPUS_500, seed=1).trace_stream()

    t0 = perf_counter()
    n_records = sum(1 for _ in stream.iter_records())
    elapsed = perf_counter() - t0

    rate = n_records / elapsed if elapsed > 0 else float("inf")
    record_bench("mobility_stream_pass", {
        "nodes": CAMPUS_500.n_nodes,
        "records": n_records,
        "seconds": round(elapsed, 4),
        "records_per_second": round(rate, 1),
        "cpu_count": os.cpu_count(),
    })
    assert n_records == len(stream) > 10_000


#: ``benchmarks/test_sharded_scale.py``'s campus: 40 departments x 3
#: buildings + 50 dorms + 15 dining + 14 misc + library = 200 landmarks
#: over 3 days, at 10k nodes (100k under ``REPRO_FULL_SCALE``)
SCALE_CAMPUS = dict(
    n_nodes=100_000 if full_scale() else 10_000, n_departments=40,
    buildings_per_department=3, n_dorms=50, n_dining=15, n_misc=14, days=3,
    holidays=(),
)
SCALE_SEED = 11
#: sha256 over the stream's ``node,landmark,start,end`` rows (floats as
#: ``repr``), pinned on the per-node heap merge the day merge replaced
SCALE_STREAM_DIGESTS = {
    10_000: "8fcace58b22c7e6d222448f333c51ef7ec8287d978b73163d31be5bb9ed89268",
    100_000: "6d6d175d66745b78b963b354a47a00077432a163ae39d946b63eea7504d8418f",
}
#: the scale pass, run in a fresh interpreter so the peak RSS it reports
#: is the stream's own: build the model, one timed ``stream_visits()``
#: pass, then a second pass that hashes the records.  Peaks are ``VmHWM``:
#: an exec'd child's ``ru_maxrss`` also counts the RSS of the process
#: that started it
_SCALE_PASS = """
import hashlib, json, sys
from time import perf_counter
from repro.mobility.synthetic import CampusConfig, CampusMobilityModel

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

args = json.loads(sys.argv[1])
t0 = perf_counter()
model = CampusMobilityModel(CampusConfig(**args["campus"]), seed=args["seed"])
build_s = perf_counter() - t0
before = peak_kb()
t0 = perf_counter()
n_records = sum(1 for _ in model.stream_visits())
pass_s = perf_counter() - t0
peak = peak_kb()
digest = hashlib.sha256()
for r in model.stream_visits():
    digest.update(f"{r.node},{r.landmark},{r.start!r},{r.end!r}\\n".encode())
print(json.dumps({
    "build_s": build_s, "pass_s": pass_s, "records": n_records,
    "peak_rss_kb": peak, "rss_growth_kb": peak - before, "sha256": digest.hexdigest(),
}))
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="peak RSS is read from /proc (Linux)"
)
def test_stream_pass_scale_micro():
    n_nodes = SCALE_CAMPUS["n_nodes"]
    args = json.dumps({"campus": SCALE_CAMPUS, "seed": SCALE_SEED})
    child = subprocess.run(
        [sys.executable, "-c", _SCALE_PASS, args],
        capture_output=True, text=True, check=True, timeout=1800,
    )
    out = json.loads(child.stdout)
    record_bench("mobility_stream_pass_scale", {
        "nodes": n_nodes,
        "seed": SCALE_SEED,
        "records": out["records"],
        "build_s": round(out["build_s"], 4),
        "seconds": round(out["pass_s"], 4),
        "records_per_second": round(out["records"] / out["pass_s"], 1),
        "peak_rss_kb": out["peak_rss_kb"],
        "rss_growth_kb": out["rss_growth_kb"],
        "cpu_count": os.cpu_count(),
    })
    assert out["sha256"] == SCALE_STREAM_DIGESTS[n_nodes]


def test_streamed_dtnflow_point_micro():
    # the campus-stream point: DTN-FLOW over the 500-node stream with a
    # 0.5-day time unit (the 3-day default spans the whole 5-day trace)
    stream = CampusMobilityModel(CAMPUS_500, seed=1).trace_stream()
    config = SimConfig(
        seed=1, rate_per_landmark_per_day=20.0, workload_scale=0.1,
        node_memory_kb=2000.0, generation_end_fraction=0.7,
        time_unit=days(0.5), ttl=days(2.0),
    )
    protocol = make_protocol("DTN-FLOW")

    t0 = perf_counter()
    summary = Simulation(stream, protocol, config).run()
    elapsed = perf_counter() - t0

    n_events = 2 * len(stream) + summary.generated  # visits and births
    rate = n_events / elapsed if elapsed > 0 else float("inf")
    record_bench("streamed_dtnflow_point", {
        "nodes": CAMPUS_500.n_nodes,
        "records": len(stream),
        "events": n_events,
        "seconds": round(elapsed, 4),
        "events_per_second": round(rate, 1),
        # routing-table writes that changed an entry, over all stations
        "table_versions": sum(t.version for t in protocol.routing_tables().values()),
        "success_rate": round(summary.success_rate, 4),
        "cpu_count": os.cpu_count(),
    })
    assert summary.generated > 0
    assert summary.success_rate >= 0.5  # the regime the benchmark gates on


def _crashed_run(path, spec: ScenarioSpec, every: int, cache) -> RunDir:
    """A run directory whose point crashed after its 3rd checkpoint."""
    rd = create_run(path, spec, every_events=every)
    try:
        run_resumable(spec, rd, every_events=every, trace_cache=cache,
                      injections={0: {"crash_after_saves": 3}})
    except SimulatedCrash:
        return rd
    raise AssertionError("the injected crash never fired")


def test_resume_micro(tmp_path):
    # the stored trace against a rebuild, at the scale REPRO_FULL_SCALE picks
    tspec = TraceSpec.from_profile("DART", 1)
    t0 = perf_counter()
    trace = tspec.materialize()
    build_s = perf_counter() - t0
    rd = RunDir.create(tmp_path / "store", {})
    rd.write_trace(tspec.key, trace)
    t0 = perf_counter()
    RunDir(rd.path).read_trace(tspec.key)
    read_s = perf_counter() - t0

    # one crashed small-DART point (the crash-resume bench's), resumed
    spec = ScenarioSpec.from_dict({
        "name": "resume-micro",
        "trace": {"profile": "DART", "seed": 1, "full_scale": False},
        "sim": {"memory_kb": 2000.0, "rate": 500.0},
        "protocols": ["DTN-FLOW"],
        "seeds": [1],
    })
    _, small, _ = spec.resolve_trace()
    cache = {small.key: trace if small.key == tspec.key else small.materialize()}
    kept = _crashed_run(tmp_path / "kept", spec, 5000, cache)
    lost = _crashed_run(tmp_path / "lost", spec, 5000, cache)
    lost.trace_path(small.key).unlink()  # as in a run dir that never stored it
    t0 = perf_counter()
    with_file, _, _ = resume_run(kept.path)
    with_file_s = perf_counter() - t0
    t0 = perf_counter()
    without_file, _, _ = resume_run(lost.path)
    without_file_s = perf_counter() - t0

    record_bench("resume_trace", {
        "trace": trace.name,
        "records": len(trace),
        "file_mb": round(rd.trace_path(tspec.key).stat().st_size / 1e6, 3),
        "read_back_s": round(read_s, 4),
        "rebuild_s": round(build_s, 4),
        "resume_with_file_s": round(with_file_s, 4),
        "resume_without_file_s": round(without_file_s, 4),
    })
    assert with_file.results[0].metrics == without_file.results[0].metrics


@pytest.mark.skipif(not full_scale(), reason="paper scale: set REPRO_FULL_SCALE=1")
def test_paper_scale_points_micro():
    spec = ScenarioSpec.from_dict({
        "name": "paper-scale-points",
        "trace": {"profile": "DART", "seed": 1, "full_scale": True},
        "sim": {"memory_kb": 2000.0, "rate": 500.0},
        "protocols": ["DTN-FLOW", "PER"],
        "seeds": [3],
    })
    profile, tspec, _ = spec.resolve_trace()
    t0 = perf_counter()
    trace = tspec.materialize()
    build_s = perf_counter() - t0
    figures = {
        "trace": trace.name,
        "records": len(trace),
        "trace_build_s": round(build_s, 4),
        "cpu_count": os.cpu_count(),
    }
    for entry in spec.entries(profile, tspec):
        protocol = entry[1].protocol
        t0 = perf_counter()
        (result,) = run_point_specs([entry], jobs=1, materialized={tspec.key: trace})
        elapsed = perf_counter() - t0
        summary = result.metrics
        n_events = 2 * len(trace) + summary.generated  # visits and births
        figures[protocol] = {
            "seconds": round(elapsed, 3),
            "events": n_events,
            "events_per_second": round(n_events / elapsed, 1),
            "success_rate": round(summary.success_rate, 4),
        }
        assert summary.generated > 0 and summary.delivered > 0
    record_bench("paper_scale_points", figures)
