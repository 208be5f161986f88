"""Tests for the parallel experiment executor (repro.eval.runner) and the
trace replay cache / cheap pickling that back it."""

from __future__ import annotations

import pickle

import pytest

from repro.eval.config import TraceProfile
from repro.eval.runner import (
    PointSpec,
    TraceSpec,
    parse_jobs,
    run_point_specs,
)
from repro.eval.sweeps import SweepResult
from repro.mobility import io as trace_io
from repro.mobility.synthetic import dart_like
from repro.mobility.trace import days
from repro.sim.engine import SimConfig, Simulation
from repro.sim.metrics import MetricsSummary
from repro.baselines import make_protocol


@pytest.fixture(scope="module")
def tiny_profile():
    return TraceProfile(
        name="tiny",
        build=lambda seed: dart_like("tiny", seed=seed),
        ttl=days(4.0),
        time_unit=days(2.0),
        workload_scale=0.02,
    )


@pytest.fixture(scope="module")
def tiny_trace(tiny_profile):
    return tiny_profile.build(1)


@pytest.fixture(scope="module")
def tiny_spec(tiny_scenario):
    """The path spec of the tiny trace's CSV (the trace ``tiny_trace`` holds)."""
    return TraceSpec.from_path(tiny_scenario().trace.path)


def path_entries(spec, profile, points):
    """Executor entries running ``points`` on the trace ``spec`` reads."""
    return [
        (spec, p, profile.sim_config(memory_kb=p.memory_kb, rate=p.rate, seed=p.seed))
        for p in points
    ]


class TestParseJobs:
    def test_ints_pass_through(self):
        assert parse_jobs(1) == 1
        assert parse_jobs("3") == 3

    def test_auto_and_zero_mean_cpu_count(self):
        assert parse_jobs("auto") >= 1
        assert parse_jobs(0) == parse_jobs("auto")
        assert parse_jobs("0") == parse_jobs("auto")

    def test_none_means_serial(self):
        assert parse_jobs(None) == 1

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError):
            parse_jobs("lots")
        with pytest.raises(ValueError):
            parse_jobs(-2)


class TestTracePickle:
    def test_round_trip_preserves_records(self, tiny_trace):
        clone = pickle.loads(pickle.dumps(tiny_trace))
        assert clone.name == tiny_trace.name
        assert clone.records == tiny_trace.records
        assert clone.nodes == tiny_trace.nodes
        assert clone.landmarks == tiny_trace.landmarks

    def test_pickle_payload_is_lean(self, tiny_trace):
        # warm the replay cache, then check it is not shipped
        tiny_trace.replay_events(2, 0)
        state = tiny_trace.__getstate__()
        assert set(state) == {"name", "records"}

    def test_unpickled_trace_runs_identically(self, tiny_trace):
        clone = pickle.loads(pickle.dumps(tiny_trace))
        config = SimConfig(
            ttl=days(3.0), rate_per_landmark_per_day=150.0,
            workload_scale=0.02, time_unit=days(2.0), seed=4,
        )
        a = Simulation(tiny_trace, make_protocol("DTN-FLOW"), config).run()
        b = Simulation(clone, make_protocol("DTN-FLOW"), config).run()
        assert a == b  # MetricsSummary equality ignores wall-clock timings


class TestReplayCache:
    def test_second_run_skips_rebuild(self, shuttle_trace):
        config = SimConfig(
            ttl=days(3.0), rate_per_landmark_per_day=100.0,
            workload_scale=0.5, time_unit=days(2.0), seed=2,
        )
        builds_before = shuttle_trace.n_replay_builds
        first = Simulation(shuttle_trace, make_protocol("DTN-FLOW"), config).run()
        builds_after_first = shuttle_trace.n_replay_builds
        second = Simulation(shuttle_trace, make_protocol("DTN-FLOW"), config).run()
        assert shuttle_trace.n_replay_builds == builds_after_first
        assert builds_after_first <= builds_before + 1
        assert first == second

    def test_cached_schedule_is_shared(self, shuttle_trace):
        a = shuttle_trace.replay_events(2, 0)
        b = shuttle_trace.replay_events(2, 0)
        assert a is b
        assert len(a) == 2 * len(shuttle_trace)
        # ordering contract: sorted by (t, kind, seq), and record i's
        # start and end carry seqs 2i and 2i+1, so seqs are 0..2N-1
        keys = [e[:3] for e in a]
        assert keys == sorted(keys)
        assert sorted(e[2] for e in a) == list(range(2 * len(shuttle_trace)))

    def test_distinct_kinds_cached_separately(self, shuttle_trace):
        a = shuttle_trace.replay_events(2, 0)
        c = shuttle_trace.replay_events(7, 5)
        assert a is not c
        assert {e[1] for e in a} == {0, 2}
        assert {e[1] for e in c} == {5, 7}


class TestRunPoints:
    POINTS = [
        PointSpec(protocol=name, memory_kb=mem, rate=150.0, seed=0)
        for name in ("DTN-FLOW", "PROPHET")
        for mem in (500.0, 2000.0)
    ]

    def test_parallel_matches_serial_bit_identical(
        self, tiny_spec, tiny_trace, tiny_profile
    ):
        entries = path_entries(tiny_spec, tiny_profile, self.POINTS)
        held = {tiny_spec.key: tiny_trace}
        serial = run_point_specs(entries, jobs=1, materialized=held)
        two = run_point_specs(entries, jobs=2, materialized=held)
        four = run_point_specs(entries, jobs=4, materialized=held)
        assert serial == two == four

    def test_results_keep_submission_order(self, tiny_spec, tiny_trace, tiny_profile):
        entries = path_entries(tiny_spec, tiny_profile, self.POINTS)
        results = run_point_specs(
            entries, jobs=2, materialized={tiny_spec.key: tiny_trace}
        )
        assert [r.protocol for r in results] == [p.protocol for p in self.POINTS]
        assert [r.memory_kb for r in results] == [p.memory_kb for p in self.POINTS]

    def test_empty_points(self):
        assert run_point_specs([], jobs=4) == []

    def test_pool_failure_falls_back_to_serial(
        self, tiny_spec, tiny_trace, tiny_profile, monkeypatch, capsys
    ):
        import repro.eval.runner as runner_mod

        def broken_pool(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", broken_pool)
        entries = path_entries(tiny_spec, tiny_profile, self.POINTS)
        held = {tiny_spec.key: tiny_trace}
        results = run_point_specs(entries, jobs=2, materialized=held)
        serial = run_point_specs(entries, jobs=1, materialized=held)
        assert results == serial
        assert "falling back to serial" in capsys.readouterr().err

    def test_run_point_specs_materializes_each_trace_once(
        self, tiny_spec, tiny_profile, monkeypatch
    ):
        calls = {"n": 0}
        original = TraceSpec.materialize

        def counting(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(TraceSpec, "materialize", counting)
        entries = path_entries(tiny_spec, tiny_profile, self.POINTS)
        results = run_point_specs(entries, jobs=1)
        assert len(results) == len(self.POINTS)
        assert calls["n"] == 1


class TestTraceSpec:
    def test_profile_spec_validates_eagerly(self):
        with pytest.raises(ValueError):
            TraceSpec.from_profile("NOPE", seed=1)
        spec = TraceSpec.from_profile("dart", seed=3)
        assert spec.kind == "profile" and spec.profile == "DART"
        assert "DART" in spec.key and ":3:" in spec.key

    def test_path_spec_round_trips_through_csv(self, tmp_path, shuttle_trace):
        target = tmp_path / "shuttle.csv"
        trace_io.dump_trace(shuttle_trace, target)
        spec = TraceSpec.from_path(str(target))
        loaded = spec.materialize()
        assert loaded.records == shuttle_trace.records


def _memory_sweep(tiny_scenario, protocols):
    from repro.eval.scenario import run_scenario

    spec = tiny_scenario(
        protocols=list(protocols), sim={"rate": 150.0},
        sweep={"parameter": "memory_kb", "values": [500.0, 2000.0]},
    )
    return lambda jobs: run_scenario(spec, jobs=jobs)


class TestSweepParallel:
    def test_memory_sweep_jobs_equivalent(self, tiny_scenario):
        run = _memory_sweep(tiny_scenario, ["DTN-FLOW", "PROPHET"])
        serial, parallel = run(1), run(2)
        assert parallel.sweep_result().series == serial.sweep_result().series
        assert parallel.sweep_result().values == serial.sweep_result().values
        # each point's own provenance: config, seed and resolved scenario
        assert [r.metrics.provenance for r in parallel.results] == [
            r.metrics.provenance for r in serial.results
        ]


def _summary(success=0.5, delay=100.0):
    return MetricsSummary(
        protocol="DTN-FLOW", trace="t", generated=10, delivered=5,
        dropped_ttl=5, forwarding_ops=7, maintenance_ops=3,
        success_rate=success, avg_delay=delay, overall_avg_delay=delay,
        total_cost=10,
    )


class TestSweepResultErrors:
    def test_empty_result_raises_value_error(self):
        res = SweepResult(trace="t", parameter="rate", values=(1.0,))
        with pytest.raises(ValueError, match="empty"):
            res.mean_values("success_rate")
        with pytest.raises(ValueError, match="empty"):
            res.final_values("success_rate")

    def test_empty_series_raises_value_error(self):
        res = SweepResult(trace="t", parameter="rate", values=(1.0,))
        res.series["DTN-FLOW"] = {m: [] for m in SweepResult.METRICS}
        with pytest.raises(ValueError, match="no values recorded"):
            res.mean_values("success_rate")
        with pytest.raises(ValueError, match="no values recorded"):
            res.final_values("success_rate")

    def test_unknown_metric_raises(self):
        res = SweepResult(trace="t", parameter="rate", values=(1.0,))
        res.add("DTN-FLOW", _summary())
        with pytest.raises(ValueError, match="unknown metric"):
            res.mean_values("bogus")

    def test_provenance_rows_carry_sweep_value(self, tiny_scenario):
        res = _memory_sweep(tiny_scenario, ["DTN-FLOW"])(1)
        scenarios = [r.metrics.provenance.scenario for r in res.results]
        assert [s["sim"]["node_memory_kb"] for s in scenarios] == [500.0, 2000.0]

    def test_handbuilt_summary_without_provenance(self):
        res = SweepResult(trace="t", parameter="rate", values=(1.0,))
        res.add("DTN-FLOW", _summary())
        assert res.mean_values("success_rate")["DTN-FLOW"] == 0.5


class TestFailureContainment:
    """A failing point is retried, re-run serially, then reported with its
    resolved spec attached — it cannot silently poison a sweep."""

    def _bad_entry(self, tiny_spec, tiny_profile):
        # a fault plan naming a nonexistent landmark compiles (and fails)
        # only inside the run, in whatever process executes the point
        config = tiny_profile.sim_config(memory_kb=500.0, rate=100.0, seed=0)
        import dataclasses

        config = dataclasses.replace(config, faults={
            "seed": 0,
            "specs": [{"kind": "landmark_outage", "landmark": 9999,
                       "start": 0.1, "end": 0.9}],
        })
        return (tiny_spec, PointSpec(protocol="Direct", memory_kb=500.0,
                                     rate=100.0, seed=0), config)

    def test_pool_failure_raises_point_execution_error(
        self, tiny_spec, tiny_trace, tiny_profile, capsys
    ):
        from repro.eval.runner import PointExecutionError

        entry = self._bad_entry(tiny_spec, tiny_profile)
        with pytest.raises(PointExecutionError) as err:
            run_point_specs(
                [entry, entry], jobs=2, materialized={tiny_spec.key: tiny_trace}
            )
        assert err.value.point.protocol == "Direct"
        assert err.value.trace_key == entry[0].key
        assert isinstance(err.value.cause, ValueError)
        assert "landmark 9999" in str(err.value.cause)
        # the one-line serial re-run notice went to stderr
        assert "re-running serially" in capsys.readouterr().err

    def test_serial_failure_propagates_the_cause(
        self, tiny_spec, tiny_trace, tiny_profile
    ):
        with pytest.raises(ValueError, match="landmark 9999"):
            run_point_specs(
                [self._bad_entry(tiny_spec, tiny_profile)], jobs=1,
                materialized={tiny_spec.key: tiny_trace},
            )

    def test_good_points_survive_next_to_nothing_bad(
        self, tiny_spec, tiny_trace, tiny_profile
    ):
        config = tiny_profile.sim_config(memory_kb=500.0, rate=100.0, seed=0)
        entries = [
            (tiny_spec, PointSpec(protocol="Direct", memory_kb=500.0,
                                  rate=100.0, seed=0), config),
            (tiny_spec, PointSpec(protocol="DTN-FLOW", memory_kb=500.0,
                                  rate=100.0, seed=0), config),
        ]
        results = run_point_specs(
            entries, jobs=2, materialized={tiny_spec.key: tiny_trace}
        )
        assert [r.protocol for r in results] == ["Direct", "DTN-FLOW"]


# -- slotted-entity pickling (the hot-path overhaul removed __dict__) ---------------

def _pool_roundtrip(obj):
    """Worker-side identity function for process-pool pickling checks."""
    return obj


class TestSlottedEntityPickle:
    """``__slots__`` entities must still cross the process-pool boundary.

    The parallel executor ships traces (and, through futures, anything a
    worker returns) via pickle; slotted classes have no ``__dict__``, so a
    missed slot in pickling support would surface as silently dropped
    state on the worker side.
    """

    def _packet(self):
        from repro.sim.packets import Packet

        p = Packet(pid=7, src=1, dst=2, created=100.0, ttl=500.0, size=2048)
        p.hops = 3
        p.visited.extend([1, 4])
        p.meta["next_hop"] = 4
        return p

    def test_packet_round_trip(self):
        p = self._packet()
        clone = pickle.loads(pickle.dumps(p))
        assert (clone.pid, clone.src, clone.dst) == (7, 1, 2)
        assert clone.hops == 3
        assert clone.visited == [1, 4]
        assert clone.meta == {"next_hop": 4}
        assert clone.deadline == p.deadline  # derived slot survives too

    def test_node_station_buffer_round_trip(self):
        from repro.sim.entities import LandmarkStation, MobileNode

        node = MobileNode(nid=3, memory_bytes=10_000.0)
        node.at_landmark = 5
        node.n_transits = 9
        node.buffer.add(self._packet())
        station = LandmarkStation(lid=5)
        station.connected.add(3)

        n2 = pickle.loads(pickle.dumps(node))
        assert (n2.nid, n2.at_landmark, n2.n_transits) == (3, 5, 9)
        assert len(n2.buffer) == 1 and 7 in n2.buffer
        assert n2.buffer.used_bytes == node.buffer.used_bytes

        s2 = pickle.loads(pickle.dumps(station))
        assert s2.lid == 5 and s2.connected == {3}

    def test_entities_through_process_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        from repro.sim.entities import MobileNode

        node = MobileNode(nid=1, memory_bytes=5_000.0)
        node.buffer.add(self._packet())
        with ProcessPoolExecutor(max_workers=1) as pool:
            back_node = pool.submit(_pool_roundtrip, node).result(timeout=60)
            back_packet = pool.submit(_pool_roundtrip, self._packet()).result(timeout=60)
        assert len(back_node.buffer) == 1
        assert back_node.buffer.used_bytes == node.buffer.used_bytes
        assert back_packet.deadline == 600.0

    def test_trace_getstate_stays_lean(self, tiny_trace):
        # the replay cache and sorted indexes must not inflate the payload
        # the executor ships per worker: state is the records + name only,
        # and the pickle is no bigger than pickling the records directly
        # (plus a small constant for the class envelope)
        tiny_trace.replay_events(2, 0)  # warm the cache
        state = tiny_trace.__getstate__()
        assert set(state) == {"name", "records"}
        payload = len(pickle.dumps(tiny_trace))
        records_only = len(pickle.dumps(tiny_trace.records))
        assert payload <= records_only + 512


# -- crash-safe executor additions (chaos hooks, interrupt carrying) -----------


class TestPointExecutionErrorPickle:
    def test_round_trip_keeps_spec_and_message(self):
        from repro.eval.runner import PointExecutionError

        err = PointExecutionError(
            PointSpec(protocol="Direct", memory_kb=500.0, rate=100.0, seed=3),
            SimConfig(ttl=days(3.0), rate_per_landmark_per_day=100.0,
                      workload_scale=0.02, time_unit=days(2.0), seed=3),
            "trace-key",
            ValueError("landmark 9999"),
        )
        clone = pickle.loads(pickle.dumps(err))
        assert clone.point == err.point
        assert clone.trace_key == "trace-key"
        assert isinstance(clone.cause, ValueError)
        assert str(clone) == str(err)


class TestChaosEnvHooks:
    """The pool-level chaos injections (repro chaos / docs/reliability.md),
    passed to the executor as per-point ``injections``: an abrupt worker
    death or a raised task failure must both end in the serial re-run
    producing results identical to an undisturbed sweep."""

    POINTS = [
        PointSpec(protocol=name, memory_kb=500.0, rate=150.0, seed=0)
        for name in ("DTN-FLOW", "PROPHET", "Direct")
    ]

    def test_worker_exit_recovers_via_serial_rerun(
        self, tiny_spec, tiny_trace, tiny_profile, capsys
    ):
        from repro.eval.runner import execute

        entries = path_entries(tiny_spec, tiny_profile, self.POINTS)
        held = {tiny_spec.key: tiny_trace}
        serial = run_point_specs(entries, jobs=1, materialized=held)
        chaotic, _ = execute(
            entries, jobs=2, traces=dict(held), injections={1: {"pool_exit": True}}
        )
        assert chaotic == serial
        assert "re-running serially" in capsys.readouterr().err

    def test_raised_task_failure_recovers_via_serial_rerun(
        self, tiny_spec, tiny_trace, tiny_profile, capsys
    ):
        from repro.eval.runner import execute

        entries = path_entries(tiny_spec, tiny_profile, self.POINTS)
        held = {tiny_spec.key: tiny_trace}
        serial = run_point_specs(entries, jobs=1, materialized=held)
        chaotic, _ = execute(
            entries, jobs=2, traces=dict(held), injections={0: {"pool_raise": True}}
        )
        assert chaotic == serial
        assert "re-running serially" in capsys.readouterr().err


class TestSweepInterrupted:
    def test_serial_interrupt_carries_completed_prefix(
        self, tiny_spec, tiny_trace, tiny_profile
    ):
        from repro.eval.runner import SweepInterrupted

        entries = path_entries(tiny_spec, tiny_profile, TestChaosEnvHooks.POINTS)

        def interrupting(event):
            # a SIGINT while the second point is handed over
            if event.kind == "started" and event.index == 1:
                raise KeyboardInterrupt

        with pytest.raises(SweepInterrupted) as err:
            run_point_specs(
                entries, jobs=1, progress=interrupting,
                materialized={tiny_spec.key: tiny_trace},
            )
        results = err.value.results
        assert len(results) == len(entries)
        assert results[0] is not None and results[0].protocol == "DTN-FLOW"
        assert results[1] is None and results[2] is None
        assert "1/3 points complete" in str(err.value)
