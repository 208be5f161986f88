"""Tests for the experiment harness (repro.eval)."""

import pytest

from repro.eval.config import (
    MEMORY_SWEEP_KB,
    OVERLOAD_RATES,
    RATE_SWEEP,
    TraceProfile,
    full_scale,
    sweep_grid,
    trace_profile,
)
from repro.eval.coverage import table_coverage_series
from repro.eval.deployment import LIBRARY, run_deployment
from repro.eval.extensions import (
    deadend_experiment,
    deadend_trace,
    loadbalance_experiment,
    loop_experiment,
)
from repro.eval.runner import PointSpec, TraceSpec, run_point_specs
from repro.eval.scenario import preset_scenario, run_scenario
from repro.eval.sweeps import SweepResult
from repro.mobility.trace import days
from repro.mobility.synthetic import dart_like


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


class TestConfig:
    def test_paper_sweep_values(self):
        assert MEMORY_SWEEP_KB[0] == 1200 and MEMORY_SWEEP_KB[-1] == 3000
        assert len(MEMORY_SWEEP_KB) == 10
        assert RATE_SWEEP == tuple(range(100, 1001, 100))
        assert OVERLOAD_RATES == (1100.0, 1200.0, 1300.0, 1400.0, 1500.0)

    def test_one_definition_per_sweep_grid(self):
        assert sweep_grid("memory_kb", True) == MEMORY_SWEEP_KB
        assert sweep_grid("rate", True) == RATE_SWEEP
        assert sweep_grid("memory_kb", False) == (1200.0, 1600.0, 2000.0, 2400.0, 3000.0)
        assert sweep_grid("rate", False) == (100.0, 300.0, 500.0, 700.0, 1000.0)
        for name, parameter in (("fig11-dart-memory", "memory_kb"),
                                ("fig13-dart-rate", "rate")):
            spec = preset_scenario(name)
            full = bool(spec.trace.full_scale)
            assert spec.sweep.values == sweep_grid(parameter, full)

    def test_profiles_exist(self):
        for name in ("DART", "DNET"):
            p = trace_profile(name)
            assert p.ttl > 0 and p.time_unit > 0

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            trace_profile("NOPE")

    def test_full_scale_env(self, monkeypatch):
        from repro.eval.config import _reset_full_scale_cache

        try:
            monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
            _reset_full_scale_cache()
            assert not full_scale()
            # the resolution is per-process: a mid-run env change is ignored
            monkeypatch.setenv("REPRO_FULL_SCALE", "1")
            assert not full_scale()
            # a fresh process (simulated by resetting the cache) sees it
            _reset_full_scale_cache()
            assert full_scale()
        finally:
            _reset_full_scale_cache()

    def test_sim_config_mapping(self, tiny_profile):
        cfg = tiny_profile.sim_config(memory_kb=1234.0, rate=77.0, seed=9)
        assert cfg.node_memory_kb == 1234.0
        assert cfg.rate_per_landmark_per_day == 77.0
        assert cfg.seed == 9
        assert cfg.ttl == tiny_profile.ttl


class TestRunners:
    def test_run_point(self, tiny_scenario, tiny_trace, tiny_profile):
        spec = TraceSpec.from_path(tiny_scenario().trace.path)
        entry = (
            spec,
            PointSpec(protocol="DTN-FLOW", rate=100.0),
            tiny_profile.sim_config(rate=100.0),
        )
        (r,) = run_point_specs([entry], materialized={spec.key: tiny_trace})
        assert r.protocol == "DTN-FLOW"
        assert r.metrics.generated > 0

    def test_run_matrix_keys(self, tiny_scenario):
        res = run_scenario(
            tiny_scenario(protocols=["DTN-FLOW", "PROPHET"], sim={"rate": 100.0})
        )
        assert set(res.by_protocol()) == {"DTN-FLOW", "PROPHET"}


class TestSweeps:
    def test_memory_sweep_structure(self, tiny_sweep):
        res = tiny_sweep(
            "memory_kb", [500.0, 2000.0], ["DTN-FLOW", "PROPHET"], rate=150.0
        )
        assert res.values == (500.0, 2000.0)
        for proto in ("DTN-FLOW", "PROPHET"):
            for metric in SweepResult.METRICS:
                assert len(res.series[proto][metric]) == 2

    def test_success_rises_with_memory(self, tiny_sweep):
        res = tiny_sweep("memory_kb", [100.0, 4000.0], ["DTN-FLOW"], rate=300.0)
        series = res.series["DTN-FLOW"]["success_rate"]
        assert series[1] >= series[0]

    def test_rate_sweep_structure(self, tiny_sweep):
        res = tiny_sweep("rate", [100.0, 400.0], ["DTN-FLOW"])
        assert res.parameter == "rate"
        fwd = res.series["DTN-FLOW"]["forwarding_cost"]
        assert fwd[1] > fwd[0]  # more packets, more forwarding

    def test_metric_table_renders(self, tiny_sweep):
        res = tiny_sweep("rate", [100.0], ["DTN-FLOW"])
        text = res.metric_table("success_rate")
        assert "success_rate" in text
        with pytest.raises(ValueError):
            res.metric_table("bogus")

    def test_mean_and_final_values(self, tiny_sweep):
        res = tiny_sweep("rate", [100.0, 200.0], ["DTN-FLOW"])
        assert set(res.final_values("success_rate")) == {"DTN-FLOW"}
        m = res.mean_values("success_rate")["DTN-FLOW"]
        s = res.series["DTN-FLOW"]["success_rate"]
        assert m == pytest.approx(sum(s) / 2)


class TestCoverage:
    def test_series_shape_and_trend(self, tiny_trace, tiny_profile):
        pts = table_coverage_series(tiny_trace, tiny_profile, n_points=5, rate=100.0)
        assert len(pts) == 5
        times = [p.time for p in pts]
        assert times == sorted(times)
        for p in pts:
            assert 0.0 <= p.mean_coverage <= 1.0
            assert 0.0 <= p.mean_stability <= 1.0
        # Fig. 8 shape: coverage near-complete after the first points
        assert pts[-1].mean_coverage > 0.8


class TestDeployment:
    def test_deployment_results(self):
        res = run_deployment(trace_days=6, seed=7)
        m = res.metrics
        assert m.generated > 0
        # Fig. 16(a) shape: most packets reach the library
        assert m.success_rate > 0.5
        assert res.delay_summary is not None
        # all deliveries target the library
        assert set(res.metrics.delay_summary.as_tuple())  # exists
        # link map filtered by min bandwidth
        assert all(bw >= 0.14 for bw in res.link_bandwidths.values())

    def test_routing_tables_present(self):
        res = run_deployment(trace_days=6, seed=7)
        assert set(res.routing_tables) == set(range(8))
        # Table X property: landmarks know a route to the library
        routed = sum(
            1 for lid, entries in res.routing_tables.items()
            if lid != LIBRARY and any(e.dest == LIBRARY for e in entries)
        )
        assert routed >= 6


class TestExtensionsExperiments:
    def test_deadend_trace_has_long_stalls(self):
        trace, service = deadend_trace(seed=11)
        assert service
        assert set(service) <= set(trace.landmarks)
        # breakdowns: some visits last hours while typical stops take minutes
        durations = sorted(r.duration for r in trace)
        assert durations[-1] > 4 * 3600.0
        assert durations[len(durations) // 2] < 1800.0

    def test_deadend_experiment_rows(self):
        rows = deadend_experiment(gammas=(2.0,), seed=11, rate=200.0)
        labels = [r.label for r in rows]
        assert labels == ["ORG", "gamma=2"]
        for r in rows:
            assert 0 <= r.success_rate <= 1

    def test_loop_experiment_rows(self, tiny_trace, tiny_profile):
        rows = loop_experiment(tiny_trace, tiny_profile, loop_counts=(2,), rate=150.0)
        assert [r.label for r in rows] == ["ORG-2", "W-2"]
        org, w = rows
        assert w.loops_detected >= 0
        assert org.loops_detected == 0  # detection disabled in ORG

    def test_loadbalance_rows(self, tiny_trace, tiny_profile):
        rows = loadbalance_experiment(tiny_trace, tiny_profile, rates=(1100.0,))
        (row,) = rows
        assert row.rate == 1100.0
        assert 0 <= row.success_with <= 1
        assert 0 <= row.success_without <= 1
