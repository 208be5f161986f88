"""Fault-injection integration + graceful-degradation evaluation tests.

The Section IV-E stress checks live here: the paper motivates dead-end
prevention and loop correction with degraded conditions, so we actually
degrade the network (kill landmarks mid-run) and assert the extensions
trigger — and that DTN-FLOW degrades no worse than the baselines.
"""

import dataclasses
import json

import pytest

from repro.baselines import make_protocol
from repro.eval.experiment import execute_config
from repro.eval.resilience import (
    DEFAULT_INTENSITIES,
    degradation_curves,
    fault_plan_dict,
    reconvergence_after_death,
)
from repro.eval.scenario import ScenarioSpec
from repro.mobility.io import dump_trace
from repro.mobility.trace import days
from repro.obs import Observability, event_types as ev
from repro.sim.engine import SimConfig, Simulation
from repro.sim.faults import FaultPlan


def _light_config(**overrides) -> SimConfig:
    base = dict(
        ttl=days(5.0), rate_per_landmark_per_day=200.0, workload_scale=0.02,
        time_unit=days(2.0), seed=5, contact_prob=0.3,
    )
    base.update(overrides)
    return SimConfig(**base)


def _curve_spec(csv, config: SimConfig, protocols) -> ScenarioSpec:
    """The scenario whose every point runs ``config`` on the trace CSV:
    its full ``sim`` block (every field but seed and faults), its seed."""
    sim = {
        f: v for f, v in dataclasses.asdict(config).items()
        if f not in ("seed", "faults")
    }
    return ScenarioSpec.from_dict({
        "trace": {"path": str(csv)}, "sim": sim,
        "protocols": list(protocols), "seeds": [config.seed],
    })


@pytest.fixture(scope="module")
def dart_tiny_csv(dart_tiny, tmp_path_factory):
    path = tmp_path_factory.mktemp("curves") / "dart_tiny.csv"
    dump_trace(dart_tiny, path)
    return path


@pytest.fixture(scope="module")
def dart_small_csv(dart_small, tmp_path_factory):
    path = tmp_path_factory.mktemp("curves") / "dart_small.csv"
    dump_trace(dart_small, path)
    return path


OUTAGE_PLAN = {
    "seed": 3,
    "specs": [
        {"kind": "landmark_outage", "start": 0.3, "end": 0.7, "count": 2},
        {"kind": "node_churn", "start": 0.3, "end": 0.7, "fraction": 0.2},
    ],
}


class TestEngineIntegration:
    def test_faulted_run_is_deterministic(self, dart_tiny):
        cfg = _light_config(faults=OUTAGE_PLAN)
        a = Simulation(dart_tiny, make_protocol("DTN-FLOW"), cfg).run()
        b = Simulation(dart_tiny, make_protocol("DTN-FLOW"), cfg).run()
        assert a == b

    def test_identical_fault_sequence_across_protocols(self, dart_tiny):
        """The determinism contract: every protocol sees the same failures."""
        cfg = _light_config(faults=OUTAGE_PLAN)
        sequences = {}
        for name in ("DTN-FLOW", "PROPHET"):
            obs = Observability(enabled=True)
            Simulation(dart_tiny, make_protocol(name), cfg, obs=obs).run()
            sequences[name] = [
                (e.t, e.etype, e.data.get("kind"), e.data.get("spec"))
                for e in obs.events.select(
                    etypes=[ev.FAULT_INJECTED, ev.FAULT_CLEARED]
                )
            ]
        assert sequences["DTN-FLOW"] == sequences["PROPHET"]
        assert sequences["DTN-FLOW"], "expected fault edges to be recorded"

    def test_faults_hurt_and_counters_move(self, dart_tiny):
        healthy = Simulation(
            dart_tiny, make_protocol("DTN-FLOW"), _light_config()
        ).run()
        cfg = _light_config(faults=OUTAGE_PLAN)
        obs = Observability(enabled=True)
        faulted = Simulation(
            dart_tiny, make_protocol("DTN-FLOW"), cfg, obs=obs
        ).run()
        assert faulted.success_rate < healthy.success_rate
        assert obs.events.counts_by_type().get(ev.FAULT_SKIPPED, 0) > 0

    def test_empty_plan_equals_no_plan(self, dart_tiny):
        import dataclasses

        plain = Simulation(
            dart_tiny, make_protocol("DTN-FLOW"), _light_config()
        ).run()
        empty = Simulation(
            dart_tiny, make_protocol("DTN-FLOW"),
            _light_config(faults={"seed": 0, "specs": []}),
        ).run()
        # provenance records the (empty) plan; the physics must not change
        def strip(m):
            return dataclasses.replace(m, provenance=None)

        assert strip(plain) == strip(empty)

    def test_config_normalizes_plan_dict(self):
        cfg = _light_config(faults=OUTAGE_PLAN)
        assert cfg.faults == FaultPlan.from_dict(OUTAGE_PLAN).as_dict()
        with pytest.raises(ValueError, match="kind"):
            _light_config(faults={"specs": [{"kind": "nope"}]})


class TestFaultPlanDict:
    def test_zero_intensity_is_empty(self):
        assert fault_plan_dict(0.0, n_landmarks=10)["specs"] == []

    def test_full_intensity_composes_all_kinds(self):
        plan = fault_plan_dict(1.0, n_landmarks=10, seed=3)
        kinds = [s["kind"] for s in plan["specs"]]
        assert kinds == ["landmark_outage", "node_churn",
                        "link_degradation", "transfer_loss"]
        assert plan["seed"] == 3
        FaultPlan.from_dict(plan)  # validates

    def test_outage_count_scales_but_spares_survivors(self):
        low = fault_plan_dict(0.25, n_landmarks=10)["specs"][0]["count"]
        high = fault_plan_dict(1.0, n_landmarks=10)["specs"][0]["count"]
        assert 1 <= low <= high
        tiny = fault_plan_dict(1.0, n_landmarks=2)["specs"][0]["count"]
        assert tiny == 1  # never every landmark

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fault_plan_dict(1.5, n_landmarks=10)
        with pytest.raises(ValueError, match="two landmarks"):
            fault_plan_dict(0.5, n_landmarks=1)


class TestDegradationCurves:
    INTENSITIES = (0.0, 0.75)

    @pytest.fixture(scope="class")
    def curves(self, dart_tiny_csv):
        spec = _curve_spec(dart_tiny_csv, _light_config(), ("DTN-FLOW", "PROPHET"))
        return degradation_curves(spec, self.INTENSITIES, fault_seed=7)

    def test_grid_shape(self, curves, dart_tiny):
        assert len(curves) == len(self.INTENSITIES)
        for res in curves:
            assert [p.protocol for p in res.points] == ["DTN-FLOW", "PROPHET"]
            assert {r.trace for r in res.results} == {dart_tiny.name}

    def test_intensity_zero_matches_unfaulted_run(self, curves, dart_tiny):
        baseline = Simulation(
            dart_tiny, make_protocol("DTN-FLOW"), _light_config()
        ).run()
        m0 = curves[0].results[0].metrics
        assert m0.success_rate == baseline.success_rate
        assert m0.generated == baseline.generated

    def test_faults_degrade_success(self, curves):
        for healthy, faulted in zip(curves[0].results, curves[-1].results):
            assert faulted.metrics.success_rate < healthy.metrics.success_rate, (
                healthy.protocol
            )

    def test_each_intensity_runs_the_spec_with_its_fault_block(
        self, curves, dart_tiny
    ):
        for x, res in zip(self.INTENSITIES, curves):
            plan = fault_plan_dict(x, n_landmarks=dart_tiny.n_landmarks, seed=7)
            expected = FaultPlan.from_dict(plan) if plan["specs"] else None
            assert res.spec.faults == expected
            for point, r in zip(res.points, res.results):
                # every point carries its resolved scenario, so it reruns
                assert r.metrics.provenance.scenario == point.scenario
                assert ScenarioSpec.from_dict(point.scenario).faults == expected

    def test_points_equal_direct_runs_of_the_hand_resolved_config(
        self, curves, dart_tiny
    ):
        """The reference: each (protocol, intensity) point equals
        ``execute_config`` on the same trace with ``faults`` set by hand."""
        def physics(result):
            return dataclasses.replace(result.metrics, provenance=None)

        for x, res in zip(self.INTENSITIES, curves):
            plan = fault_plan_dict(x, n_landmarks=dart_tiny.n_landmarks, seed=7)
            config = dataclasses.replace(
                _light_config(), faults=plan if plan["specs"] else None
            )
            for r in res.results:
                direct = execute_config(
                    dart_tiny, r.protocol, config,
                    memory_kb=config.node_memory_kb,
                    rate=config.rate_per_landmark_per_day, seed=config.seed,
                )
                assert physics(r) == physics(direct), (r.protocol, x)

    def test_the_whole_curve_is_one_grid(self, dart_tiny_csv):
        """Every intensity's points reach the executor together, so a pool
        packs them across intensities instead of draining at each one."""
        events = []
        spec = _curve_spec(dart_tiny_csv, _light_config(), ("Direct",))
        curves = degradation_curves(
            spec, (0.0, 0.5, 1.0), fault_seed=7, progress=events.append
        )
        started = [e for e in events if e.kind == "started"]
        assert [e.index for e in started] == [0, 1, 2]
        assert {e.total for e in started} == {3}
        assert [len(res.results) for res in curves] == [1, 1, 1]

    def test_default_grid_spans_unit_interval(self):
        assert DEFAULT_INTENSITIES[0] == 0.0
        assert DEFAULT_INTENSITIES[-1] == 1.0

    def test_rejects_empty_protocols(self, dart_tiny_csv):
        with pytest.raises(ValueError, match="protocol"):
            _curve_spec(dart_tiny_csv, _light_config(), ())

    def test_rejects_unknown_protocols_up_front(self, dart_tiny_csv):
        # spec validation fires before any simulation work, naming the
        # offender and the known registry
        spec = _curve_spec(dart_tiny_csv, _light_config(), ("DTN-FLOW", "Bogus"))
        with pytest.raises(ValueError) as exc:
            spec.validate()
        msg = str(exc.value)
        assert "Bogus" in msg and "available:" in msg
        assert "PROPHET" in msg  # the known list includes real names


class TestReconvergence:
    def test_explicit_victim_and_probe_layout(self, dart_tiny):
        lid = sorted(dart_tiny.landmarks)[0]
        res = reconvergence_after_death(
            dart_tiny, landmark=lid, death_start=0.5, n_probes=6,
            config=_light_config(),
        )
        assert res.dead_landmark == lid
        assert len(res.probe_times) == 6
        assert len(res.stale_routes) == 6
        assert res.probe_times == sorted(res.probe_times)
        span = dart_tiny.end_time - dart_tiny.start_time
        assert res.death_time == pytest.approx(
            dart_tiny.start_time + 0.5 * span
        )
        if res.reconverged_at is not None:
            assert res.reconverged_at >= res.death_time
            assert res.reconvergence_delay >= 0.0
        else:
            assert res.reconvergence_delay is None

    def test_as_dict_is_json_ready(self, dart_tiny):
        res = reconvergence_after_death(
            dart_tiny, death_start=0.5, n_probes=4, config=_light_config(),
        )
        payload = json.loads(json.dumps(res.as_dict()))
        assert payload["dead_landmark"] == res.dead_landmark
        assert payload["stale_routes"] == res.stale_routes

    def test_rejects_bad_inputs(self, dart_tiny):
        with pytest.raises(ValueError):
            reconvergence_after_death(dart_tiny, death_start=1.5)
        with pytest.raises(ValueError, match="probes"):
            reconvergence_after_death(dart_tiny, n_probes=1)


class TestSectionIVEStress:
    """The paper's extensions must actually trigger under landmark failure."""

    @pytest.fixture(scope="class")
    def killed_run(self, dart_small):
        cfg = SimConfig(
            ttl=days(7.0), rate_per_landmark_per_day=500.0,
            workload_scale=0.01, time_unit=days(3.0), seed=3,
            contact_prob=0.2,
            faults={"seed": 3, "specs": [
                {"kind": "landmark_death", "start": 0.4, "count": 2},
            ]},
        )
        protocol = make_protocol(
            "DTN-FLOW", enable_deadend=True, deadend_min_history=3,
            deadend_gamma=1.2, enable_loop_correction=True,
        )
        obs = Observability(enabled=True)
        summary = Simulation(dart_small, protocol, cfg, obs=obs).run()
        return obs, summary

    def test_deadend_prevention_triggers(self, killed_run):
        obs, _ = killed_run
        assert obs.events.counts_by_type().get(ev.DEADEND_REROUTE, 0) > 0

    def test_loop_correction_triggers(self, killed_run):
        obs, _ = killed_run
        assert obs.events.counts_by_type().get(ev.LOOP_DETECTED, 0) > 0

    def test_death_recorded_and_run_completes(self, killed_run):
        obs, summary = killed_run
        injected = obs.events.select(etypes=[ev.FAULT_INJECTED])
        assert len(injected) == 1
        assert injected[0].data["kind"] == "landmark_death"
        assert len(injected[0].data["landmarks"]) == 2
        assert summary.delivered > 0  # degraded, not dead

    def test_dtn_flow_degrades_no_worse_than_prophet(self, dart_small_csv):
        cfg = SimConfig(
            ttl=days(7.0), rate_per_landmark_per_day=500.0,
            workload_scale=0.01, time_unit=days(3.0), seed=3,
            contact_prob=0.2,
        )
        intensities = (0.0, 0.5, 1.0)
        curves = degradation_curves(
            _curve_spec(dart_small_csv, cfg, ("DTN-FLOW", "PROPHET")),
            intensities, fault_seed=7,
        )
        for x, res in zip(intensities, curves):
            flow, prophet = (r.metrics.success_rate for r in res.results)
            assert flow >= prophet, f"PROPHET beat DTN-FLOW at intensity {x}"
