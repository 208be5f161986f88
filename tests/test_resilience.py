"""Fault-injection integration + graceful-degradation evaluation tests.

The Section IV-E stress checks live here: the paper motivates dead-end
prevention and loop correction with degraded conditions, so we actually
degrade the network (kill landmarks mid-run) and assert the extensions
trigger — and that DTN-FLOW degrades no worse than the baselines.
"""

import json

import pytest

from repro.baselines import make_protocol
from repro.eval.resilience import (
    DEFAULT_INTENSITIES,
    degradation_curves,
    fault_plan_dict,
    reconvergence_after_death,
)
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
    @pytest.fixture(scope="class")
    def curves(self, dart_tiny):
        return degradation_curves(
            dart_tiny, protocols=("DTN-FLOW", "PROPHET"),
            intensities=(0.0, 0.75), config=_light_config(), fault_seed=7,
        )

    def test_grid_shape(self, curves, dart_tiny):
        assert set(curves.curves) == {"DTN-FLOW", "PROPHET"}
        assert curves.trace == dart_tiny.name
        for points in curves.curves.values():
            assert [p.intensity for p in points] == [0.0, 0.75]

    def test_intensity_zero_matches_unfaulted_run(self, curves, dart_tiny):
        baseline = Simulation(
            dart_tiny, make_protocol("DTN-FLOW"), _light_config()
        ).run()
        p0 = curves.curves["DTN-FLOW"][0]
        assert p0.success_rate == baseline.success_rate
        assert p0.generated == baseline.generated

    def test_faults_degrade_success(self, curves):
        for name, points in curves.curves.items():
            assert points[-1].success_rate < points[0].success_rate, name

    def test_series_and_json_round_trip(self, curves):
        assert curves.series("PROPHET", "success_rate") == [
            p.success_rate for p in curves.curves["PROPHET"]
        ]
        payload = json.loads(curves.to_json())
        assert payload == curves.as_dict()
        assert payload["intensities"] == [0.0, 0.75]

    def test_default_grid_spans_unit_interval(self):
        assert DEFAULT_INTENSITIES[0] == 0.0
        assert DEFAULT_INTENSITIES[-1] == 1.0

    def test_rejects_empty_protocols(self, dart_tiny):
        with pytest.raises(ValueError, match="protocol"):
            degradation_curves(dart_tiny, protocols=())

    def test_rejects_unknown_protocols_up_front(self, dart_tiny):
        # validation must fire before any simulation work, naming both the
        # offenders and the known registry
        with pytest.raises(ValueError) as exc:
            degradation_curves(
                dart_tiny, protocols=("DTN-FLOW", "Bogus", "Nope")
            )
        msg = str(exc.value)
        assert "Bogus" in msg and "Nope" in msg and "known:" in msg
        assert "DTN-FLOW" in msg  # the known list includes real names


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

    def test_dtn_flow_degrades_no_worse_than_prophet(self, dart_small):
        cfg = SimConfig(
            ttl=days(7.0), rate_per_landmark_per_day=500.0,
            workload_scale=0.01, time_unit=days(3.0), seed=3,
            contact_prob=0.2,
        )
        curves = degradation_curves(
            dart_small, protocols=("DTN-FLOW", "PROPHET"),
            intensities=(0.0, 0.5, 1.0), config=cfg, fault_seed=7,
        )
        flow = curves.series("DTN-FLOW", "success_rate")
        prophet = curves.series("PROPHET", "success_rate")
        for x, f, p in zip(curves.intensities, flow, prophet):
            assert f >= p, f"PROPHET beat DTN-FLOW at intensity {x}"
