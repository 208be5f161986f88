"""Edge-case coverage across modules: estimator versioning, engine knobs,
delivery claiming, CLI multi-seed mode, and assorted small behaviours."""


import pytest

from repro.core.bandwidth import BackwardReport, BandwidthEstimator
from repro.core import DTNFlowProtocol
from repro.mobility import stats
from repro.mobility.trace import Trace, VisitRecord, days
from repro.sim.engine import RoutingProtocol, SimConfig, Simulation, run_simulation
from repro.sim.packets import Packet


def rec(start, end, node, landmark):
    return VisitRecord(start=start, end=end, node=node, landmark=landmark)


class TestBandwidthVersioning:
    def test_version_starts_zero(self):
        assert BandwidthEstimator(0, 100.0).version == 0

    def test_fold_bumps_version_once(self):
        e = BandwidthEstimator(0, 100.0)
        e.record_arrival(1, 10.0)
        v0 = e.version
        e.advance_to(350.0)  # folds 3 units
        assert e.version == v0 + 1  # one bump per advance, not per unit

    def test_accepted_report_bumps_version(self):
        e = BandwidthEstimator(1, 100.0)
        v0 = e.version
        e.apply_backward_report(BackwardReport(observer=2, target=1, seq=1, bandwidth=2.0))
        assert e.version == v0 + 1

    def test_rejected_report_does_not_bump(self):
        e = BandwidthEstimator(1, 100.0)
        e.apply_backward_report(BackwardReport(observer=2, target=1, seq=5, bandwidth=2.0))
        v = e.version
        e.apply_backward_report(BackwardReport(observer=2, target=1, seq=4, bandwidth=9.0))
        assert e.version == v

    def test_noop_advance_does_not_bump(self):
        e = BandwidthEstimator(0, 100.0)
        e.advance_to(50.0)
        assert e.version == 0


class TestEngineKnobs:
    def _trace(self):
        recs = []
        for i in range(40):
            t = i * 1000.0
            recs.append(rec(t, t + 500, 0, i % 2))
        return Trace(recs, name="k")

    def test_generation_end_fraction(self):
        class Recorder(RoutingProtocol):
            name = "r"
            def __init__(self):
                self.gen_times = []
            def on_packet_generated(self, world, station, packet, t):
                self.gen_times.append(t)

        trace = self._trace()
        proto = Recorder()
        cfg = SimConfig(rate_per_landmark_per_day=500.0, ttl=days(1.0),
                        time_unit=5000.0, seed=1, generation_end_fraction=0.5)
        Simulation(trace, proto, cfg).run()
        cutoff = trace.start_time + 0.5 * trace.duration
        assert proto.gen_times
        assert all(t <= cutoff for t in proto.gen_times)

    def test_memory_scale_independent_of_workload(self):
        cfg = SimConfig(node_memory_kb=100.0, workload_scale=0.5, memory_scale=0.1)
        assert cfg.node_memory_bytes == pytest.approx(100.0 * 1024 * 0.1)

    def test_memory_scale_defaults_to_workload_scale(self):
        cfg = SimConfig(node_memory_kb=100.0, workload_scale=0.5)
        assert cfg.node_memory_bytes == pytest.approx(100.0 * 1024 * 0.5)

    def test_claim_delivery_dedupes(self):
        trace = self._trace()
        sim = Simulation(trace, RoutingProtocol(), SimConfig(rate_per_landmark_per_day=0.0))
        w = sim.world
        p = Packet(pid=5, src=0, dst=1, created=0.0, ttl=10.0)
        w.now = 3.0
        assert w.claim_delivery(p) is True
        assert w.claim_delivery(p) is False
        assert w.metrics.delivered == 1
        assert p.delivered_at == 3.0

    def test_contact_sampling_deterministic(self, dart_tiny, tiny_sim_config):
        from repro.baselines import make_protocol
        a = run_simulation(dart_tiny, make_protocol("PROPHET"), tiny_sim_config)
        b = run_simulation(dart_tiny, make_protocol("PROPHET"), tiny_sim_config)
        assert a == b

    def test_invalid_contact_prob(self):
        with pytest.raises(ValueError):
            SimConfig(contact_prob=1.5)

    def test_invalid_ttl_jitter(self):
        from repro.sim.packets import PacketFactory
        with pytest.raises(ValueError):
            PacketFactory(ttl=10.0, ttl_jitter=-0.1)


class TestStatsEdges:
    def test_visit_distribution_top_exceeds_landmarks(self):
        t = Trace([rec(0, 1, 0, 0), rec(2, 3, 0, 1)])
        dist = stats.visit_distribution(t, top=10)
        assert len(dist) == 2

    def test_bandwidth_concentration_empty(self):
        assert stats.bandwidth_concentration(Trace([]), 10.0) == 0.0

    def test_trace_summary_empty(self):
        s = stats.trace_summary(Trace([], name="empty"))
        assert s.n_records == 0 and s.n_transits == 0


class TestRouterSmallEdges:
    def test_station_and_node_state_accessors(self, dart_tiny, tiny_sim_config):
        proto = DTNFlowProtocol()
        Simulation(dart_tiny, proto, tiny_sim_config).run()
        lid = dart_tiny.landmarks[0]
        nid = dart_tiny.nodes[0]
        assert proto.station_state(lid).bw.landmark_id == lid
        assert proto.node_state(nid).pred.n_visits > 0

    def test_registry_learns_all_nodes(self, dart_tiny, tiny_sim_config):
        proto = DTNFlowProtocol()
        Simulation(dart_tiny, proto, tiny_sim_config).run()
        assert set(proto.registry.known_nodes()) == set(dart_tiny.nodes)


class TestCLIMultiSeed:
    def test_compare_with_cis(self, capsys):
        import dataclasses
        import json

        from repro.baselines import PAPER_PROTOCOLS
        from repro.cli import main
        from repro.eval.scenario import ScenarioSpec, run_scenario

        argv = ["compare", "--trace", "dnet", "--rate", "100", "--seeds", "2"]
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 0
        assert "±" in out
        # the JSON rows are the per-protocol CIs of the equivalent manifest
        assert main(argv + ["--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        spec = ScenarioSpec.from_dict({
            "trace": {"profile": "DNET", "seed": 1},
            "sim": {"rate": 100},
            "protocols": list(PAPER_PROTOCOLS),
            "seeds": [1, 2],
        })
        expected = {
            protocol: {m: dataclasses.asdict(ci) for m, ci in cis.items()}
            for protocol, cis in run_scenario(spec).confidence().items()
        }
        assert {r["protocol"]: r["metrics"] for r in rows} == expected
        assert all(r["seeds"] == [1, 2] for r in rows)
