"""Tests for Spray-and-Wait and the IV-E.4 multi-copy node addressing."""

import pytest

from repro.baselines import SprayAndWaitProtocol, make_protocol
from repro.baselines.spraywait import META_COPIES
from repro.core import DTNFlowConfig, DTNFlowProtocol
from repro.mobility.trace import Trace, VisitRecord, days
from repro.sim.engine import SimConfig, Simulation, run_simulation
from repro.sim.packets import Packet


def rec(start, end, node, landmark):
    return VisitRecord(start=start, end=end, node=node, landmark=landmark)


class TestSprayAndWait:
    def test_registered(self):
        assert make_protocol("SprayWait").name == "SprayWait"

    def test_rejects_bad_copies(self):
        """The copy budget is a constant; a manifest cannot set it."""
        with pytest.raises(ValueError, match="'SprayWait'.*n_copies"):
            make_protocol("SprayWait", n_copies=0)

    def test_binary_split_halves_copies(self, dart_tiny, tiny_sim_config):
        proto = SprayAndWaitProtocol()
        sim = Simulation(dart_tiny, proto, tiny_sim_config)
        w = sim.world
        station = w.stations[dart_tiny.landmarks[0]]
        node = w.nodes[dart_tiny.nodes[0]]
        p = Packet(pid=0, src=station.lid, dst=dart_tiny.landmarks[1], created=0.0, ttl=1e9)
        p.meta[META_COPIES] = 8
        station.buffer.add(p)
        assert proto._split_to(w, p, station.buffer, node.buffer)
        assert p.meta[META_COPIES] == 4
        clone = node.buffer.get(0)
        assert clone is not None and clone.meta[META_COPIES] == 4

    def test_single_copy_not_split(self, dart_tiny, tiny_sim_config):
        proto = SprayAndWaitProtocol()
        sim = Simulation(dart_tiny, proto, tiny_sim_config)
        w = sim.world
        station = w.stations[dart_tiny.landmarks[0]]
        node = w.nodes[dart_tiny.nodes[0]]
        p = Packet(pid=0, src=station.lid, dst=dart_tiny.landmarks[1], created=0.0, ttl=1e9)
        p.meta[META_COPIES] = 1
        station.buffer.add(p)
        assert not proto._split_to(w, p, station.buffer, node.buffer)

    def test_end_to_end_no_overcounting(self, dart_tiny, tiny_sim_config):
        s = run_simulation(dart_tiny, SprayAndWaitProtocol(), tiny_sim_config)
        assert s.generated > 0
        assert s.delivered + s.dropped_ttl <= s.generated
        assert s.success_rate > 0.4


class TestMultiCopyNodeRouting:
    def _learned_protocol(self):
        """A protocol whose registry knows node 0's haunts."""
        proto = DTNFlowProtocol(DTNFlowConfig(enable_node_routing=True))
        for _ in range(5):
            proto.registry.record_visit(0, 7)
        for _ in range(3):
            proto.registry.record_visit(0, 4)
        proto.registry.record_visit(0, 2)
        return proto

    def test_replicas_target_top_k(self):
        proto = self._learned_protocol()
        p = Packet(pid=9, src=1, dst=1, created=0.0, ttl=100.0)
        reps = proto.replicate_for_node(p, dest_node=0, k=2)
        assert [r.dst for r in reps] == [7, 4]
        assert all(r.pid == 9 for r in reps)
        assert all(r.meta["dest_node"] == 0 for r in reps)

    def test_unknown_node_falls_back_to_original_dst(self):
        proto = DTNFlowProtocol(DTNFlowConfig(enable_node_routing=True))
        p = Packet(pid=9, src=1, dst=5, created=0.0, ttl=100.0)
        reps = proto.replicate_for_node(p, dest_node=42, k=2)
        assert len(reps) == 1 and reps[0].dst == 5

    def test_requires_flag(self):
        proto = DTNFlowProtocol(DTNFlowConfig(enable_node_routing=False))
        p = Packet(pid=9, src=1, dst=5, created=0.0, ttl=100.0)
        with pytest.raises(RuntimeError):
            proto.replicate_for_node(p, dest_node=0)

    def test_replicas_deliver_once(self):
        """Two replicas parked at two landmarks; the node picks up one copy
        and the delivery is counted once."""
        recs = []
        # node 0 alternates landmarks 7 and 4 (its frequented places)
        for i in range(30):
            t = i * 1000.0
            recs.append(rec(t, t + 400, 0, 7 if i % 2 == 0 else 4))
        # a second node so the trace has 2+ landmarks with traffic
        for i in range(30):
            t = i * 1000.0 + 500
            recs.append(rec(t, t + 300, 1, 2))
        trace = Trace(recs)
        proto = DTNFlowProtocol(DTNFlowConfig(enable_node_routing=True))
        cfg = SimConfig(ttl=days(1.0), rate_per_landmark_per_day=0.0,
                        time_unit=4000.0, seed=1)
        sim = Simulation(trace, proto, cfg)

        planted = {}

        def probe(world):
            base = Packet(pid=777, src=2, dst=2, created=world.now, ttl=1e9)
            reps = proto.replicate_for_node(base, dest_node=0, k=2)
            for r in reps:
                world.stations[r.dst].buffer.add(r)
            world.metrics.on_generated()
            planted["reps"] = reps

        sim.probes = [(15_000.0, probe)]
        summary = sim.run()
        delivered = [r for r in planted["reps"] if r.delivered_at is not None]
        assert delivered, "no replica reached node 0"
        assert summary.delivered == 1  # counted once despite two replicas
