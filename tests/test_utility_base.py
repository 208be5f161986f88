"""Tests for the shared utility-gradient machinery (repro.baselines.base)."""

import pytest

from repro.baselines.base import UtilityProtocol
from repro.mobility.trace import Trace, VisitRecord, days
from repro.sim.engine import SimConfig, Simulation
from repro.sim.packets import Packet


def rec(start, end, node, landmark):
    return VisitRecord(start=start, end=end, node=node, landmark=landmark)


class FixedUtilityProtocol(UtilityProtocol):
    """Utilities set directly by tests: (node_id, dest) -> value."""

    name = "fixed"

    def __init__(self, table=None):
        self.table = table or {}
        self.learned = []

    def utility(self, world, node, dest, t):
        return self.table.get((node.nid, dest), 0.0)

    def learn_visit(self, world, node, station, t):
        self.learned.append((node.nid, station.lid))


@pytest.fixture
def sim_world():
    recs = [rec(i * 100.0, i * 100.0 + 50, 0, i % 2) for i in range(10)]
    recs += [rec(i * 100.0 + 10, i * 100.0 + 60, 1, i % 2) for i in range(10)]
    trace = Trace(recs)
    proto = FixedUtilityProtocol()
    sim = Simulation(trace, proto, SimConfig(rate_per_landmark_per_day=0.0, ttl=days(1.0)))
    return sim.world, proto


class TestStationPush:
    def test_pushes_to_best_positive_utility(self, sim_world):
        world, proto = sim_world
        station = world.stations[0]
        n0, n1 = world.nodes[0], world.nodes[1]
        station.connected.update({0, 1})
        p = Packet(pid=0, src=0, dst=5, created=0.0, ttl=1e9)
        station.buffer.add(p)
        proto.table = {(0, 5): 0.2, (1, 5): 0.9}
        proto._station_push(world, station, t=0.0)
        assert p.pid in n1.buffer

    def test_zero_utility_keeps_packet_at_station(self, sim_world):
        world, proto = sim_world
        station = world.stations[0]
        station.connected.add(0)
        p = Packet(pid=0, src=0, dst=5, created=0.0, ttl=1e9)
        station.buffer.add(p)
        proto.table = {}
        proto._station_push(world, station, t=0.0)
        assert p.pid in station.buffer

    def test_full_carrier_skipped(self, sim_world):
        world, proto = sim_world
        station = world.stations[0]
        n0 = world.nodes[0]
        station.connected.add(0)
        # fill node 0's buffer completely
        cap = int(n0.buffer.capacity_bytes // 1024)
        for i in range(cap):
            n0.buffer.add(Packet(pid=1000 + i, src=0, dst=9, created=0.0, ttl=1e9))
        p = Packet(pid=0, src=0, dst=5, created=0.0, ttl=1e9)
        station.buffer.add(p)
        proto.table = {(0, 5): 0.9}
        proto._station_push(world, station, t=0.0)
        assert p.pid in station.buffer


class TestNodeToNodeGradient:
    def test_moves_to_strictly_better_peer(self, sim_world):
        world, proto = sim_world
        a, b = world.nodes[0], world.nodes[1]
        p = Packet(pid=0, src=0, dst=5, created=0.0, ttl=1e9)
        a.buffer.add(p)
        proto.table = {(0, 5): 0.3, (1, 5): 0.6}
        proto._compare_and_forward(world, a, b, t=0.0)
        assert p.pid in b.buffer

    def test_equal_utility_no_move(self, sim_world):
        world, proto = sim_world
        a, b = world.nodes[0], world.nodes[1]
        p = Packet(pid=0, src=0, dst=5, created=0.0, ttl=1e9)
        a.buffer.add(p)
        proto.table = {(0, 5): 0.6, (1, 5): 0.6}
        proto._compare_and_forward(world, a, b, t=0.0)
        assert p.pid in a.buffer

    def test_contact_is_bidirectional(self, sim_world):
        world, proto = sim_world
        a, b = world.nodes[0], world.nodes[1]
        pa = Packet(pid=0, src=0, dst=5, created=0.0, ttl=1e9)
        pb = Packet(pid=1, src=0, dst=6, created=0.0, ttl=1e9)
        a.buffer.add(pa)
        b.buffer.add(pb)
        proto.table = {(0, 5): 0.1, (1, 5): 0.9, (0, 6): 0.9, (1, 6): 0.1}
        proto.on_contact(world, a, b, world.stations[0], t=0.0)
        assert pa.pid in b.buffer
        assert pb.pid in a.buffer


class TestMaintenanceAccounting:
    def test_visit_charges_table_upload(self, sim_world):
        world, proto = sim_world
        station = world.stations[0]
        node = world.nodes[0]
        before = world.metrics.maintenance_ops
        proto.on_visit_start(world, node, station, t=0.0)
        assert world.metrics.maintenance_ops > before

    def test_contact_charges_both_directions(self, sim_world):
        world, proto = sim_world
        a, b = world.nodes[0], world.nodes[1]
        before = world.metrics.maintenance_ops
        proto.on_contact(world, a, b, world.stations[0], t=0.0)
        # two table exchanges of >= 1 op each
        assert world.metrics.maintenance_ops >= before + 2

    def test_learn_visit_hook_called(self, sim_world):
        world, proto = sim_world
        proto.on_visit_start(world, world.nodes[0], world.stations[1], t=0.0)
        assert (0, 1) in proto.learned
