"""Unit tests for the Section IV-E extension components:
dead-end detection, loop correction, load balancing, node-location registry,
and the communication scheduler."""

import pytest
from hypothesis import given, strategies as st

from repro.baselines import make_protocol
from repro.core.deadend import DeadEndDetector
from repro.core.loadbalance import LinkLoadMonitor
from repro.core.loops import LoopCorrector, inject_loop
from repro.core.node_routing import NodeLocationRegistry
from repro.core.router import META_ASSIGNED_BY, DTNFlowProtocol
from repro.core.routing_table import RoutingTable
from repro.core.scheduler import (
    FORWARD,
    MAX_UPLOAD_BATCH,
    R_DOWN,
    R_UP,
    UPLOAD,
    CommScheduler,
)
from repro.mobility.trace import Trace, VisitRecord, days
from repro.sim.engine import SimConfig, Simulation
from repro.sim.packets import Packet


# ---------------------------------------------------------------------------
# DeadEndDetector
# ---------------------------------------------------------------------------


class TestDeadEndDetector:
    def test_not_ready_without_history(self):
        d = DeadEndDetector(gamma=2.0, min_history=5)
        assert not d.ready
        assert not d.is_dead_end(0, 1e9)

    def test_ready_after_min_history(self):
        d = DeadEndDetector(gamma=2.0, min_history=3)
        for _ in range(3):
            d.record_stay(0, 100.0)
        assert d.ready

    def test_overall_condition(self):
        d = DeadEndDetector(gamma=2.0, min_history=3)
        for lm in (0, 1, 2):
            d.record_stay(lm, 100.0)
        assert d.is_dead_end(5, 201.0)  # > 2 x overall average
        assert not d.is_dead_end(5, 199.0)

    def test_local_condition(self):
        d = DeadEndDetector(gamma=2.0, min_history=3)
        d.record_stay(0, 1000.0)
        d.record_stay(0, 1000.0)
        d.record_stay(1, 10.0)
        # overall avg = 670; at landmark 1 avg = 10 => 25 triggers local only
        assert d.is_dead_end(1, 25.0)
        assert not d.is_dead_end(0, 25.0)

    def test_averages(self):
        d = DeadEndDetector()
        assert d.average_stay() is None
        d.record_stay(3, 10.0)
        d.record_stay(3, 20.0)
        assert d.average_stay() == 15.0
        assert d.average_stay_at(3) == 15.0
        assert d.average_stay_at(9) is None

    def test_rejects_negative_stay(self):
        with pytest.raises(ValueError):
            DeadEndDetector().record_stay(0, -1.0)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            DeadEndDetector(gamma=0)

    @given(st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=10, max_size=50))
    def test_normal_stay_never_dead_end(self, stays):
        """A stay equal to the historical average is never a dead end."""
        d = DeadEndDetector(gamma=2.0, min_history=5)
        for s in stays:
            d.record_stay(0, s)
        assert not d.is_dead_end(0, d.average_stay())


# ---------------------------------------------------------------------------
# LoopCorrector
# ---------------------------------------------------------------------------


def _pkt(pid=0, dst=9):
    return Packet(pid=pid, src=0, dst=dst, created=0.0, ttl=100.0)


class TestLoopCorrector:
    def test_no_loop_no_event(self):
        p = _pkt()
        p.visited = [1, 2, 3]
        assert LoopCorrector.extract_loop(p, 4) is None

    def test_extract_cycle(self):
        p = _pkt()
        p.visited = [1, 2, 3, 4]
        assert LoopCorrector.extract_loop(p, 2) == (2, 3, 4)

    def test_report_flushes_tables(self):
        tables = {i: RoutingTable(i) for i in range(5)}
        for t in tables.values():
            t._offer_route(9, 1, 5.0)
        p = _pkt(dst=9)
        p.visited = [2, 3, 4]
        corr = LoopCorrector()
        event = corr.report(p, 3, tables, now=50.0)
        assert event is not None
        assert event.landmarks == (3, 4)
        for lid in (3, 4):
            assert tables[lid].lookup(9) is None
        assert tables[1].lookup(9) is not None  # uninvolved landmark untouched

    def test_hold_down_window(self):
        corr = LoopCorrector(hold_time=10.0)
        tables = {3: RoutingTable(3)}
        p = _pkt(dst=9)
        p.visited = [3, 4]
        corr.report(p, 3, tables, now=0.0)
        assert corr.is_held(3, 9, now=5.0)
        assert not corr.is_held(3, 9, now=10.0)
        assert not corr.is_held(3, 9, now=11.0)  # expired entries cleaned

    def test_unrelated_not_held(self):
        corr = LoopCorrector(hold_time=10.0)
        assert not corr.is_held(1, 2, now=0.0)

    def test_event_counter(self):
        corr = LoopCorrector()
        tables = {1: RoutingTable(1)}
        for i in range(3):
            p = _pkt(pid=i)
            p.visited = [1, 2]
            corr.report(p, 1, tables, now=float(i))
        assert corr.n_loops_detected == 3


class TestInjectLoop:
    def test_creates_cycle(self):
        tables = {i: RoutingTable(i) for i in range(4)}
        inject_loop(tables, cycle=[1, 2, 3], dest=0, delay=1.0)
        assert tables[1].next_hop(0) == 2
        assert tables[2].next_hop(0) == 3
        assert tables[3].next_hop(0) == 1

    def test_requires_two_landmarks(self):
        with pytest.raises(ValueError):
            inject_loop({}, cycle=[1], dest=0)

    def test_loop_detected_by_walking_packet(self):
        """A packet following an injected loop is caught on its revisit."""
        tables = {i: RoutingTable(i) for i in range(4)}
        inject_loop(tables, cycle=[1, 2, 3], dest=0, delay=1.0)
        p = _pkt(dst=0)
        at = 1
        corr = LoopCorrector()
        for _ in range(10):
            if p.record_visit(at):
                event = corr.report(p, at, tables, now=0.0)
                assert event is not None
                break
            at = tables[at].next_hop(0)
        else:
            pytest.fail("loop never detected")


# ---------------------------------------------------------------------------
# LinkLoadMonitor
# ---------------------------------------------------------------------------


class TestLinkLoadMonitor:
    def test_initially_not_overloaded(self):
        m = LinkLoadMonitor(time_unit=100.0)
        assert not m.is_overloaded(1)

    def test_overload_when_in_exceeds_theta_out(self):
        m = LinkLoadMonitor(time_unit=100.0, theta=2.0, rho=1.0)
        for t in range(10):
            m.record_assigned(1, float(t))
        m.record_carried_out(1, 5.0)
        m.advance_to(100.0)
        assert m.incoming_rate(1) == 10.0
        assert m.outgoing_rate(1) == 1.0
        assert m.is_overloaded(1)

    def test_balanced_link_not_overloaded(self):
        m = LinkLoadMonitor(time_unit=100.0, theta=2.0, rho=1.0)
        for t in range(10):
            m.record_assigned(1, float(t))
            m.record_carried_out(1, float(t))
        m.advance_to(100.0)
        assert not m.is_overloaded(1)

    def test_idle_link_not_overloaded(self):
        """Zero out-rate with negligible in-rate is not 'overload'."""
        m = LinkLoadMonitor(time_unit=100.0, theta=2.0, rho=1.0, min_in_rate=2.0)
        m.record_assigned(1, 0.0)
        m.advance_to(100.0)
        assert not m.is_overloaded(1)

    def test_overloaded_links_listing(self):
        m = LinkLoadMonitor(time_unit=100.0, rho=1.0)
        for t in range(10):
            m.record_assigned(2, float(t))
        m.advance_to(100.0)
        assert m.overloaded_links() == [2]

    def test_rates_decay_over_idle_units(self):
        m = LinkLoadMonitor(time_unit=100.0, rho=0.5)
        for t in range(8):
            m.record_assigned(1, float(t))
        m.advance_to(100.0)
        r1 = m.incoming_rate(1)
        m.advance_to(300.0)
        assert m.incoming_rate(1) < r1


# ---------------------------------------------------------------------------
# NodeLocationRegistry
# ---------------------------------------------------------------------------


class TestNodeLocationRegistry:
    def test_unknown_node(self):
        r = NodeLocationRegistry()
        assert r.frequent_landmarks(5) == []
        assert r.home_landmark(5) is None

    def test_most_visited_first(self):
        r = NodeLocationRegistry(top_k=2)
        for _ in range(5):
            r.record_visit(0, 7)
        r.record_visit(0, 3)
        assert r.frequent_landmarks(0) == [7, 3]
        assert r.home_landmark(0) == 7

    def test_bulk_load(self):
        r = NodeLocationRegistry()
        r.bulk_load(1, {4: 10, 5: 2})
        assert r.home_landmark(1) == 4

    def test_visit_share(self):
        r = NodeLocationRegistry()
        r.bulk_load(0, {1: 3, 2: 1})
        assert r.visit_share(0, 1) == pytest.approx(0.75)
        assert r.visit_share(9, 1) == 0.0

    def test_known_nodes(self):
        r = NodeLocationRegistry()
        r.record_visit(3, 0)
        r.record_visit(1, 0)
        assert r.known_nodes() == [1, 3]


# ---------------------------------------------------------------------------
# CommScheduler
# ---------------------------------------------------------------------------


class TestCommScheduler:
    def test_default_mode_forward(self):
        assert CommScheduler().mode == FORWARD

    def test_switch_to_upload_when_starved(self):
        s = CommScheduler()
        assert s.update_mode(station_packets=1, node_packets=10) == UPLOAD

    def test_switch_to_forward_when_backed_up(self):
        s = CommScheduler()
        s.update_mode(1, 10)
        assert s.update_mode(station_packets=20, node_packets=10) == FORWARD

    def test_hysteresis_band_keeps_mode(self):
        s = CommScheduler()
        s.update_mode(1, 10)  # UPLOAD
        assert s.update_mode(station_packets=10, node_packets=10) == UPLOAD

    def test_no_node_packets(self):
        s = CommScheduler()
        assert s.update_mode(station_packets=5, node_packets=0) == FORWARD

    def test_inverted_band_rejected(self):
        """The band is fixed and not inverted; a manifest cannot set it."""
        assert 0.0 < R_UP < 1.0 < R_DOWN
        with pytest.raises(ValueError, match="scheduler.r_up"):
            make_protocol("DTN-FLOW", scheduler={"r_up": 2.0, "r_down": 1.0})

    def test_feasibility(self):
        """Feasible means the expected delay fits the remaining TTL (90)."""
        s = CommScheduler()
        p = Packet(pid=0, src=0, dst=1, created=0.0, ttl=100.0)
        assert s.forwarding_order([p], lambda q: 50.0, now=10.0) == [p]
        assert s.forwarding_order([p], lambda q: 90.0, now=10.0) == [p]
        assert s.forwarding_order([p], lambda q: 95.0, now=10.0) == []

    def test_forwarding_order_most_urgent_first(self):
        s = CommScheduler()
        ps = [Packet(pid=i, src=0, dst=1, created=float(i * 10), ttl=100.0) for i in range(3)]
        ordered = s.forwarding_order(ps, lambda p: 1.0, now=50.0)
        assert [p.pid for p in ordered] == [0, 1, 2]  # oldest = least remaining TTL

    def test_forwarding_order_drops_infeasible(self):
        s = CommScheduler()
        ps = [Packet(pid=0, src=0, dst=1, created=0.0, ttl=100.0)]
        assert s.forwarding_order(ps, lambda p: 1e9, now=0.0) == []

    def test_upload_batch_size(self):
        """IV-D.5 rule 3: over a rate-limited link one upload turn moves at
        most MAX_UPLOAD_BATCH packets off the arriving node."""
        trace = Trace([
            VisitRecord(start=0.0, end=100.0, node=0, landmark=0),
            VisitRecord(start=200.0, end=300.0, node=0, landmark=1),
        ])
        proto = DTNFlowProtocol()
        sim = Simulation(trace, proto, SimConfig(
            rate_per_landmark_per_day=0.0, ttl=days(1.0),
            link_rate_bytes_per_sec=1e9,
        ))
        w = sim.world
        proto.setup(w)
        node, station = w.nodes[0], w.stations[0]
        node.at_landmark = 0
        station.connected.add(0)
        w.begin_visit_budget(node, 100.0)
        for pid in range(MAX_UPLOAD_BATCH + 10):
            p = Packet(pid=pid, src=1, dst=9, created=0.0, ttl=1e9)
            p.meta[META_ASSIGNED_BY] = 0  # back at its assigner: re-upload
            assert node.buffer.add(p)
        proto._handover_from_node(w, node, station, 0.0)
        assert len(station.buffer) == MAX_UPLOAD_BATCH
        assert len(node.buffer) == 10
