"""The DTN-FLOW routing protocol (Section IV of the paper).

This module wires the four components — transit prediction, bandwidth
measurement, distance-vector routing tables and the packet-forwarding
algorithm — plus the Section IV-E extensions into a
:class:`~repro.sim.engine.RoutingProtocol` the simulator can drive.

Information flow (all through mobile nodes, never over fixed links):

* a node arriving at landmark ``L`` delivers (i) its previous landmark's
  routing-table snapshot and (ii) a backward bandwidth report if ``L`` is
  the report's target; both are charged as maintenance cost;
* ``L`` measures the arrival on the incoming transit link, updates the
  node's Markov predictor/accuracy, and collects the node's next-transit
  prediction;
* carried packets are handed over when doing so *reduces the expected
  delay* to their destinations (the prediction-inaccuracy rule, IV-D.1);
* ``L`` forwards its queued packets: direct-delivery first (a connected
  node predicted to visit the destination), otherwise to the connected node
  with the highest *overall transit probability* (predicted probability x
  tracked prediction accuracy, IV-D.4) toward the routing table's next hop;
* on departure the node receives ``L``'s table snapshot and a backward
  report addressed to its predicted next landmark.

Extensions (each individually switchable in :class:`DTNFlowConfig`):
dead-end prevention (IV-E.1), loop detection/correction (IV-E.2), load
balancing via backup next hops (IV-E.3) and routing to mobile nodes
(IV-E.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from time import perf_counter
from typing import Dict, List, Optional

from repro.core.bandwidth import BandwidthEstimator
from repro.obs import event_types as ev
from repro.core.deadend import DeadEndDetector, check_gamma, check_min_history
from repro.core.loadbalance import LinkLoadMonitor, check_theta
from repro.core.loops import LoopCorrector, check_hold_time
from repro.core.node_routing import NodeLocationRegistry
from repro.core.predictor import (
    AccuracyTracker,
    MarkovPredictor,
    check_down_factor,
    check_order,
    check_up_factor,
)
from repro.core.routing_table import RoutingTable, TableSnapshot, check_hysteresis
from repro.core.scheduler import MAX_UPLOAD_BATCH, UPLOAD, CommScheduler, SchedulerConfig
from repro.sim.engine import RoutingProtocol, World
from repro.sim.entities import LandmarkStation, MobileNode
from repro.sim.packets import Packet
from repro.utils.validation import require_int, require_number


#: EWMA weight for bandwidth and link-load measurement (Eq. 4)
RHO = 0.5
#: a stray carrier hands a packet to an unplanned landmark only when that
#: landmark's expected delay beats the recorded one by this factor
#: (IV-D.1 requires "every forwarding must reduce the routing latency";
#: the margin keeps drifting delay estimates from causing ping-pong)
HANDOVER_IMPROVEMENT = 0.8
#: IV-E.3: divert to the backup only when its expected delay is within this
#: factor of the primary's (a wild detour is worse than queueing)
BACKUP_DELAY_BOUND = 1.5


@dataclass
class DTNFlowConfig:
    """The DTN-FLOW choices an experiment makes (paper defaults)."""

    #: Markov predictor order (the paper settles on k=1, Fig. 6a)
    k: int = 1
    #: prediction-accuracy refinement factors (IV-D.4)
    accuracy_up: float = 1.1
    accuracy_down: float = 0.9
    #: hand packets straight to nodes predicted to visit the destination
    use_direct_delivery: bool = True
    #: ship backward bandwidth reports (IV-C.1); off = landmarks fall back
    #: to the O3 symmetry assumption for their outgoing bandwidths
    use_backward_reports: bool = True
    #: next-hop switch hysteresis of the landmark routing tables: an
    #: alternative path replaces the current next hop only when this much
    #: better (damps flapping from EWMA delay drift; see RoutingTable)
    table_hysteresis: float = 0.7
    #: IV-E.1 dead-end prevention
    enable_deadend: bool = False
    deadend_gamma: float = 2.0
    deadend_min_history: int = 10
    #: IV-E.2 loop detection and correction
    enable_loop_correction: bool = False
    loop_hold_time: float = 0.0
    #: IV-E.3 load balancing via backup next hops
    enable_load_balance: bool = False
    overload_theta: float = 2.0
    #: IV-E.4 node-destined packet support
    enable_node_routing: bool = False
    #: the paper's stated future work (Section VI): combine node-to-node
    #: communication with inter-landmark routing.  When two carriers meet,
    #: a packet moves to the peer if the peer is predicted to transit to
    #: the packet's intended next-hop landmark (and the holder is not) -
    #: rescuing packets whose carrier's prediction missed without waiting
    #: for a landmark re-queue
    enable_node_to_node: bool = False
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)

    def __post_init__(self) -> None:
        # manifests are JSON, so check types as well as ranges: a "false"
        # string would pass as a set flag and true as the number 1
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool" and not isinstance(value, bool):
                raise ValueError(f"{f.name} must be true or false, got {value!r}")
            if f.type == "int":
                require_int(f.name, value)
            elif f.type == "float":
                require_number(f.name, value)
        # each key gets the range check of the component argument it sets,
        # so a bound is written once, and the error names the key
        for key, check in _RANGE_CHECKS:
            check(key, getattr(self, key))


#: DTN-FLOW key -> the range check of the component argument it sets
_RANGE_CHECKS = (
    ("k", check_order),
    ("accuracy_up", check_up_factor),
    ("accuracy_down", check_down_factor),
    ("table_hysteresis", check_hysteresis),
    ("deadend_gamma", check_gamma),
    ("deadend_min_history", check_min_history),
    ("loop_hold_time", check_hold_time),
    ("overload_theta", check_theta),
)


class _StationState:
    """DTN-FLOW state attached to one landmark station."""

    __slots__ = ("bw", "table", "load", "scheduler", "sent_seq", "_refreshed_version")

    def __init__(
        self, lid: int, time_unit: float, cfg: DTNFlowConfig, start_time: float
    ) -> None:
        self.bw = BandwidthEstimator(
            lid, time_unit, rho=RHO, start_time=start_time
        )
        self.table = RoutingTable(lid, switch_hysteresis=cfg.table_hysteresis)
        self.load = LinkLoadMonitor(
            time_unit, theta=cfg.overload_theta, rho=RHO, start_time=start_time
        )
        self.scheduler = CommScheduler(cfg.scheduler)
        # per-neighbour time-unit seq of the last routing-table handout -
        # tables are shipped once per time unit per neighbour (IV-C.2:
        # "each landmark *periodically* forwards its routing table")
        self.sent_seq: Dict[int, int] = {}
        # bandwidth-estimator version at the last direct-link refresh
        self._refreshed_version = -1


class _NodeState:
    """DTN-FLOW state attached to one mobile node."""

    __slots__ = (
        "pred",
        "acc",
        "predicted",
        "carried_snapshot",
        "carried_report",
        "deadend",
        "dead_ended",
    )

    def __init__(self, cfg: DTNFlowConfig) -> None:
        self.pred = MarkovPredictor(cfg.k)
        self.acc = AccuracyTracker(up=cfg.accuracy_up, down=cfg.accuracy_down)
        self.predicted: Optional[int] = None
        self.carried_snapshot: Optional[TableSnapshot] = None
        self.carried_report = None
        self.deadend = DeadEndDetector(
            gamma=cfg.deadend_gamma, min_history=cfg.deadend_min_history
        )
        self.dead_ended = False


# packet.meta keys used by DTN-FLOW
META_NEXT_HOP = "flow_next_hop"
META_EXPECTED_DELAY = "flow_expected_delay"
META_ASSIGNED_BY = "flow_assigned_by"
META_DEST_NODE = "dest_node"


class DTNFlowProtocol(RoutingProtocol):
    """DTN-FLOW as a pluggable simulator protocol."""

    name = "DTN-FLOW"
    uses_contacts = False

    def __init__(self, config: Optional[DTNFlowConfig] = None) -> None:
        self.config = config or DTNFlowConfig()
        # node-to-node rescue (future-work extension) needs contact events
        self.uses_contacts = self.config.enable_node_to_node
        self.loop_corrector = LoopCorrector(hold_time=self.config.loop_hold_time)
        self.registry = NodeLocationRegistry()
        self._stations: Dict[int, _StationState] = {}
        self._nodes: Dict[int, _NodeState] = {}
        # phase-timing plumbing, wired in setup(); None without a recorder
        self._spans = None

    # -- plumbing ---------------------------------------------------------------
    def setup(self, world: World) -> None:
        time_unit = world.config.time_unit
        t0 = world.trace.start_time
        self._stations = {
            lid: _StationState(lid, time_unit, self.config, t0)
            for lid in world.stations
        }
        self._nodes = {nid: _NodeState(self.config) for nid in world.nodes}
        self.attach_runtime(world)

    def _make_bw_observer(self, world: World, lid: int):
        """Feed bandwidth-estimator changes into the event log."""
        emit = world.events.emit
        def observer(kind: str, **info) -> None:
            emit(world.now, ev.BW_UPDATE, landmark=lid, kind=kind, **info)
        return observer

    # -- checkpoint API (see docs/reliability.md) ---------------------------------
    def detach_runtime(self) -> None:
        """Drop the span-recorder handle and observer closures so the
        protocol (and the station state it owns) pickles cleanly."""
        self._spans = None
        for st in self._stations.values():
            st.bw.observer = None

    def attach_runtime(self, world: World) -> None:
        """Wire spans and observers to ``world``: at setup, and again
        after a checkpoint restore."""
        self._spans = world.obs.spans
        if world.obs_enabled:
            for lid, st in self._stations.items():
                st.bw.observer = self._make_bw_observer(world, lid)

    def station_state(self, lid: int) -> _StationState:
        return self._stations[lid]

    def node_state(self, nid: int) -> _NodeState:
        return self._nodes[nid]

    def routing_tables(self) -> Dict[int, RoutingTable]:
        return {lid: st.table for lid, st in self._stations.items()}

    # -- helpers --------------------------------------------------------------------
    def _refresh_direct_links(self, st: _StationState, t: float) -> None:
        """Re-derive the table's direct-link delays from measured bandwidth.

        Delays only change when the estimator folds a time unit or applies
        a backward report, so the recomputation is skipped (hot path: this
        runs at every visit) while the estimator version is unchanged.
        """
        st.bw.advance_to(t)
        if st.bw.version == st._refreshed_version:
            return
        for neighbor in st.bw.known_neighbors():
            st.table.set_direct_link(neighbor, st.bw.expected_link_delay(neighbor))
        st._refreshed_version = st.bw.version

    def _stamp_at_station(self, world: World, station: LandmarkStation, packet: Packet) -> None:
        """Record the station on the packet's path; run loop correction."""
        revisit = packet.record_visit(station.lid)
        if revisit:
            if world.obs_enabled:
                world.events.emit(
                    world.now, ev.LOOP_DETECTED, packet=packet.pid,
                    landmark=station.lid, path=list(packet.visited),
                )
            if self.config.enable_loop_correction:
                self.loop_corrector.report(
                    packet, station.lid, self.routing_tables(), world.now
                )

    def _expected_delay_from(self, st: _StationState, dest: int) -> float:
        return st.table.delay_to(dest)

    # -- maintenance exchange ---------------------------------------------------------
    def _deliver_maintenance(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        spans = self._spans
        t_start = perf_counter() if spans is not None else 0.0
        ns = self._nodes[node.nid]
        st = self._stations[station.lid]
        snap = ns.carried_snapshot
        ns.carried_snapshot = None
        if snap is not None and snap.origin != station.lid:
            self._refresh_direct_links(st, t)
            link_delay = st.bw.expected_link_delay(snap.origin)
            st.table.merge_snapshot(snap, link_delay)
            world.metrics.on_table_exchange(snap.n_entries)
            if world.obs_enabled:
                world.events.emit(
                    t, ev.TABLE_EXCHANGE, node=node.nid, landmark=station.lid,
                    kind="snapshot", origin=snap.origin, n_entries=snap.n_entries,
                )
            if self.config.enable_loop_correction:
                # hold-down (IV-E.2): refuse routes re-learned through a hop
                # that recently formed a corrected loop; alternative routes
                # keep propagating normally
                self.loop_corrector.enforce(station.lid, st.table, t)
        report = ns.carried_report
        ns.carried_report = None
        if report is not None and report.target == station.lid:
            st.bw.apply_backward_report(report)
            world.metrics.on_table_exchange(report.n_entries)
            if world.obs_enabled:
                world.events.emit(
                    t, ev.TABLE_EXCHANGE, node=node.nid, landmark=station.lid,
                    kind="backward_report", origin=report.observer,
                    n_entries=report.n_entries,
                )
        if spans is not None:
            spans.add("router.table_exchange", perf_counter() - t_start)

    # -- forwarding core ---------------------------------------------------------------
    def _handover_from_node(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        """IV-D.1: upload carried packets when this landmark reduces delay."""
        spans = self._spans
        t_start = perf_counter() if spans is not None else 0.0
        st = self._stations[station.lid]
        ns = self._nodes[node.nid]
        uploaded = 0
        batch_cap = (
            MAX_UPLOAD_BATCH
            if world.config.link_rate_bytes_per_sec is not None
            else None
        )
        for p in node.buffer.packets():
            if batch_cap is not None and uploaded >= batch_cap:
                break  # IV-D.5 rule 3: at most M_up packets per upload turn
            intended = p.meta.get(META_NEXT_HOP)
            recorded = p.meta.get(META_EXPECTED_DELAY, math.inf)
            upload = False
            if ns.dead_ended:
                upload = True  # IV-E.1: dump everything for re-routing
            elif intended == station.lid:
                upload = True
            elif p.meta.get(META_ASSIGNED_BY) == station.lid:
                # back at the landmark that assigned it: the transit
                # prediction missed - re-queue for reassignment
                upload = True
            elif (
                self._expected_delay_from(st, p.dst)
                < HANDOVER_IMPROVEMENT * recorded
            ):
                upload = True
            if upload:
                if world.node_to_station(node, station, p):
                    uploaded += 1
                    if ns.dead_ended and world.obs_enabled:
                        world.events.emit(
                            t, ev.DEADEND_REROUTE, packet=p.pid,
                            node=node.nid, landmark=station.lid,
                        )
                    if p.in_flight:
                        self._stamp_at_station(world, station, p)
                        if self.config.enable_load_balance:
                            entry = st.table.lookup(p.dst)
                            if entry is not None:
                                st.load.record_assigned(entry.next_hop, t)
                        if intended is not None and intended != station.lid:
                            # prediction missed: the station it reached anyway
                            # becomes responsible for the packet
                            p.meta.pop(META_NEXT_HOP, None)
                            p.meta.pop(META_EXPECTED_DELAY, None)
        if spans is not None:
            spans.add("router.handover", perf_counter() - t_start)

    def _forward_station_packets(
        self, world: World, station: LandmarkStation, t: float
    ) -> None:
        """IV-D.3 steps 2-4: move station packets onto suitable carriers."""
        nodes = world.connected_nodes(station)
        if not nodes:
            return
        spans = self._spans
        t_start = perf_counter() if spans is not None else 0.0
        st = self._stations[station.lid]
        self._refresh_direct_links(st, t)
        if not len(station.buffer):
            if spans is not None:
                spans.add("router.carrier_selection", perf_counter() - t_start)
            return
        table = st.table
        sched = st.scheduler
        cfg = self.config

        # Per-call hoists: dead-ended status, accuracy, and predictor state
        # are fixed for the duration of one forwarding pass (no learning
        # happens while a station forwards), so carrier transit
        # probabilities are memoized per (node, hop) instead of recomputed
        # for every packet, and dead-ended nodes are filtered once.
        states = self._nodes
        carriers = [
            (nd, cand)
            for nd in nodes
            if not (cand := states[nd.nid]).dead_ended
        ]
        prob_memo: Dict[tuple, float] = {}
        prob_get = prob_memo.get

        # the table is frozen for the duration of one pass, so the expected
        # delay is one lookup per destination, not per packet
        delay_memo: Dict[int, float] = {}
        delay_memo_get = delay_memo.get

        def delay_of(p: Packet) -> float:
            dst = p.dst
            d = delay_memo_get(dst)
            if d is None:
                d = table.delay_to(dst)
                delay_memo[dst] = d
            return d

        # per next hop, the carriers with a positive transit probability
        # toward it, in connection order: the probabilities are fixed for
        # the pass, and a carrier without one is never chosen, so each
        # packet scans only these instead of every connected carrier
        toward: Dict[int, list] = {}

        def best_carrier(hop: int, p: Packet):
            ranked = toward.get(hop)
            if ranked is None:
                ranked = []
                for nd, cand in carriers:
                    key = (nd.nid, hop)
                    prob = prob_get(key)
                    if prob is None:
                        prob = cand.pred.probability_of(hop) * cand.acc.value
                        prob_memo[key] = prob
                    if prob > 0.0:
                        ranked.append((nd, prob))
                toward[hop] = ranked
            # the first best carrier that can take the packet
            chosen, chosen_prob = None, 0.0
            for nd, prob in ranked:
                if prob > chosen_prob and nd.buffer.can_accept(p):
                    chosen, chosen_prob = nd, prob
            return chosen, chosen_prob

        for p in sched.forwarding_order(station.buffer.packets(), delay_of, t):
            dst = p.dst
            # node-destined packets wait at the destination node's landmark
            if (
                cfg.enable_node_routing
                and p.meta.get(META_DEST_NODE) is not None
                and station.lid == dst
            ):
                continue
            # 1) direct delivery opportunity (IV-D.2)
            if cfg.use_direct_delivery:
                best = None
                best_prob = 0.0
                for nd, cand in carriers:
                    if cand.predicted == dst and nd.buffer.can_accept(p):
                        key = (nd.nid, dst)
                        prob = prob_get(key)
                        if prob is None:
                            prob = cand.pred.probability_of(dst) * cand.acc.value
                            prob_memo[key] = prob
                        if prob > best_prob:
                            best, best_prob = nd, prob
                if best is not None:
                    d = table.delay_to(dst)
                    if not math.isfinite(d):
                        d = st.bw.expected_link_delay(dst)
                    p.meta[META_NEXT_HOP] = dst
                    p.meta[META_EXPECTED_DELAY] = d
                    p.meta[META_ASSIGNED_BY] = station.lid
                    world.station_to_node(station, best, p)
                    continue
            # 2) routing-table next hop
            entry = table.lookup(dst)
            if entry is None:
                continue
            next_hop, exp_delay = entry.next_hop, entry.delay

            # 3) carrier with the highest overall transit probability;
            #    when the primary link is overloaded (IV-E.3) and a *better*
            #    carrier toward the backup next hop is present, divert -
            #    the backup offloads the excess rather than replacing the
            #    primary outright
            best, best_prob = best_carrier(next_hop, p)
            if (
                cfg.enable_load_balance
                and entry.backup_next_hop is not None
                and st.load.is_overloaded(next_hop)
                and entry.backup_delay <= BACKUP_DELAY_BOUND * entry.delay
                and entry.backup_delay <= p.remaining_ttl(t)
            ):
                alt, alt_prob = best_carrier(entry.backup_next_hop, p)
                # divert only the *excess*: packets for which no primary
                # carrier is currently available but a backup carrier is
                if best is None and alt is not None:
                    best, best_prob = alt, alt_prob
                    next_hop, exp_delay = entry.backup_next_hop, entry.backup_delay
            if best is None:
                continue
            p.meta[META_NEXT_HOP] = next_hop
            p.meta[META_EXPECTED_DELAY] = exp_delay
            p.meta[META_ASSIGNED_BY] = station.lid
            if world.station_to_node(station, best, p):
                st.load.record_carried_out(next_hop, t)
        if spans is not None:
            spans.add("router.carrier_selection", perf_counter() - t_start)

    # -- protocol hooks -----------------------------------------------------------------
    def on_visit_start(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        ns = self._nodes[node.nid]
        st = self._stations[station.lid]
        prev = node.prev_landmark
        arrived_by_transit = prev is not None and prev != station.lid
        # fault plane: a downed station's infrastructure is unreachable -
        # the node still roams the subarea (node-side learning continues),
        # but no control exchange or forwarding happens through the station
        station_up = world.station_available(station.lid)

        # prediction-accuracy bookkeeping (IV-D.4)
        if arrived_by_transit and ns.predicted is not None:
            correct = ns.predicted == station.lid
            ns.acc.record(correct)
            if world.obs_enabled:
                world.events.emit(
                    t,
                    ev.PREDICTOR_HIT if correct else ev.PREDICTOR_MISS,
                    node=node.nid,
                    landmark=station.lid,
                    predicted=ns.predicted,
                )

        # bandwidth measurement (IV-C.1)
        if station_up:
            if arrived_by_transit:
                st.bw.record_arrival(prev, t)
            else:
                st.bw.advance_to(t)

            # maintenance payloads carried from the previous landmark (a
            # downed station receives nothing; the node keeps carrying its
            # payloads to the next landmark it reaches)
            self._deliver_maintenance(world, node, station, t)

        # predictor update + fresh next-transit prediction (IV-B)
        ns.pred.update(station.lid)
        guess = ns.pred.predict()
        ns.predicted = guess[0] if guess else None
        self.registry.record_visit(node.nid, station.lid)

        # dead-end check (IV-E.1) - the planned stay is known from the trace
        ns.dead_ended = False
        if self.config.enable_deadend:
            planned_stay = node.visit_until - t
            ns.dead_ended = ns.deadend.is_dead_end(station.lid, planned_stay)

        if not station_up:
            return

        # node-destined packets waiting at this landmark for this node (IV-E.4)
        if self.config.enable_node_routing:
            for p in station.buffer.packets():
                if p.meta.get(META_DEST_NODE) == node.nid:
                    station.buffer.remove(p.pid)
                    if world.claim_delivery(p):
                        p.hops += 1
                        world.metrics.on_forward()

        # IV-D.5: with a rate-limited link the landmark schedules uplink
        # vs downlink by the station/node packet ratio; with instantaneous
        # transfers (the default) uploads simply run first
        if world.config.link_rate_bytes_per_sec is not None:
            node_packets = sum(
                len(world.nodes[n].buffer) for n in station.connected
            )
            mode = st.scheduler.update_mode(len(station.buffer), node_packets)
            if mode == UPLOAD:
                # pull packets off carriers first (IV-D.1 decides which)
                self._handover_from_node(world, node, station, t)
                self._forward_station_packets(world, station, t)
            else:
                self._forward_station_packets(world, station, t)
                self._handover_from_node(world, node, station, t)
        else:
            # hand over carried packets that this landmark improves (IV-D.1)
            self._handover_from_node(world, node, station, t)
            # landmark forwards queued packets onto carriers (IV-D.3)
            self._forward_station_packets(world, station, t)

    def on_contact(
        self, world: World, a: MobileNode, b: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        """Node-to-node rescue (the paper's future work, Section VI).

        A carried packet moves to the co-located peer when the peer is
        predicted to transit to the packet's intended next-hop landmark
        and the holder is not - the peer is simply the better vehicle for
        the very transit the assigning landmark planned.
        """
        if not self.config.enable_node_to_node:
            return
        for holder, peer in ((a, b), (b, a)):
            hs, ps = self._nodes[holder.nid], self._nodes[peer.nid]
            for p in holder.buffer.packets():
                hop = p.meta.get(META_NEXT_HOP)
                if hop is None or ps.dead_ended:
                    continue
                if ps.predicted != hop or hs.predicted == hop:
                    continue
                if not peer.buffer.can_accept(p):
                    continue
                if world.node_to_node(holder, peer, p):
                    pass

    def on_visit_end(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        ns = self._nodes[node.nid]
        st = self._stations[station.lid]
        ns.deadend.record_stay(station.lid, max(0.0, t - node.visit_started))
        if not world.station_available(station.lid):
            # a downed station has no routing state to hand out
            return
        # departing node carries the landmark's routing state (IV-C.2).
        # A snapshot is issued at most once per time unit per predicted
        # neighbour - the paper's *periodic* table exchange, which keeps
        # maintenance cost below the baselines' per-encounter exchanges.
        self._refresh_direct_links(st, t)
        if ns.predicted is not None:
            if st.sent_seq.get(ns.predicted, -1) < st.bw.seq:
                ns.carried_snapshot = st.table.snapshot(seq=st.bw.seq)
                st.sent_seq[ns.predicted] = st.bw.seq
            if self.config.use_backward_reports:
                ns.carried_report = st.bw.make_backward_report(ns.predicted)

    def on_packet_generated(
        self, world: World, station: LandmarkStation, packet: Packet, t: float
    ) -> None:
        packet.record_visit(station.lid)
        st = self._stations[station.lid]
        if self.config.enable_load_balance:
            entry = st.table.lookup(packet.dst)
            if entry is not None:
                st.load.record_assigned(entry.next_hop, t)
        self._forward_station_packets(world, station, t)

    # -- shard API ------------------------------------------------------------------
    @property
    def shard_safe(self) -> bool:
        """Whether this configuration can run sharded (see docs/scaling.md).

        The core algorithm keeps only station-local state (bandwidth
        estimators, routing tables, load monitors) and node-carried state
        (predictor, accuracy, carried reports) — exactly the subarea
        decomposition the paper argues for.  Three extensions break it:
        loop correction holds a cross-landmark hold-down registry, and the
        node-routing / node-to-node extensions read the global node-location
        registry or require contact events (whose subsampling draws from the
        world RNG in trace order).
        """
        cfg = self.config
        return not (
            cfg.enable_loop_correction
            or cfg.enable_node_routing
            or cfg.enable_node_to_node
        )

    def export_node_state(self, nid: int) -> object:
        return self._nodes.pop(nid, None)

    def import_node_state(self, nid: int, state: object) -> None:
        self._nodes[nid] = state if state is not None else _NodeState(self.config)

    def export_node_maintenance(self, nid: int) -> object:
        ns = self._nodes.get(nid)
        if ns is None:
            return None
        snapshot, report = ns.carried_snapshot, ns.carried_report
        if snapshot is None and report is None:
            return None
        ns.carried_snapshot = None
        ns.carried_report = None
        return (snapshot, report)

    def import_node_maintenance(self, nid: int, payload: object) -> None:
        if payload is None:
            return
        ns = self._nodes.get(nid)
        if ns is None:
            raise RuntimeError(
                f"import_node_maintenance({nid}) before import_node_state"
            )
        ns.carried_snapshot, ns.carried_report = payload

    # -- IV-E.4 public API ------------------------------------------------------------
    def address_to_node(self, packet: Packet, dest_node: int) -> None:
        """Address ``packet`` to a mobile node via its frequented landmark.

        Rewrites the packet's destination landmark to the node's most
        visited landmark (falling back to the current destination when the
        node is unknown) and tags it for node delivery.
        """
        if not self.config.enable_node_routing:
            raise RuntimeError("enable_node_routing is off in DTNFlowConfig")
        home = self.registry.home_landmark(dest_node)
        if home is not None:
            packet.dst = home
        packet.meta[META_DEST_NODE] = dest_node

    def replicate_for_node(self, packet: Packet, dest_node: int, k: int = 2) -> List[Packet]:
        """IV-E.4 multi-copy variant: replicas toward the node's top-``k``
        frequented landmarks.

        The paper suggests the sender "forward/copy the packet to them" -
        the destination node visits several landmarks frequently, so parking
        a copy at each shortens the pickup wait.  Replicas share the packet
        id (the engine deduplicates deliveries); the returned packets are
        addressed one per frequented landmark and tagged for node delivery.
        """
        if not self.config.enable_node_routing:
            raise RuntimeError("enable_node_routing is off in DTNFlowConfig")
        import copy as _copy

        homes = self.registry.frequent_landmarks(dest_node, k) or [packet.dst]
        out: List[Packet] = []
        for home in homes:
            clone = _copy.copy(packet)
            clone.meta = dict(packet.meta)
            clone.visited = list(packet.visited)
            clone.dst = home
            clone.meta[META_DEST_NODE] = dest_node
            out.append(clone)
        return out
