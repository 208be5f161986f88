"""Shared machinery for the baseline routing protocols (Section V-A.1).

The paper compares DTN-FLOW against SimBet, PROPHET, PGR, GeoComm and PER,
all "adapted to fit landmark-to-landmark routing": each protocol defines a
*utility* ``U_n(L)`` — how suitable node ``n`` is for carrying packets toward
destination landmark ``L`` — and packets always move to higher-utility
holders:

* a landmark station hands a queued packet to the connected node with the
  highest positive utility for the packet's destination;
* at a node-node contact, a packet moves when the peer's utility exceeds
  the holder's;
* delivery happens when a carrier connects to the destination landmark
  (handled by the engine).

Maintenance cost: on every contact the two nodes exchange their utility
tables (and a node uploads its table when registering at a station), each
charged as ``ceil(entries / table_entry_unit)`` operations, mirroring how
the paper charges "forwarding a routing table or a meeting probability table
with n entries".
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from repro.obs import event_types as ev
from repro.sim.engine import RoutingProtocol, World
from repro.sim.entities import LandmarkStation, MobileNode
from repro.sim.packets import Packet


class UtilityProtocol(RoutingProtocol):
    """Base class for single-copy utility-gradient routing baselines."""

    name = "utility"
    uses_contacts = True
    #: True when ``utility`` never *increases* between learning events (it is
    #: constant or decays with ``t``).  Learning only happens inside visit
    #: handling, node free space only shrinks and node packet sets only grow
    #: between generation events at a station, so under this invariant a
    #: queued packet that failed to move at one generation event can never
    #: move at a later one — which lets ``on_packet_generated`` evaluate just
    #: the newly created packet instead of rescanning the whole queue.
    #: Protocols whose utilities can jump upward over time with frozen
    #: knowledge (PER's deliberately stale DP cache) must opt out.
    #: The invariant has two further escape hatches, handled at the call
    #: site: node-node contact forwards *free* the holder's buffer space
    #: (the station is marked for one full rescan), and faulted runs can
    #: block a transfer whose packet then waits with positive utility (the
    #: fast path is disabled outright when a fault plane is active).
    time_monotone_utilities = True

    # -- protocol-specific ---------------------------------------------------------
    def utility(self, world: World, node: MobileNode, dest: int, t: float) -> float:
        """Suitability of ``node`` to carry packets toward landmark ``dest``."""
        raise NotImplementedError

    def table_size(self, world: World, node: MobileNode) -> int:
        """Entries in the node's utility table (for maintenance accounting)."""
        return world.trace.n_landmarks

    def learn_visit(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        """Update mobility knowledge when ``node`` connects to ``station``."""

    def learn_contact(
        self, world: World, a: MobileNode, b: MobileNode, t: float
    ) -> None:
        """Update mobility knowledge on a node-node contact (optional)."""

    #: class-level fallback so protocol objects driven directly (unit tests,
    #: notebooks) work without ``setup``; extra entries only ever force full
    #: rescans, never skip one
    _gen_rescan: set = set()

    def setup(self, world: World) -> None:
        #: stations owed a full queue rescan at their next generation event
        #: (their last contact may have freed buffer space on a carrier)
        self._gen_rescan = set()

    # -- common mechanics ------------------------------------------------------------
    def _station_push(
        self, world: World, station: LandmarkStation, t: float
    ) -> None:
        """Hand station packets to the best connected carriers."""
        # a full scan re-establishes the generation fast path's invariant
        # (contacts that run *after* this push will re-mark the station)
        self._gen_rescan.discard(station.lid)
        nodes = world.connected_nodes(station)
        if not nodes:
            return
        spans = world.obs.spans
        t_start = perf_counter() if spans is not None else 0.0
        # Utilities depend only on (node, destination, t) — never on buffer
        # contents — and no learning happens inside a push, so one value per
        # (node, destination) pair serves every packet in the queue.  (A
        # utility's side effects, e.g. SimBet's lazy betweenness refresh, run
        # on the first call exactly as they did per-call.)
        utility = self.utility
        memo: dict = {}
        memo_get = memo.get
        for p in station.buffer.packets():
            # a station hands a packet only to a carrier of positive utility
            best: Optional[MobileNode] = None
            best_util = 0.0
            dst = p.dst
            size = p.size
            pid = p.pid
            for nd in nodes:
                # can_accept inlined: this is the innermost loop of every
                # utility baseline's forwarding work
                buf = nd.buffer
                if size > buf.capacity_bytes - buf._used or pid in buf._packets:
                    continue
                key = (nd.nid, dst)
                u = memo_get(key)
                if u is None:
                    u = utility(world, nd, dst, t)
                    memo[key] = u
                if u > best_util:
                    best, best_util = nd, u
            if best is not None:
                world.station_to_node(station, best, p)
        if spans is not None:
            spans.add("baseline.carrier_selection", perf_counter() - t_start)

    def _push_skip_sound(self, world: World, station: LandmarkStation) -> bool:
        """Whether skipping utility calls for incumbent nodes is side-effect
        free right now.

        The fast paths assume re-evaluating an incumbent (node, destination)
        pair is *pure* — same value, no internal state change.  Protocols
        whose utility maintains call-timing-dependent state (SimBet's
        periodic betweenness refresh) override this to demand that every
        skipped call would have been a plain cache hit.
        """
        return True

    def _visit_push_eligible(self, world: World, station: LandmarkStation, t: float) -> bool:
        """Whether the visit-start push may scan only the arriving node.

        Learning for every *other* connected node happens exclusively in
        contact handling, which marks the station for a full rescan; with
        no fault plane (time-gated blocks) and no link budget (a blocked
        transfer would leave a positive-utility packet queued), a queued
        packet rejected at the last full scan is still rejected by every
        incumbent node — only the arriving node's utilities are new.
        """
        return (
            self.time_monotone_utilities
            and not world._faults_active
            and world._rate is None
            and station.lid not in self._gen_rescan
            and self._push_skip_sound(world, station)
        )

    def _station_push_single_node(
        self, world: World, station: LandmarkStation, node: MobileNode, t: float
    ) -> None:
        """Offer every queued packet to just the arriving node."""
        spans = world.obs.spans
        t_start = perf_counter() if spans is not None else 0.0
        utility = self.utility
        memo: dict = {}
        memo_get = memo.get
        buf = node.buffer
        for p in station.buffer.packets():
            if (
                p.size > buf.capacity_bytes - buf._used
                or p.pid in buf._packets
            ):
                continue
            dst = p.dst
            u = memo_get(dst)
            if u is None:
                u = utility(world, node, dst, t)
                memo[dst] = u
            if u > 0.0:
                world.station_to_node(station, node, p)
        if spans is not None:
            spans.add("baseline.carrier_selection", perf_counter() - t_start)

    def _compare_and_forward(
        self, world: World, holder: MobileNode, peer: MobileNode, t: float
    ) -> None:
        """Move ``holder``'s packets to ``peer`` when the peer ranks higher."""
        utility = self.utility
        memo_h: dict = {}
        memo_p: dict = {}
        for p in holder.buffer.packets():
            dst = p.dst
            u_holder = memo_h.get(dst)
            if u_holder is None:
                u_holder = utility(world, holder, dst, t)
                memo_h[dst] = u_holder
            u_peer = memo_p.get(dst)
            if u_peer is None:
                u_peer = utility(world, peer, dst, t)
                memo_p[dst] = u_peer
            if u_peer > u_holder:
                world.node_to_node(holder, peer, p)

    # -- hooks -------------------------------------------------------------------------
    def on_visit_start(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        self.learn_visit(world, node, station, t)
        # node registers its utility table with the station
        world.metrics.on_table_exchange(self.table_size(world, node))
        if world.obs_enabled:
            world.events.emit(
                t, ev.TABLE_EXCHANGE, node=node.nid, landmark=station.lid,
                kind="utility_table", n_entries=self.table_size(world, node),
            )
        if self._visit_push_eligible(world, station, t):
            self._station_push_single_node(world, station, node, t)
        else:
            self._station_push(world, station, t)

    def on_contact(
        self, world: World, a: MobileNode, b: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        self.learn_contact(world, a, b, t)
        # bidirectional utility-table exchange
        world.metrics.on_table_exchange(self.table_size(world, a))
        world.metrics.on_table_exchange(self.table_size(world, b))
        if world.obs_enabled:
            world.events.emit(
                t, ev.TABLE_EXCHANGE, node=a.nid, landmark=station.lid,
                kind="utility_table", n_entries=self.table_size(world, a), peer=b.nid,
            )
            world.events.emit(
                t, ev.TABLE_EXCHANGE, node=b.nid, landmark=station.lid,
                kind="utility_table", n_entries=self.table_size(world, b), peer=a.nid,
            )
        self._compare_and_forward(world, a, b, t)
        self._compare_and_forward(world, b, a, t)
        # node-node forwards free the holder's buffer space, so a station
        # packet rejected for capacity could fit again: force the next
        # generation event here onto the full-rescan path
        self._gen_rescan.add(station.lid)

    def on_packet_generated(
        self, world: World, station: LandmarkStation, packet: Packet, t: float
    ) -> None:
        rescan = self._gen_rescan
        if (
            not self.time_monotone_utilities
            or world._faults_active
            or station.lid in rescan
            or not self._push_skip_sound(world, station)
        ):
            rescan.discard(station.lid)
            self._station_push(world, station, t)
            return
        # single-packet fast path (see ``time_monotone_utilities``): every
        # older queued packet was already evaluated at an earlier event and
        # nothing that could admit it has changed since, so scanning the
        # full queue would move exactly the packets this loop moves — only
        # the new one is a candidate
        nodes = world.connected_nodes(station)
        if not nodes:
            return
        spans = world.obs.spans
        t_start = perf_counter() if spans is not None else 0.0
        utility = self.utility
        best: Optional[MobileNode] = None
        best_util = 0.0
        dst = packet.dst
        size = packet.size
        pid = packet.pid
        for nd in nodes:
            buf = nd.buffer
            if size > buf.capacity_bytes - buf._used or pid in buf._packets:
                continue
            u = utility(world, nd, dst, t)
            if u > best_util:
                best, best_util = nd, u
        if best is not None:
            world.station_to_node(station, best, packet)
        if spans is not None:
            spans.add("baseline.carrier_selection", perf_counter() - t_start)
