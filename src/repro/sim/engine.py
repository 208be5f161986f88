"""The discrete-event simulation engine.

A :class:`Simulation` replays a mobility :class:`~repro.mobility.trace.Trace`
as a time-ordered stream of events — visit starts, visit ends and packet
births — and dispatches them to a :class:`RoutingProtocol`.  The engine owns
everything protocol-independent:

* entity lifecycle (who is connected to which landmark when);
* packet generation (Poisson workload per landmark, Section V-A.1);
* TTL expiry and buffer-capacity enforcement;
* automatic delivery when a carrier connects to a packet's destination
  landmark;
* metric accounting (forwarding ops, maintenance ops, delays).

Protocols only decide *which packets move to whom* through the world's
transfer helpers, so DTN-FLOW and every baseline are charged identically.

The first ``warmup_fraction`` of the trace generates no packets; protocols
use it to learn mobility structure (the paper uses the first 1/4 of each
trace to construct routing tables).
"""

from __future__ import annotations

import math
from bisect import insort
from contextlib import nullcontext
from dataclasses import dataclass
from operator import attrgetter
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.mobility.stream import TraceStream
from repro.mobility.trace import Trace, days
from repro.obs import event_types as ev
from repro.obs.provenance import RunProvenance
from repro.obs.runtime import Observability
from repro.sim.entities import LandmarkStation, MobileNode
from repro.sim.faults import FaultEdge, FaultPlan, FaultSchedule
from repro.sim.metrics import MetricsCollector, MetricsSummary
from repro.sim.packets import GenerationEvent, Packet, PacketFactory, generate_workload
from repro.utils.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
)


@dataclass
class SimConfig:
    """All knobs of one experiment run (paper defaults, Section V-A.1).

    ``node_memory_kb`` and ``rate_per_landmark_per_day`` are in *paper
    units*; ``workload_scale`` scales both the packet population and the
    node memory so scaled-down runs keep the same memory-pressure regime
    (see EXPERIMENTS.md).
    """

    node_memory_kb: float = 2000.0
    packet_size: int = 1024
    ttl: float = days(20.0)
    rate_per_landmark_per_day: float = 500.0
    workload_scale: float = 1.0
    #: separate scale for node memory; defaults to ``workload_scale``.  The
    #: paper's experiments run with memory as the binding resource (Sec. V:
    #: success rises with memory across the whole 1200-3000 kB sweep), so
    #: scaled-down workloads set this *below* workload_scale to stay in the
    #: same contention regime - see EXPERIMENTS.md.
    memory_scale: Optional[float] = None
    warmup_fraction: float = 0.25
    time_unit: float = days(3.0)
    table_entry_unit: int = 10
    seed: int = 0
    #: probability that two nodes co-located in a subarea actually come within
    #: radio range of each other.  Landmark stations cover their whole subarea
    #: by design (Section III-A.1); peer nodes do not, so node-node contact
    #: opportunities (used by the baselines) are subsampled.
    contact_prob: float = 0.35
    #: node <-> station link rate in bytes/second; ``None`` (default) models
    #: transfers as instantaneous.  With a finite rate each visit has a
    #: transfer budget of ``duration * rate`` bytes shared by uploads and
    #: downloads - the regime where the landmark communication scheduler
    #: (Section IV-D.5) matters.
    link_rate_bytes_per_sec: Optional[float] = None
    #: per-packet TTL jitter fraction (TTL drawn from ttl*[1-j, 1+j]);
    #: heterogeneous deadlines make the IV-D.5 urgency ordering meaningful
    ttl_jitter: float = 0.0
    #: restrict destinations (deployment experiment: everything to the library)
    destinations: Optional[Sequence[int]] = None
    #: restrict source landmarks (extension experiments exclude e.g. garages)
    sources: Optional[Sequence[int]] = None
    #: stop generating packets this fraction into the trace (1.0 = until end)
    generation_end_fraction: float = 1.0
    #: deterministic fault plan, as the canonical dict form of
    #: :class:`repro.sim.faults.FaultPlan` (kept as a plain dict so configs
    #: stay picklable and provenance stamps it verbatim); ``None`` = no
    #: faults.  Compiled against the trace by :class:`World`.
    faults: Optional[dict] = None

    def __post_init__(self) -> None:
        require_positive("node_memory_kb", self.node_memory_kb)
        require_positive("packet_size", self.packet_size)
        require_positive("ttl", self.ttl)
        require_non_negative(
            "rate_per_landmark_per_day", self.rate_per_landmark_per_day
        )
        require_positive("workload_scale", self.workload_scale)
        if self.memory_scale is not None:
            require_positive("memory_scale", self.memory_scale)
        require_in_range("warmup_fraction", self.warmup_fraction, 0.0, 0.95)
        require_in_range("contact_prob", self.contact_prob, 0.0, 1.0)
        if self.link_rate_bytes_per_sec is not None:
            require_positive("link_rate_bytes_per_sec", self.link_rate_bytes_per_sec)
        require_in_range("ttl_jitter", self.ttl_jitter, 0.0, 1.0, inclusive_high=False)
        require_in_range(
            "generation_end_fraction", self.generation_end_fraction, 0.0, 1.0
        )
        if self.faults is not None:
            # validate eagerly (and normalize) so a bad plan fails at config
            # construction, not multiple processes later inside a worker
            self.faults = FaultPlan.from_dict(self.faults).as_dict()

    @property
    def node_memory_bytes(self) -> float:
        scale = self.memory_scale if self.memory_scale is not None else self.workload_scale
        return self.node_memory_kb * 1024.0 * scale

    @property
    def effective_rate(self) -> float:
        return self.rate_per_landmark_per_day * self.workload_scale


_NID = attrgetter("nid")


class World:
    """Mutable simulation state shared between the engine and the protocol."""

    def __init__(
        self,
        trace: Union[Trace, TraceStream],
        config: SimConfig,
        obs: Optional[Observability] = None,
    ) -> None:
        self.trace = trace
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.now: float = trace.start_time
        self.t_end: float = trace.end_time
        #: observability context; hot paths guard on the cached flag below
        self.obs = obs if obs is not None else Observability()
        self.obs_enabled = self.obs.enabled
        self.events = self.obs.events
        self.metrics = MetricsCollector(
            table_entry_unit=config.table_entry_unit,
            experiment_duration=trace.duration,
        )
        self.nodes: Dict[int, MobileNode] = {
            n: MobileNode(n, config.node_memory_bytes) for n in trace.nodes
        }
        self.stations: Dict[int, LandmarkStation] = {
            l: LandmarkStation(l) for l in trace.landmarks
        }
        # guards against double-counting deliveries/drops of multi-copy replicas
        self._delivered_pids: set = set()
        self._dropped_pids: set = set()
        # remaining transfer bytes of each node's current visit (only when
        # the config sets a finite link rate)
        self._visit_budget: Dict[int, float] = {}
        #: compiled fault schedule (None = unfaulted run); every transfer
        #: helper and the engine's visit/contact handlers consult it, so all
        #: protocols experience identical failures for the same plan
        self.faults: Optional[FaultSchedule] = (
            FaultPlan.from_dict(config.faults).compile(trace)
            if config.faults
            else None
        )
        self._faults_active = self.faults is not None
        #: link rate pinned on the world so the per-transfer charge path pays
        #: one attribute read, not a config-object walk
        self._rate = config.link_rate_bytes_per_sec
        # per-visit link-degradation factor (1.0 = healthy link)
        self._visit_factor: Dict[int, float] = {}
        # station lid -> its connected nodes sorted by id, built on first
        # use and then kept in step by connect/disconnect (protocols call
        # connected_nodes several times per event)
        self._conn_sorted: Dict[int, List[MobileNode]] = {}

    # -- convenience ------------------------------------------------------------
    @property
    def landmarks(self) -> Tuple[int, ...]:
        return self.trace.landmarks

    def connected_nodes(self, station: LandmarkStation) -> List[MobileNode]:
        cached = self._conn_sorted.get(station.lid)
        if cached is None:
            nodes = self.nodes
            cached = [nodes[n] for n in sorted(station.connected)]
            self._conn_sorted[station.lid] = cached
        return cached

    def connect(self, node: MobileNode, station: LandmarkStation) -> None:
        """Register ``node`` as connected to ``station``."""
        station.connected.add(node.nid)
        conn = self._conn_sorted.get(station.lid)
        if conn is not None:
            insort(conn, node, key=_NID)

    def disconnect(self, node: MobileNode, station: LandmarkStation) -> None:
        """Drop ``node`` from ``station``'s connected set."""
        station.connected.discard(node.nid)
        conn = self._conn_sorted.get(station.lid)
        if conn is not None:
            conn.remove(node)

    # -- fault queries ----------------------------------------------------------
    def station_available(self, lid: int) -> bool:
        """Whether landmark ``lid``'s station is reachable right now.

        Always True on unfaulted runs.  Protocols should consult this
        before station-side control exchanges (routing tables, bandwidth
        reports); data transfers through the world helpers are gated
        automatically.
        """
        if not self._faults_active:
            return True
        return not self.faults.station_down(lid, self.now)

    def _transfer_faulted(self, station_lid: Optional[int], packet: Packet) -> bool:
        """Whether the fault plane blocks this transfer attempt.

        A transfer fails when the involved station is down, the visit's
        link is fully degraded (factor 0, see :meth:`_charge_link`), or the
        probabilistic loss hash claims the attempt.  Traced runs record
        each refusal as a ``fault.blocked`` or ``fault.lost`` event.
        """
        if not self._faults_active:
            return False
        if station_lid is not None and self.faults.station_down(station_lid, self.now):
            if self.obs_enabled:
                self.events.emit(
                    self.now, ev.FAULT_BLOCKED, packet=packet.pid,
                    landmark=station_lid, cause="station_down",
                )
            return True
        if self.faults.transfer_lost(packet.pid, self.now):
            if self.obs_enabled:
                self.events.emit(
                    self.now, ev.FAULT_LOST, packet=packet.pid, landmark=station_lid
                )
            return True
        return False

    # -- expiry -----------------------------------------------------------------
    def drop_expired_in(self, holder) -> None:
        expiry = holder.buffer._expiry
        if not expiry or self.now <= expiry[0][0]:
            # the overwhelmingly common case: every held packet has an entry
            # in the expiry heap, so an earliest deadline still ahead (even
            # a stale entry's) means nothing held has expired
            return
        dead = holder.buffer.pop_expired(self.now)
        if not dead:
            return
        n_real = 0
        for p in dead:
            # multi-copy protocols leave replicas behind; a packet only
            # counts as TTL-lost once, and never when some copy delivered
            if p.in_flight and p.pid not in self._delivered_pids:
                p.dropped_at = self.now
                if p.pid not in self._dropped_pids:
                    self._dropped_pids.add(p.pid)
                    n_real += 1
                    if self.obs_enabled:
                        self.events.emit(
                            self.now, ev.DROPPED_TTL, packet=p.pid,
                            node=getattr(holder, "nid", None),
                            landmark=getattr(holder, "lid", None),
                            age=self.now - p.created,
                        )
        if n_real:
            self.metrics.on_dropped_ttl(n_real)

    # -- link budget ---------------------------------------------------------------
    def begin_visit_budget(self, node: MobileNode, duration: float) -> None:
        if not self._faults_active and self._rate is None:
            return  # nothing to track: unlimited, undegraded links
        factor = 1.0
        if self._faults_active and node.at_landmark is not None:
            factor = self.faults.link_factor(node.at_landmark, self.now)
            self._visit_factor[node.nid] = factor
        rate = self._rate
        if rate is not None:
            # link degradation shrinks this visit's transfer budget
            self._visit_budget[node.nid] = max(0.0, duration) * rate * factor

    def link_budget_remaining(self, node: MobileNode) -> float:
        """Bytes still transferable this visit (inf when rate-unlimited)."""
        if self._rate is None:
            if self._faults_active and self._visit_factor.get(node.nid, 1.0) <= 0.0:
                return 0.0
            return math.inf
        return self._visit_budget.get(node.nid, 0.0)

    def _charge_link(self, node: MobileNode, packet: Packet) -> bool:
        if self._faults_active and self._visit_factor.get(node.nid, 1.0) <= 0.0:
            # fully degraded link: no transfers this visit, even when the
            # config models transfers as instantaneous (rate None)
            if self.obs_enabled:
                self.events.emit(
                    self.now, ev.FAULT_BLOCKED, packet=packet.pid, node=node.nid,
                    landmark=node.at_landmark, cause="link_down",
                )
            return False
        if self._rate is None:
            return True
        remaining = self._visit_budget.get(node.nid, 0.0)
        if packet.size > remaining:
            return False
        self._visit_budget[node.nid] = remaining - packet.size
        return True

    # -- transfers (each successful handover = one forwarding operation) ---------
    def _deliver(self, packet: Packet) -> None:
        packet.delivered_at = self.now
        if packet.pid not in self._delivered_pids:
            self._delivered_pids.add(packet.pid)
            self.metrics.on_delivered(
                self.now - packet.created, packet.dst, hops=packet.hops
            )
            if self.obs_enabled:
                self.events.emit(
                    self.now, ev.DELIVERED, packet=packet.pid,
                    landmark=packet.dst, delay=self.now - packet.created,
                    hops=packet.hops,
                )

    def claim_delivery(self, packet: Packet) -> bool:
        """Mark ``packet`` delivered now; returns False for a replica whose
        sibling already delivered (the delivery is then not re-counted).

        Protocols with their own delivery paths (e.g. node-destined packets
        handed over outside the destination-landmark rule) must use this
        instead of touching the metrics directly.
        """
        first = packet.pid not in self._delivered_pids
        self._deliver(packet)
        return first

    def node_to_station(
        self, node: MobileNode, station: LandmarkStation, packet: Packet
    ) -> bool:
        """Upload a packet from a connected node to the landmark station.

        Delivers it immediately when the station *is* the destination.
        Always succeeds (stations are unbounded) unless the node does not
        actually hold the packet.
        """
        if packet.pid not in node.buffer:
            return False
        if self._transfer_faulted(station.lid, packet):
            return False
        if not self._charge_link(node, packet):
            return False
        node.buffer.remove(packet.pid)
        if packet.dst == station.lid:
            if packet.in_flight:
                packet.hops += 1
                self.metrics.on_forward()
                if self.obs_enabled:
                    self.events.emit(
                        self.now, ev.UPLINKED, packet=packet.pid,
                        node=node.nid, landmark=station.lid,
                    )
                self._deliver(packet)
            # an already-delivered replica is simply discarded
        else:
            packet.hops += 1
            self.metrics.on_forward()
            station.buffer.add(packet)
            if self.obs_enabled:
                self.events.emit(
                    self.now, ev.UPLINKED, packet=packet.pid,
                    node=node.nid, landmark=station.lid,
                )
        return True

    def station_to_node(
        self, station: LandmarkStation, node: MobileNode, packet: Packet
    ) -> bool:
        """Hand a packet to a connected carrier; fails when its memory is full."""
        if packet.pid not in station.buffer:
            return False
        if self._transfer_faulted(station.lid, packet):
            return False
        if not node.buffer.can_accept(packet):
            if self.obs_enabled:
                self.events.emit(
                    self.now, ev.DROPPED_BUFFER, packet=packet.pid,
                    node=node.nid, landmark=station.lid,
                )
            return False
        if not self._charge_link(node, packet):
            return False
        station.buffer.remove(packet.pid)
        node.buffer.add(packet)
        packet.hops += 1
        self.metrics.on_forward()
        if self.obs_enabled:
            self.events.emit(
                self.now, ev.FORWARDED, packet=packet.pid,
                node=node.nid, landmark=station.lid,
            )
        return True

    def node_to_node(self, src: MobileNode, dst: MobileNode, packet: Packet) -> bool:
        """Forward a packet between two co-located nodes (baselines only)."""
        if packet.pid not in src.buffer:
            return False
        if self._transfer_faulted(None, packet):
            return False
        if not dst.buffer.can_accept(packet):
            if self.obs_enabled:
                self.events.emit(
                    self.now, ev.DROPPED_BUFFER, packet=packet.pid,
                    node=dst.nid, holder=src.nid,
                )
            return False
        src.buffer.remove(packet.pid)
        dst.buffer.add(packet)
        packet.hops += 1
        self.metrics.on_forward()
        if self.obs_enabled:
            self.events.emit(
                self.now, ev.HANDOVER, packet=packet.pid,
                node=dst.nid, holder=src.nid,
            )
        return True


class RoutingProtocol:
    """Base class for every routing strategy under test.

    Subclasses override the hooks they need.  ``uses_contacts`` gates the
    pairwise node-node contact callbacks (only the node-to-node baselines
    need them; DTN-FLOW routes exclusively through landmark stations).
    """

    name = "base"
    uses_contacts = False

    def setup(self, world: World) -> None:  # pragma: no cover - trivial default
        """Called once before the event loop starts."""

    def on_visit_start(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        """Node ``node`` just connected to ``station``."""

    def on_contact(
        self,
        world: World,
        a: MobileNode,
        b: MobileNode,
        station: LandmarkStation,
        t: float,
    ) -> None:
        """Nodes ``a`` (arriving) and ``b`` (present) are co-located."""

    def on_visit_end(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        """Node ``node`` is about to leave ``station``."""

    def on_packet_generated(
        self, world: World, station: LandmarkStation, packet: Packet, t: float
    ) -> None:
        """A fresh packet was placed at its origin landmark station."""

    def finalize(self, world: World) -> None:  # pragma: no cover - trivial default
        """Called once after the event loop ends."""

    # -- checkpoint API (see docs/reliability.md) ---------------------------------
    def detach_runtime(self) -> None:
        """Drop unpicklable runtime references before a checkpoint pickle.

        The base protocols hold none, so the default clears the optional
        span-recorder attachment if a subclass set one.  Subclasses that
        wire closures into their sub-components (observer callbacks) must
        override both hooks; :meth:`attach_runtime` re-wires them after
        the pickle (snapshot) or unpickle (restore).
        """
        if getattr(self, "_spans", None) is not None:
            self._spans = None

    def attach_runtime(self, world: World) -> None:
        """Re-wire runtime references after a snapshot or restore."""

    # -- shard API (see docs/scaling.md) -----------------------------------------
    #: whether the protocol's per-node state is self-contained enough to
    #: migrate between shard processes when its carrier crosses a subarea
    #: boundary.  Protocols holding cross-landmark global state (loop
    #: correction, node-location registries, contact graphs) must leave
    #: this False; the sharded kernel then refuses them (``UnshardableTrace``).
    shard_safe = False

    def export_node_state(self, nid: int) -> object:
        """Detach and return node ``nid``'s protocol state for a handoff.

        Called by the departing shard when the node's next visit lies on
        another shard; the returned object is pickled into the transit
        message.  ``None`` means the protocol carries no per-node state.
        """
        return None

    def import_node_state(self, nid: int, state: object) -> None:
        """Install protocol state shipped from another shard."""

    def export_node_maintenance(self, nid: int) -> object:
        """Detach maintenance payloads travelling with node ``nid``
        (backward bandwidth reports, carried table snapshots).

        Kept separate from :meth:`export_node_state` because it is the
        paper's second inter-landmark message class: routing *information*
        flowing between subareas, not routing *state* of the carrier.
        """
        return None

    def import_node_maintenance(self, nid: int, payload: object) -> None:
        """Install carried maintenance payloads shipped from another shard."""


# event kinds, ordered for same-timestamp ties: fault edges flip the fault
# state first (an event at the edge instant already sees the new state),
# then ends free state, then births, then arrivals (an arriving node
# immediately sees new packets), then probes (observers see the
# post-arrival state)
_FAULT_EDGE = 0
_VISIT_END = 1
_PACKET_GEN = 2
_VISIT_START = 3
_PROBE = 4


class Simulation:
    """Replays a trace against a routing protocol and collects metrics.

    ``probes`` is an optional list of ``(time, callback)`` pairs; each
    callback receives the :class:`World` when simulation time passes its
    timestamp — used e.g. to sample routing-table coverage at the paper's
    ten observation points (Fig. 8).

    ``scenario`` is an optional resolved-scenario dict (see
    :mod:`repro.eval.scenario`); the engine does not interpret it, it only
    stamps it into the run's :class:`~repro.obs.provenance.RunProvenance`
    so ``repro rerun`` can reproduce the run from its output alone.
    """

    def __init__(
        self,
        trace: Union[Trace, TraceStream],
        protocol: RoutingProtocol,
        config: SimConfig,
        probes: Optional[Sequence[Tuple[float, object]]] = None,
        obs: Optional[Observability] = None,
        scenario: Optional[dict] = None,
    ) -> None:
        if trace.n_landmarks < 2:
            raise ValueError("need at least two landmarks to route between")
        self.trace = trace
        self.protocol = protocol
        self.config = config
        self.world = World(trace, config, obs=obs)
        self.obs = self.world.obs
        self.factory = PacketFactory(
            ttl=config.ttl,
            size=config.packet_size,
            ttl_jitter=config.ttl_jitter,
            rng=np.random.default_rng(config.seed + 424243),
        )
        self.probes = list(probes or [])
        self.scenario = scenario

    # -- event assembly -----------------------------------------------------------
    def _events(self) -> Iterable[Tuple[float, int, int, object]]:
        # the visit events depend only on the trace, which replays them
        # sorted (memoized by a Trace, streamed by a TraceStream); births,
        # probes and fault edges depend on the config, so they are sorted
        # here, with sequence numbers continuing past the visit events'
        # 2*len(trace), and handed to the replay to merge in
        events: List[Tuple[float, int, int, object]] = []
        counter = 2 * len(self.trace)
        warmup_end = self.trace.start_time + self.config.warmup_fraction * self.trace.duration
        gen_end = self.trace.start_time + self.config.generation_end_fraction * self.trace.duration
        if gen_end > warmup_end and self.config.effective_rate > 0:
            gen_rng = np.random.default_rng(self.config.seed + 982451653)
            sources = (
                tuple(self.config.sources)
                if self.config.sources is not None
                else self.trace.landmarks
            )
            for ev in generate_workload(
                sources,
                rate_per_landmark_per_day=self.config.effective_rate,
                start=warmup_end,
                end=gen_end,
                rng=gen_rng,
                destinations=self.config.destinations,
            ):
                events.append((ev.time, _PACKET_GEN, counter, ev))
                counter += 1
        for probe_t, callback in self.probes:
            events.append((float(probe_t), _PROBE, counter, callback))
            counter += 1
        if self.world.faults is not None:
            for edge in self.world.faults.edges:
                events.append((edge.t, _FAULT_EDGE, counter, edge))
                counter += 1
        # tuple-native sort: sequence numbers are unique, so comparison never
        # reaches the payload
        events.sort()
        return self.trace.replay_events(_VISIT_START, _VISIT_END, events)

    # -- handlers ------------------------------------------------------------------
    def _end_visit(self, node: MobileNode, t: float) -> None:
        if node.at_landmark is None:
            return
        station = self.world.stations[node.at_landmark]
        self.protocol.on_visit_end(self.world, node, station, t)
        self.world.disconnect(node, station)
        node.prev_landmark = node.at_landmark
        node.at_landmark = None
        node.last_depart = t

    def _handle_fault_edge(self, edge: FaultEdge, t: float) -> None:
        """A fault window activated or cleared: trace it, apply churn."""
        world = self.world
        if world.obs_enabled:
            world.events.emit(
                t,
                ev.FAULT_INJECTED if edge.action == "injected" else ev.FAULT_CLEARED,
                kind=edge.kind,
                spec=edge.spec_index,
                **edge.data,
            )
        if edge.action == "injected" and edge.kind == "node_churn":
            # churned nodes vanish: close their current visits (the station
            # sees a normal departure); new visits are skipped while down
            for nid in edge.targets:
                node = world.nodes.get(nid)
                if node is not None and node.at_landmark is not None:
                    self._end_visit(node, t)

    def _handle_visit_start(self, rec, t: float) -> None:
        # one unpack of the record tuple is cheaper than its field reads
        _, end, nid, lid = rec
        world = self.world
        if world._faults_active and world.faults.node_down(nid, t):
            # churned-out node: the visit never happens (no connection, no
            # contacts, no protocol callbacks); its carried packets are
            # stranded until it recovers
            if world.obs_enabled:
                world.events.emit(t, ev.FAULT_SKIPPED, node=nid, landmark=lid)
            return
        node = world.nodes[nid]
        # overlapping records: close the stale visit first
        if node.at_landmark is not None:
            if node.at_landmark == lid:
                # extension of the current visit
                node.visit_until = max(node.visit_until, end)
                return
            self._end_visit(node, t)
        station = world.stations[lid]
        if node.prev_landmark is not None and node.prev_landmark != lid:
            node.n_transits += 1
        node.at_landmark = lid
        node.visit_started = t
        node.visit_until = end
        world.connect(node, station)
        world.begin_visit_budget(node, end - t)

        world.drop_expired_in(node)
        world.drop_expired_in(station)

        # automatic delivery: the carrier reached a destination landmark
        for p in node.buffer.packets_for(station.lid):
            world.node_to_station(node, station, p)

        self.protocol.on_visit_start(world, node, station, t)
        if self.protocol.uses_contacts:
            p_contact = self.config.contact_prob
            for other in world.connected_nodes(station):
                if other.nid == node.nid:
                    continue
                if p_contact < 1.0 and world.rng.random() >= p_contact:
                    continue
                self.protocol.on_contact(world, node, other, station, t)

    def _handle_visit_end(self, rec, t: float) -> None:
        node = self.world.nodes[rec.node]
        # only close the visit this record actually opened
        if node.at_landmark == rec.landmark and t >= node.visit_until:
            self.world.drop_expired_in(node)
            self._end_visit(node, t)

    def _handle_generation(self, gen: GenerationEvent, t: float) -> None:
        world = self.world
        if world._faults_active and world.faults.station_down(gen.src, t):
            # a dead station cannot source packets; the skip is schedule-
            # driven, so every protocol sees the identical workload
            return
        station = world.stations[gen.src]
        packet = self._mint(gen, t)
        world.metrics.on_generated()
        station.buffer.add(packet)
        if world.obs_enabled:
            world.events.emit(
                t, ev.GENERATED, packet=packet.pid, landmark=gen.src, dst=gen.dst
            )
        world.drop_expired_in(station)
        self.protocol.on_packet_generated(world, station, packet, t)

    def _mint(self, gen: GenerationEvent, t: float) -> Packet:
        """Create the packet for one generation event.

        Split out so the shard engine can mint packets with coordinator-
        assigned ids and TTLs (identical to the serial factory sequence)
        while the handler above stays shared.
        """
        return self.factory.create(src=gen.src, dst=gen.dst, now=t)

    def _handle_probe(self, callback, t: float) -> None:
        callback(self.world)

    # -- main loop -----------------------------------------------------------------
    #: phase names indexed by event kind, for the dispatch timers
    _DISPATCH_PHASES = (
        "dispatch.fault_edge",
        "dispatch.visit_end",
        "dispatch.packet_gen",
        "dispatch.visit_start",
        "dispatch.probe",
    )

    def _dispatch(self, events: Iterable[Tuple[float, int, int, object]]) -> None:
        """The only loop over dispatched events.

        What the run modes differ in — per-kind timing, checkpoint
        prefix-skip and snapshots, shard delivery tagging — lives in
        iterator wrappers around ``events``, so the bare loop reads no
        clock.  Same-timestamp runs are batched: the clock is written once
        per distinct timestamp and every co-timed event drains in one pass.
        """
        world = self.world
        handlers = (
            self._handle_fault_edge,
            self._handle_visit_end,
            self._handle_generation,
            self._handle_visit_start,
            self._handle_probe,
        )
        last_t = None
        for t, kind, _, payload in events:
            if t != last_t:
                world.now = t
                last_t = t
            handlers[kind](payload, t)

    def _timed(
        self, events: Iterable[Tuple[float, int, int, object]],
        acc: List[float], cnt: List[int],
    ) -> Iterator[Tuple[float, int, int, object]]:
        """Per-kind dispatch timing: the wrapper for runs given a recorder.

        Parks the span cursor on the kind's dispatch node while the event's
        handler runs, so protocol-side ``spans.add()`` calls (router.*,
        baseline.*) nest under the dispatch span that triggered them, and
        accumulates each handler's seconds and calls into ``acc``/``cnt``
        (folded into the recorder once, by :meth:`_fold_dispatch`).
        """
        rec = self.obs.spans
        anchor = rec.current
        nodes = [rec.node(name, anchor) for name in self._DISPATCH_PHASES]
        clock = perf_counter
        try:
            for event in events:
                kind = event[1]
                rec.current = nodes[kind]
                t0 = clock()
                yield event
                acc[kind] += clock() - t0
                cnt[kind] += 1
        finally:
            rec.current = anchor

    def _fold_dispatch(self, acc: List[float], cnt: List[int]) -> None:
        spans = self.obs.spans
        for kind, name in enumerate(self._DISPATCH_PHASES):
            if cnt[kind]:
                spans.add(name, acc[kind], cnt[kind])

    def run(self) -> MetricsSummary:
        return self._replay(None)

    def run_checkpointed(self, checkpointer) -> MetricsSummary:
        """:meth:`run` with crash-safe snapshots (docs/reliability.md).

        ``checkpointer`` (a :class:`~repro.sim.checkpoint.SerialCheckpointer`)
        is asked to ``restore`` state before the loop starts — returning the
        number of already-dispatched events to skip, 0 for a fresh run —
        and wraps the event stream so it can snapshot on its cadence or
        turn a deferred signal into a clean stop.  The event stream is
        re-derived deterministically, so skipping the dispatched prefix
        lands the resumed run in exactly the pre-crash state and the final
        metrics are bit-identical to an uninterrupted run.
        """
        if self.probes:
            raise ValueError("checkpointed runs do not support probes")
        return self._replay(checkpointer)

    def _replay(self, checkpointer) -> MetricsSummary:
        """One run; its phases are timed only when ``obs.spans`` is set.

        A timed run records under the span current when it starts, and
        its ``phase_timings`` are that span's flat report, so runs
        sharing a recorder each report only their own phases.
        """
        spans = self.obs.spans
        phase = spans.span if spans is not None else _untimed
        anchor = spans.current if spans is not None else None
        world = self.world
        skip = checkpointer.restore(self) if checkpointer is not None else 0
        if skip == 0:
            with phase("setup"):
                self.protocol.setup(world)
        with phase("event_assembly"):
            events = self._events()

        if checkpointer is not None:
            events = checkpointer.replay(self, events, skip)
        acc, cnt = [0.0] * 5, [0] * 5
        if spans is not None:
            events = self._timed(events, acc, cnt)
        self._dispatch(events)
        if spans is not None:
            self._fold_dispatch(acc, cnt)

        world.now = self.trace.end_time
        with phase("finalize"):
            self.protocol.finalize(world)
        provenance = RunProvenance.from_run(
            self.protocol.name, self.trace.name, self.config, scenario=self.scenario
        )
        return world.metrics.summary(
            self.protocol.name,
            self.trace.name,
            provenance=provenance,
            phase_timings=spans.flat(anchor) if spans is not None else None,
        )


def _untimed(name: str) -> nullcontext:
    """The phase scope of a run given no span recorder: reads no clock."""
    return nullcontext()


def run_simulation(
    trace: Trace,
    protocol: RoutingProtocol,
    config: Optional[SimConfig] = None,
    *,
    obs: Optional[Observability] = None,
) -> MetricsSummary:
    """One-call convenience wrapper around :class:`Simulation`."""
    return Simulation(trace, protocol, config or SimConfig(), obs=obs).run()
