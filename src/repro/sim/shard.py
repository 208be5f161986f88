"""Shard-capable engine: one process per landmark subarea group.

The paper's central structural claim (Section III) is that DTN routing
state decomposes by *landmark subarea*: a packet's life happens at
stations, and the only state that crosses subarea boundaries rides on
nodes transiting between landmarks.  This module exploits exactly that
decomposition to split one simulation across processes:

* each :class:`ShardEngine` owns a subset of the landmarks (and, at any
  instant, the nodes currently based there) and replays only the events
  of its own subareas;
* the timeline is divided into **epochs** at coordinator-chosen cut
  instants; within an epoch shards run independently, and at each epoch
  barrier exactly two message types cross the boundary —
  :class:`NodeTransitMsg` (a node, its packets and its protocol state
  moving to another subarea) and :class:`BandwidthReportMsg` (the
  routing *information* the node carries: backward bandwidth reports and
  table snapshots, the paper's inter-landmark maintenance traffic);
* the cut placement (see :mod:`repro.eval.sharded`) guarantees every
  cross-shard transit contains exactly one barrier, so a shard never
  needs a node mid-event and the merged run is **bit-identical** to the
  serial engine.

Event ordering is preserved exactly: every event keeps the *global*
sequence number the serial engine would have assigned, and
:class:`ShardMetrics` tags each delivery with ``(t, kind, seq, intra)``
so the coordinator can replay samples in serial dispatch order (float
summation order and all).
"""

from __future__ import annotations

import resource
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from repro.mobility.trace import VisitRecord
from repro.obs.runtime import Observability
from repro.obs.spans import SpanRecorder
from repro.sim.engine import (
    _PACKET_GEN,
    _VISIT_END,
    _VISIT_START,
    RoutingProtocol,
    SimConfig,
    Simulation,
    World,
)
from repro.sim.entities import MobileNode
from repro.sim.metrics import MetricsCollector
from repro.sim.packets import Packet

__all__ = [
    "TraceView",
    "NodeTransitMsg",
    "BandwidthReportMsg",
    "PreparedGen",
    "ShardMetrics",
    "ShardEngine",
    "ShardInit",
    "split_epochs",
    "shard_worker",
]


@dataclass(frozen=True)
class TraceView:
    """The slice of a trace one shard sees, duck-typing ``Trace`` metadata.

    ``start_time``/``end_time`` are the *global* trace span (protocols use
    them as the time origin for table versioning and warmup; metrics use
    the global duration), while ``nodes``/``landmarks`` are shard-local:
    the subareas this shard owns and the nodes initially based in them.
    """

    name: str
    start_time: float
    end_time: float
    nodes: Tuple[int, ...]
    landmarks: Tuple[int, ...]
    n_records: int = 0

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_landmarks(self) -> int:
        return len(self.landmarks)

    def __len__(self) -> int:
        return self.n_records


@dataclass
class NodeTransitMsg:
    """A node handed from one shard to another at an epoch barrier.

    Carries everything the serial engine keeps on the
    :class:`~repro.sim.entities.MobileNode` between visits, the packets in
    the node's buffer (in insertion order — buffer iteration order is
    observable through protocol hooks), and the protocol's per-node state.
    """

    nid: int
    prev_landmark: Optional[int]
    last_depart: float
    n_transits: int
    packets: List[Packet]
    protocol_state: object = None


@dataclass
class BandwidthReportMsg:
    """Routing information riding along with a transiting node.

    The paper's second class of inter-landmark traffic: backward bandwidth
    reports and carried table snapshots (Section IV-D) flowing *between*
    subareas.  Kept as a distinct message type from the node-state handoff
    so the boundary mirrors the paper's data/maintenance split.
    """

    nid: int
    payload: object = None


class PreparedGen(NamedTuple):
    """A generation event with its serial-order packet id and TTL pinned.

    The coordinator replays the serial workload and TTL-jitter RNG streams
    once, so every shard mints packets with exactly the ids and deadlines
    the serial :class:`~repro.sim.packets.PacketFactory` would have
    produced in global dispatch order.
    """

    time: float
    seq: int
    src: int
    dst: int
    pid: int
    ttl: float


class ShardMetrics(MetricsCollector):
    """A collector that tags each delivery with its global event position.

    ``(t, kind, seq, intra)`` totally orders deliveries across shards in
    exactly the serial engine's dispatch order (``intra`` separates
    multiple deliveries inside one event, which happen in deterministic
    handler order).  The coordinator replays the union of all shards'
    samples in sorted-tag order into a fresh collector, reproducing the
    serial delay list — including float summation order — bit for bit.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        #: (t, kind, seq, intra, delay, hops, dst) per delivery
        self.samples: List[Tuple[float, int, int, int, float, int, int]] = []
        self._key: Tuple[float, int, int] = (float("-inf"), 0, 0)
        self._intra = 0

    def begin_event(self, key: Tuple[float, int, int]) -> None:
        self._key = key
        self._intra = 0

    def on_delivered(self, delay: float, dst: int, hops: int = 0) -> None:
        t, kind, seq = self._key
        self.samples.append((t, kind, seq, self._intra, delay, int(hops), int(dst)))
        self._intra += 1
        super().on_delivered(delay, dst, hops)


def split_epochs(
    events: List[Tuple[float, int, int, object]], cuts: List[float]
) -> List[List[Tuple[float, int, int, object]]]:
    """Partition a sorted event list at the epoch cut instants.

    The epoch ending at cut ``b`` contains every event with ``t < b``, plus
    events *at* ``b`` whose kind sorts at or before a visit end — so a
    transit departing exactly at a cut still closes its visit before the
    barrier, and a generation at the cut instant lands after it.  This is
    the one boundary rule under which a cut inside a transit interval
    cleanly separates the departure from the arrival.
    """
    epochs: List[List[Tuple[float, int, int, object]]] = [
        [] for _ in range(len(cuts) + 1)
    ]
    k = 0
    n_cuts = len(cuts)
    for evt in events:
        t, kind = evt[0], evt[1]
        while k < n_cuts and not (t < cuts[k] or (t == cuts[k] and kind <= _VISIT_END)):
            k += 1
        epochs[k].append(evt)
    return epochs


class ShardEngine(Simulation):
    """The serial engine's event handlers, run over one shard's events.

    Reuses :class:`Simulation`'s dispatch loop and handlers unchanged;
    differs only in construction (a :class:`TraceView` instead of a full
    trace, a :class:`ShardMetrics` collector), in minting packets from
    coordinator-prepared ids/TTLs, and in tolerating visit-end events for
    nodes this shard does not currently own (the serial engine no-ops
    those ends too — they belong to visits the node never opened here).
    """

    def __init__(
        self,
        shard_id: int,
        view: TraceView,
        protocol: RoutingProtocol,
        config: SimConfig,
        obs: Optional[Observability] = None,
    ) -> None:
        if config.faults is not None:
            raise ValueError("sharded execution does not support fault plans")
        # deliberately not calling Simulation.__init__: it insists on >= 2
        # landmarks (a shard may own one) and builds a PacketFactory we
        # must not consume (packet ids/TTLs are coordinator-assigned)
        self.shard_id = int(shard_id)
        self.trace = view
        self.protocol = protocol
        self.config = config
        self.world = World(view, config, obs=obs)
        self.obs = self.world.obs
        self.factory = None  # any accidental use should fail loudly
        self.probes = []
        self.scenario = None
        self.metrics = ShardMetrics(
            table_entry_unit=config.table_entry_unit,
            experiment_duration=view.duration,
        )
        self.world.metrics = self.metrics
        # per-kind dispatch timing accumulated across epochs
        self._acc = [0.0] * 5
        self._cnt = [0] * 5

    # -- event handling overrides ---------------------------------------------
    def _handle_visit_end(self, rec, t: float) -> None:
        node = self.world.nodes.get(rec.node)
        if node is None:
            # the end event of a zero-length visit dispatched before the
            # node's handoff arrived; serially it is a no-op as well (the
            # visit it would close was never opened)
            return
        if node.at_landmark == rec.landmark and t >= node.visit_until:
            self.world.drop_expired_in(node)
            self._end_visit(node, t)

    def _mint(self, gen: PreparedGen, t: float) -> Packet:
        return Packet(
            pid=gen.pid,
            src=gen.src,
            dst=gen.dst,
            created=t,
            ttl=gen.ttl,
            size=self.config.packet_size,
        )

    # -- epoch loop ------------------------------------------------------------
    def run_epoch(self, events: Iterable[Tuple[float, int, int, object]]) -> None:
        """Dispatch one epoch through the engine loop, deliveries tagged.

        Per-kind dispatch timing accumulates in ``_acc``/``_cnt`` across
        epochs; the worker folds it into its span recorder once, at finish.
        """
        events = self._tagged(events)
        if self.obs.spans is not None:
            events = self._timed(events, self._acc, self._cnt)
        self._dispatch(events)

    def _tagged(
        self, events: Iterable[Tuple[float, int, int, object]]
    ) -> Iterator[Tuple[float, int, int, object]]:
        """Tag the collector with each event's ``(t, kind, seq)`` before
        its handler runs, so deliveries merge in serial dispatch order."""
        begin = self.metrics.begin_event
        for event in events:
            begin(event[:3])
            yield event

    # -- handoffs ---------------------------------------------------------------
    def export_node(
        self, nid: int, force: Optional[Tuple[float, int]] = None
    ) -> Tuple[NodeTransitMsg, Optional[BandwidthReportMsg]]:
        """Detach node ``nid`` for shipment to another shard.

        Normally only valid between the node's visits (the cut-placement
        invariant).  ``force`` — the ``(t, seq)`` of an overlap-closing
        start event on the destination shard — replays the serial engine's
        force-close of the still-open visit before detaching: ``_end_visit``
        runs at ``t`` with the metrics collector tagged by that event's
        key, so any sample it produces merges in serial order.  Maintenance
        payloads are detached first so a protocol can rely on its node
        state still being installed while exporting them.
        """
        world = self.world
        node = world.nodes.pop(nid)
        if node.at_landmark is not None:
            if force is None:
                raise RuntimeError(
                    f"shard {self.shard_id}: exporting node {nid} while it "
                    f"is still visiting landmark {node.at_landmark} — epoch "
                    "cuts must fall inside the node's transit interval"
                )
            t, seq = force
            world.now = t
            self.metrics.begin_event((t, _VISIT_START, seq))
            self._end_visit(node, t)
        maintenance = self.protocol.export_node_maintenance(nid)
        state = self.protocol.export_node_state(nid)
        world._visit_budget.pop(nid, None)
        world._visit_factor.pop(nid, None)
        transit = NodeTransitMsg(
            nid=nid,
            prev_landmark=node.prev_landmark,
            last_depart=node.last_depart,
            n_transits=node.n_transits,
            packets=node.buffer.packets(),
            protocol_state=state,
        )
        report = (
            BandwidthReportMsg(nid=nid, payload=maintenance)
            if maintenance is not None
            else None
        )
        return transit, report

    def import_node(
        self, transit: NodeTransitMsg, report: Optional[BandwidthReportMsg]
    ) -> None:
        """Install a node shipped from another shard."""
        node = MobileNode(transit.nid, self.config.node_memory_bytes)
        node.prev_landmark = transit.prev_landmark
        node.last_depart = transit.last_depart
        node.n_transits = transit.n_transits
        for packet in transit.packets:
            node.buffer.add(packet)
        self.world.nodes[transit.nid] = node
        self.protocol.import_node_state(transit.nid, transit.protocol_state)
        if report is not None:
            self.protocol.import_node_maintenance(transit.nid, report.payload)


# ---------------------------------------------------------------------------
# Worker process entry
# ---------------------------------------------------------------------------


@dataclass
class ShardInit:
    """Everything one shard worker needs, shipped once at spawn time.

    Exactly one of ``records`` (materialized mode: this shard's visit
    records with their *global* indices) or ``source`` (streaming mode: a
    factory for the full record stream, filtered locally through
    ``shard_of``) is set.
    """

    shard_id: int
    view: TraceView
    config: SimConfig
    protocol_name: str
    protocol_kwargs: Optional[dict]
    cuts: List[float]
    #: epoch index -> [(nid, destination shard, force)] departures after
    #: that epoch; ``force`` is ``None`` or the overlap-closing event's
    #: ``(t, seq)`` (see :meth:`ShardEngine.export_node`)
    exports: Dict[int, List[Tuple[int, int, Optional[Tuple[float, int]]]]]
    gens: List[PreparedGen] = field(default_factory=list)
    records: Optional[List[Tuple[int, VisitRecord]]] = None
    source: Optional[Callable[[], Iterable[VisitRecord]]] = None
    shard_of: Optional[Mapping[int, int]] = None


def _build_epochs(init: ShardInit) -> List[List[Tuple[float, int, int, object]]]:
    events: List[Tuple[float, int, int, object]] = []
    if init.records is not None:
        items: Iterable[Tuple[int, VisitRecord]] = init.records
    else:
        if init.source is None or init.shard_of is None:
            raise ValueError("ShardInit needs either records or source + shard_of")
        shard_of, me = init.shard_of, init.shard_id
        items = (
            (i, rec)
            for i, rec in enumerate(init.source())
            if shard_of[rec.landmark] == me
        )
    for i, rec in items:
        events.append((rec.start, _VISIT_START, 2 * i, rec))
        events.append((rec.end, _VISIT_END, 2 * i + 1, rec))
    for gen in init.gens:
        events.append((gen.time, _PACKET_GEN, gen.seq, gen))
    events.sort()
    return split_epochs(events, init.cuts)


def shard_worker(conn, init: ShardInit) -> None:
    """Run one shard over a pipe: epoch barriers in, handoffs out.

    Protocol (coordinator side in :mod:`repro.eval.sharded`):

    * recv ``("epoch", k, imports)`` — apply the handoffs, run epoch ``k``,
      reply ``("epoch_done", k, {to_shard: [(transit, report), ...]})``;
    * recv ``("finish",)`` — finalize, reply ``("result", payload)`` with
      counters, tagged delivery samples, peak RSS and phase timings.

    Any exception is reported as ``("error", traceback)`` so the
    coordinator fails fast instead of deadlocking on a dead pipe.
    """
    try:
        from repro.baselines import make_protocol  # lazy: sim must not import baselines

        spans = SpanRecorder()
        obs = Observability(spans=spans)  # events off, phases timed
        with spans.span("setup"):
            protocol = make_protocol(
                init.protocol_name, **(init.protocol_kwargs or {})
            )
            engine = ShardEngine(init.shard_id, init.view, protocol, init.config, obs=obs)
            protocol.setup(engine.world)
        t0 = perf_counter()
        epochs = _build_epochs(init)
        spans.add("event_assembly", perf_counter() - t0)

        for k in range(len(init.cuts) + 1):
            msg = conn.recv()
            if msg[0] != "epoch" or msg[1] != k:
                raise RuntimeError(f"shard {init.shard_id}: unexpected message {msg[:2]}")
            for transit, report in msg[2]:
                engine.import_node(transit, report)
            engine.run_epoch(epochs[k])
            outgoing: Dict[int, List[Tuple[NodeTransitMsg, Optional[BandwidthReportMsg]]]] = {}
            for nid, to_shard, force in init.exports.get(k, ()):
                outgoing.setdefault(to_shard, []).append(
                    engine.export_node(nid, force=force)
                )
            conn.send(("epoch_done", k, outgoing))

        msg = conn.recv()
        if msg[0] != "finish":
            raise RuntimeError(f"shard {init.shard_id}: unexpected message {msg[:1]}")
        engine.world.now = init.view.end_time
        engine.metrics.begin_event((float("inf"), 9, init.shard_id))
        with spans.span("finalize"):
            protocol.finalize(engine.world)
        engine._fold_dispatch(engine._acc, engine._cnt)
        metrics = engine.metrics
        conn.send(
            (
                "result",
                {
                    "samples": metrics.samples,
                    "generated": metrics.generated,
                    "forwarding_ops": metrics.forwarding_ops,
                    "maintenance_ops": metrics.maintenance_ops,
                    "dropped_ttl": metrics.dropped_ttl,
                    "n_events": sum(engine._cnt),
                    "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    "phase_timings": spans.flat(),
                },
            )
        )
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()
