"""Structured event tracing for simulation runs.

The simulator is normally a black box between a workload and four summary
metrics.  The :class:`EventLog` opens it up: every packet-lifecycle step
(generation, each forwarding hop, delivery or death) and every routing
control action (table exchange, bandwidth EWMA update, predictor outcome)
can be recorded as a typed :class:`Event` stamped with simulation time and
the entity ids involved.

Design constraints:

* **near-zero overhead when disabled** — the engine and protocols guard
  every emission behind a cached boolean (``World.obs_enabled``), so a
  default run never builds an event object, never calls :meth:`EventLog.emit`
  and never allocates;
* **bounded memory** — the log is a ring buffer (``capacity`` events); long
  runs keep the most recent window and count what was evicted;
* **machine-readable** — events export as JSONL for offline analysis.

Event taxonomy (see docs/observability.md for the full semantics):

================== ==========================================================
packet lifecycle
================== ==========================================================
``generated``       packet born at its source landmark station
``uplinked``        carrier handed the packet up to a landmark station
``forwarded``       station handed the packet down to a mobile carrier
``handover``        node-to-node transfer (baselines / node-rescue extension)
``delivered``       packet reached its destination landmark within TTL
``dropped_ttl``     packet expired and was removed from a buffer
``dropped_buffer``  a transfer was refused because the carrier's memory was
                    full (the packet stays with its current holder)
``loop_detected``   the packet's landmark path closed a routing cycle
``deadend_reroute`` a dead-ended carrier dumped the packet for re-routing
================== ==========================================================

================== ==========================================================
routing control
================== ==========================================================
``table_exchange``  a routing-table snapshot or backward report was applied
``bw_update``       a bandwidth EWMA fold or backward-report application
``predictor_hit``   a node's next-transit prediction was correct
``predictor_miss``  a node's next-transit prediction was wrong
================== ==========================================================

================== ==========================================================
fault injection (see docs/resilience.md)
================== ==========================================================
``fault.injected``  a scheduled fault window activated (landmark outage or
                    death, node churn, link degradation, transfer loss)
``fault.cleared``   a scheduled fault window ended
``fault.blocked``   a transfer was refused: its station was down or the
                    visit's link fully degraded
``fault.lost``      a transfer attempt was claimed by the loss hash
``fault.skipped``   a churned-out node's visit never happened
================== ==========================================================

=========================== ==================================================
executor recovery (see docs/reliability.md)
=========================== ==================================================
``executor.checkpoint``      a crash-safe checkpoint was committed to disk
``executor.resume``          a run restarted from a checkpoint; a serial
                             restore's ``trace`` field says where its trace
                             came from (``run-dir``, ``cache``, ``rebuilt``)
``executor.fallback``        with ``kind="trace"``: a run dir's trace file
                             was unusable and the trace was rebuilt; with
                             ``kind="checkpoint"``: a checkpoint or result
                             file failed its digest or no longer unpickles,
                             and was set aside as ``<name>.bad``
``executor.interrupt``       SIGINT/SIGTERM flushed a final checkpoint
``executor.chaos``           the chaos harness injected an executor fault
=========================== ==================================================

The ``fault.*`` events describe failures *inside the simulated DTN*
(``repro resilience``); the ``executor.*`` events describe failures of
the process/IPC/store layer that runs the simulation (``repro chaos``)
and reach only a run directory's ``recovery.jsonl``, never a run's
:class:`EventLog`: :data:`RUN_EVENTS` are the kinds a run emits.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional

# -- packet lifecycle ---------------------------------------------------------
GENERATED = "generated"
UPLINKED = "uplinked"
FORWARDED = "forwarded"
HANDOVER = "handover"
DELIVERED = "delivered"
DROPPED_TTL = "dropped_ttl"
DROPPED_BUFFER = "dropped_buffer"
LOOP_DETECTED = "loop_detected"
DEADEND_REROUTE = "deadend_reroute"

# -- routing control ----------------------------------------------------------
TABLE_EXCHANGE = "table_exchange"
BW_UPDATE = "bw_update"
PREDICTOR_HIT = "predictor_hit"
PREDICTOR_MISS = "predictor_miss"

# -- fault injection ----------------------------------------------------------
FAULT_INJECTED = "fault.injected"
FAULT_CLEARED = "fault.cleared"
FAULT_BLOCKED = "fault.blocked"
FAULT_LOST = "fault.lost"
FAULT_SKIPPED = "fault.skipped"

# -- executor recovery --------------------------------------------------------
EXECUTOR_CHECKPOINT = "executor.checkpoint"
EXECUTOR_RESUME = "executor.resume"
EXECUTOR_FALLBACK = "executor.fallback"
EXECUTOR_INTERRUPT = "executor.interrupt"
EXECUTOR_CHAOS = "executor.chaos"

PACKET_EVENTS = frozenset(
    {
        GENERATED,
        UPLINKED,
        FORWARDED,
        HANDOVER,
        DELIVERED,
        DROPPED_TTL,
        DROPPED_BUFFER,
        LOOP_DETECTED,
        DEADEND_REROUTE,
    }
)
CONTROL_EVENTS = frozenset({TABLE_EXCHANGE, BW_UPDATE, PREDICTOR_HIT, PREDICTOR_MISS})
FAULT_EVENTS = frozenset(
    {FAULT_INJECTED, FAULT_CLEARED, FAULT_BLOCKED, FAULT_LOST, FAULT_SKIPPED}
)
EXECUTOR_EVENTS = frozenset(
    {
        EXECUTOR_CHECKPOINT,
        EXECUTOR_RESUME,
        EXECUTOR_FALLBACK,
        EXECUTOR_INTERRUPT,
        EXECUTOR_CHAOS,
    }
)
#: the kinds a simulation run emits into its event log
RUN_EVENTS = PACKET_EVENTS | CONTROL_EVENTS | FAULT_EVENTS

#: terminal packet-lifecycle states (at most one per packet id)
TERMINAL_EVENTS = frozenset({DELIVERED, DROPPED_TTL})


@dataclass
class Event:
    """One recorded simulation event.

    ``t`` is simulation time (seconds); ``packet``/``node``/``landmark``
    are the entity ids involved (None when not applicable); ``data`` holds
    event-specific extras (e.g. the delivery delay, the table-entry count).
    """

    __slots__ = ("t", "etype", "packet", "node", "landmark", "data")

    t: float
    etype: str
    packet: Optional[int]
    node: Optional[int]
    landmark: Optional[int]
    data: Optional[Dict[str, object]]

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"t": self.t, "event": self.etype}
        if self.packet is not None:
            out["packet"] = self.packet
        if self.node is not None:
            out["node"] = self.node
        if self.landmark is not None:
            out["landmark"] = self.landmark
        if self.data:
            out.update(self.data)
        return out


class EventLog:
    """A bounded, append-only log of simulation events.

    Parameters
    ----------
    capacity:
        Ring-buffer size; once full, the oldest events are evicted (the
        eviction count is tracked in :attr:`n_evicted`).  The per-type
        counts of :meth:`counts_by_type` cover every emitted event, so they
        stay exact however many the ring evicts.
    enabled:
        When False every :meth:`emit` is a no-op.  Callers on hot paths
        should additionally guard on :attr:`enabled` (or a cached copy)
        so argument construction itself is skipped.

    A *tap* (:attr:`tap`) is a callback invoked synchronously with every
    recorded :class:`Event`, before ring-buffer eviction can lose it — the
    live-streaming hook behind ``repro serve``'s SSE replay endpoint.  The
    tap runs on the emitting (engine) thread; a slow tap slows the
    simulation down, which is exactly what wall-clock replay wants.
    """

    def __init__(self, capacity: int = 200_000, *, enabled: bool = True) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.enabled = bool(enabled)
        self._buf: deque = deque(maxlen=self.capacity)
        self._counts: Dict[str, int] = {}
        self.tap: Optional[Callable[[Event], None]] = None

    # -- recording ---------------------------------------------------------------
    def emit(
        self,
        t: float,
        etype: str,
        *,
        packet: Optional[int] = None,
        node: Optional[int] = None,
        landmark: Optional[int] = None,
        **data: object,
    ) -> None:
        """Record one event (no-op while disabled)."""
        if not self.enabled:
            return
        self._counts[etype] = self._counts.get(etype, 0) + 1
        event = Event(t, etype, packet, node, landmark, data or None)
        self._buf.append(event)
        if self.tap is not None:
            self.tap(event)

    # -- queries ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._buf)

    @property
    def n_emitted(self) -> int:
        """Events recorded since the log was created, evicted ones included."""
        return sum(self._counts.values())

    @property
    def n_evicted(self) -> int:
        """Events lost to ring-buffer eviction."""
        return self.n_emitted - len(self._buf)

    def select(
        self,
        *,
        etypes: Optional[Iterable[str]] = None,
        packet: Optional[int] = None,
        node: Optional[int] = None,
        landmark: Optional[int] = None,
        t_min: Optional[float] = None,
        t_max: Optional[float] = None,
    ) -> List[Event]:
        """Filter events; all criteria are conjunctive, None means 'any'."""
        wanted = frozenset(etypes) if etypes is not None else None
        out = []
        for e in self._buf:
            if wanted is not None and e.etype not in wanted:
                continue
            if packet is not None and e.packet != packet:
                continue
            if node is not None and e.node != node:
                continue
            if landmark is not None and e.landmark != landmark:
                continue
            if t_min is not None and e.t < t_min:
                continue
            if t_max is not None and e.t > t_max:
                continue
            out.append(e)
        return out

    def packet_journey(self, pid: int) -> List[Event]:
        """Every event of packet ``pid`` in emission (= causal) order.

        The engine's clock is monotone, so emission order is time order;
        same-timestamp events keep the order the engine processed them in.
        """
        return [e for e in self._buf if e.packet == pid]

    def counts_by_type(self) -> Dict[str, int]:
        """Emitted event counts per type, evicted events included."""
        return dict(self._counts)

    def delivered_packets(self) -> List[int]:
        """Packet ids with a ``delivered`` event in the retained window."""
        return [e.packet for e in self._buf if e.etype == DELIVERED and e.packet is not None]

    # -- export --------------------------------------------------------------------
    def to_jsonl(self, path: str) -> int:
        """Write the retained events as JSON lines; returns lines written."""
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for e in self._buf:
                fh.write(json.dumps(e.as_dict(), sort_keys=True))
                fh.write("\n")
                n += 1
        return n

    def jsonl_lines(self) -> Iterator[str]:
        """The retained events as JSON strings (one per event)."""
        for e in self._buf:
            yield json.dumps(e.as_dict(), sort_keys=True)

