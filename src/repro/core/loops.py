"""Routing-loop detection and correction (Section IV-E.2 of the paper).

Because routing tables are distance-vector tables refreshed through mobile
nodes, updates can be arbitrarily delayed and transient routing loops may
form (Fig. 9).  The paper's remedy:

* every packet records the landmarks it has been held at;
* when a packet finds itself at a landmark for the second time, it reports
  the loop (the slice of its path between the two occurrences);
* the detecting landmark issues a *loop-correction* directive to the
  involved landmarks, which flush their route for the looping destination
  and re-advertise until the next hop stabilises (the paper keeps
  re-sending distance vectors for a hold time ``T_s``).

In this implementation the flush is immediate (we have direct access to the
tables) and a **hold-down window** of length ``hold_time`` replaces the
repeated re-advertisement: during hold-down an involved landmark ignores
*learned* (merged) routes for the destination and only trusts its own direct
links, after which normal distance-vector convergence rebuilds the path.
This preserves the paper's loop-breaking semantics without simulating the
correction packets' own journeys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.routing_table import RoutingTable
from repro.sim.packets import Packet
from repro.utils.validation import require_non_negative

#: range check ``(name, value)`` of how long a detected loop bans its next
#: hop; the DTN-FLOW config applies the same one to its key
check_hold_time = require_non_negative


@dataclass(frozen=True)
class LoopEvent:
    """A detected routing loop for destination ``dest``."""

    dest: int
    landmarks: Tuple[int, ...]
    detected_at: float
    detected_by: int


class LoopCorrector:
    """Loop bookkeeping shared by all landmarks of one DTN-FLOW deployment."""

    def __init__(self, hold_time: float = 0.0) -> None:
        check_hold_time("hold_time", hold_time)
        self.hold_time = float(hold_time)
        # (landmark, dest) -> (until, banned next hop): during the hold the
        # landmark refuses routes for ``dest`` through the hop that formed
        # the cycle, while alternative routes re-propagate normally (the
        # paper's "repeatedly send updated distance vectors until stable")
        self._holds: Dict[Tuple[int, int], Tuple[float, int]] = {}
        self.events: List[LoopEvent] = []

    # -- detection -----------------------------------------------------------------
    @staticmethod
    def extract_loop(packet: Packet, landmark: int) -> Optional[Tuple[int, ...]]:
        """The cycle a packet just closed by re-entering ``landmark``.

        ``packet.visited`` must already include the previous occurrence of
        ``landmark`` but *not yet* the current one.  Returns None when no
        loop exists.
        """
        if landmark not in packet.visited:
            return None
        first = packet.visited.index(landmark)
        return tuple(packet.visited[first:])

    def report(
        self,
        packet: Packet,
        landmark: int,
        tables: Dict[int, RoutingTable],
        now: float,
    ) -> Optional[LoopEvent]:
        """Handle a packet revisiting ``landmark``: correct the loop.

        Flushes the looping destination from every involved landmark's table
        and starts their hold-down windows.  Returns the recorded event, or
        None when the packet had not actually looped.
        """
        cycle = self.extract_loop(packet, landmark)
        if cycle is None:
            return None
        event = LoopEvent(
            dest=packet.dst, landmarks=cycle, detected_at=now, detected_by=landmark
        )
        self.events.append(event)
        # successor of each involved landmark along the packet's path is the
        # hop that participated in the cycle - ban it for the hold window
        succ: Dict[int, int] = {}
        for a, b in zip(cycle, cycle[1:]):
            succ.setdefault(a, b)
        for lid in set(cycle):
            table = tables.get(lid)
            if table is not None:
                table.drop_destination(packet.dst)
            if self.hold_time > 0 and lid in succ:
                self._holds[(lid, packet.dst)] = (now + self.hold_time, succ[lid])
        return event

    # -- hold-down ------------------------------------------------------------------
    def is_held(self, landmark: int, dest: int, now: float) -> bool:
        """Whether ``landmark`` still distrusts some next hop for ``dest``."""
        return self.banned_hop(landmark, dest, now) is not None

    def banned_hop(self, landmark: int, dest: int, now: float) -> Optional[int]:
        """The next hop ``landmark`` must not use for ``dest`` (or None)."""
        hold = self._holds.get((landmark, dest))
        if hold is None:
            return None
        until, banned = hold
        if now >= until:
            del self._holds[(landmark, dest)]
            return None
        return banned

    def enforce(self, landmark: int, table: RoutingTable, now: float) -> None:
        """Drop any route that re-learned a banned next hop during its hold."""
        for (lid, dest), (until, banned) in list(self._holds.items()):
            if lid != landmark:
                continue
            if now >= until:
                del self._holds[(lid, dest)]
                continue
            entry = table.lookup(dest)
            if entry is not None and entry.next_hop == banned:
                table.drop_destination(dest)

    @property
    def n_loops_detected(self) -> int:
        return len(self.events)


def inject_loop(
    tables: Dict[int, RoutingTable],
    cycle: Sequence[int],
    dest: int,
    delay: float = 1.0,
) -> None:
    """Deliberately corrupt routing tables to form a loop (Table VII setup).

    Forces each landmark in ``cycle`` to route packets for ``dest`` to the
    next landmark of the cycle, closing it.  Used by the loop-detection
    evaluation, which "purposely created loops in this test".
    """
    if len(cycle) < 2:
        raise ValueError("a loop needs at least two landmarks")
    n = len(cycle)
    for i, lid in enumerate(cycle):
        nxt = cycle[(i + 1) % n]
        table = tables[lid]
        table.drop_destination(dest)
        table._offer_route(dest, nxt, delay)  # noqa: SLF001 - test hook by design
