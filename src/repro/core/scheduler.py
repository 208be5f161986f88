"""Communication scheduling at a landmark (Section IV-D.5 of the paper).

A landmark talks to one node at a time, over either the uplink (node ->
landmark) or the downlink (landmark -> node).  The scheduler:

* switches between *uploading* and *forwarding* modes based on the ratio
  ``R`` of packets held by the landmark to packets held by connected nodes:
  when ``R < R_UP`` it uploads (pulls packets off nodes), when ``R > R_DOWN``
  it forwards (pushes packets onto carriers);
* in uploading mode takes at most ``MAX_UPLOAD_BATCH`` packets per turn;
* in forwarding mode sends first the packet with the minimal remaining TTL
  among feasible packets (expected delay within the remaining TTL).

The paper's periodic scan for new nodes has no counterpart here: the
engine delivers every arrival as its own visit-start event.  Its rule 2
(upload from the node holding the most feasible packets) has no choice to
make, because uploads run only for the arriving node.

The discrete-event engine abstracts link occupancy away (transfers during a
visit are not rate-limited by default), so what matters operationally are the
*priorities* this scheduler defines; they are exposed as sorting keys and
used by the DTN-FLOW protocol whenever it moves packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, List, Optional, Sequence

from repro.sim.packets import Packet

UPLOAD = "upload"
FORWARD = "forward"

#: mode hysteresis band on ``R`` (station packets / node packets)
R_UP = 0.67
R_DOWN = 1.5
#: IV-D.5 rule 3: at most this many packets per upload turn (``M_up``)
MAX_UPLOAD_BATCH = 50


@dataclass
class SchedulerConfig:
    """The scheduler's one experiment knob."""

    #: forwarding order: "urgent" (paper rule 4: minimal remaining TTL
    #: first) or "fifo" (arrival order) - the ablation knob for IV-D.5
    priority: str = "urgent"

    def __post_init__(self) -> None:
        if self.priority not in ("urgent", "fifo"):
            raise ValueError(f"priority must be 'urgent' or 'fifo', got {self.priority!r}")


class CommScheduler:
    """Mode selection + packet prioritisation for one landmark."""

    def __init__(self, config: Optional[SchedulerConfig] = None) -> None:
        self.config = config or SchedulerConfig()
        self._mode = FORWARD

    @property
    def mode(self) -> str:
        return self._mode

    def update_mode(self, station_packets: int, node_packets: int) -> str:
        """Hysteresis switch on the station/node packet ratio ``R``.

        ``R < R_UP``  -> switch to uploading (station is starved);
        ``R > R_DOWN`` -> switch to forwarding (station is backed up);
        otherwise keep the current mode.
        """
        if node_packets <= 0:
            ratio = float("inf") if station_packets > 0 else 1.0
        else:
            ratio = station_packets / node_packets
        if ratio < R_UP:
            self._mode = UPLOAD
        elif ratio > R_DOWN:
            self._mode = FORWARD
        return self._mode

    # -- priorities ------------------------------------------------------------------
    def forwarding_order(
        self,
        packets: Sequence[Packet],
        expected_delay_of: Callable[[Packet], float],
        now: float,
    ) -> List[Packet]:
        """Feasible packets in scheduling order.

        A packet is feasible when its expected delay fits its remaining TTL
        (``p.deadline - now``); this runs once per queued packet per
        forwarding pass.  ``urgent`` (default, the paper's rule): minimal
        remaining TTL first; ``fifo``: packet-id (arrival) order.
        """
        feasible = [p for p in packets if expected_delay_of(p) <= p.deadline - now]
        if len(feasible) > 1:
            if self.config.priority == "urgent":
                # (deadline - now, pid) orders identically to (deadline, pid)
                # for a fixed `now`; the C-level key avoids a lambda call per
                # packet on every forwarding pass
                feasible.sort(key=attrgetter("deadline", "pid"))
            else:
                feasible.sort(key=attrgetter("pid"))
        return feasible
