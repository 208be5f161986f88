"""Load balancing over transit links (Section IV-E.3 of the paper).

A link with a very low expected delay attracts the optimal routes of many
destinations and can overload.  Each landmark therefore monitors, per
outgoing transit link, the *incoming rate* (packets newly assigned to the
link per time unit) and the *outgoing rate* (packets actually carried out
over the link per time unit).  When the incoming rate exceeds ``theta``
times the outgoing rate the link is declared overloaded and packets are
diverted to the backup next hop kept in the expanded routing table
(Table V).
"""

from __future__ import annotations

from typing import Dict, List

from repro.utils.ewma import Ewma
from repro.utils.validation import require_positive

#: range check ``(name, value)`` of the overload factor ``theta``; the
#: DTN-FLOW config applies the same one to its key
check_theta = require_positive


class LinkLoadMonitor:
    """Per-landmark, per-link in/out rate tracking with time-unit folding."""

    def __init__(
        self,
        time_unit: float,
        *,
        theta: float = 2.0,
        rho: float = 0.5,
        min_in_rate: float = 1.0,
        start_time: float = 0.0,
    ) -> None:
        require_positive("time_unit", time_unit)
        check_theta("theta", theta)
        require_positive("min_in_rate", min_in_rate)
        self.time_unit = float(time_unit)
        self.theta = float(theta)
        self.rho = float(rho)
        #: overload needs at least this incoming rate - an idle link whose
        #: outgoing rate happens to be zero is not "overloaded"
        self.min_in_rate = float(min_in_rate)
        self._unit_start = float(start_time)
        self._in_rate: Dict[int, Ewma] = {}
        self._out_rate: Dict[int, Ewma] = {}
        self._in_count: Dict[int, int] = {}
        self._out_count: Dict[int, int] = {}

    # -- time folding ------------------------------------------------------------
    def advance_to(self, t: float) -> None:
        while t >= self._unit_start + self.time_unit:
            links = set(self._in_rate) | set(self._out_rate)
            links |= set(self._in_count) | set(self._out_count)
            for link in links:
                self._in_rate.setdefault(link, Ewma(self.rho)).update(
                    self._in_count.get(link, 0)
                )
                self._out_rate.setdefault(link, Ewma(self.rho)).update(
                    self._out_count.get(link, 0)
                )
            self._in_count.clear()
            self._out_count.clear()
            self._unit_start += self.time_unit

    # -- observations ----------------------------------------------------------------
    def record_assigned(self, next_hop: int, t: float) -> None:
        """A received packet was routed onto the link toward ``next_hop``."""
        self.advance_to(t)
        self._in_count[next_hop] = self._in_count.get(next_hop, 0) + 1

    def record_carried_out(self, next_hop: int, t: float) -> None:
        """A packet was handed to a carrier transiting toward ``next_hop``."""
        self.advance_to(t)
        self._out_count[next_hop] = self._out_count.get(next_hop, 0) + 1

    # -- queries --------------------------------------------------------------------
    def incoming_rate(self, next_hop: int) -> float:
        e = self._in_rate.get(next_hop)
        return e.value if e else 0.0

    def outgoing_rate(self, next_hop: int) -> float:
        e = self._out_rate.get(next_hop)
        return e.value if e else 0.0

    def is_overloaded(self, next_hop: int) -> bool:
        """The paper's condition: in-rate more than ``theta`` x out-rate."""
        in_rate = self.incoming_rate(next_hop)
        if in_rate < self.min_in_rate:
            return False
        return in_rate > self.theta * self.outgoing_rate(next_hop)

    def overloaded_links(self) -> List[int]:
        return sorted(l for l in self._in_rate if self.is_overloaded(l))
