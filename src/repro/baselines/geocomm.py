"""GeoComm adapted to landmark destinations (Fan et al., TPDS 2013).

GeoComm computes, for every (node, geocommunity) pair, the node's *contact
probability per unit time* with the geocommunity — here, the probability
that the node contacts the landmark during a time unit, estimated as the
fraction of elapsed time units in which a contact occurred.  That
geocentrality drives forwarding: packets flow to nodes with a higher contact
probability for the destination landmark.

As the paper observes, a bus staying equally long at every stop on its route
has a nearly *uniform* contact probability across them, so this utility
separates carriers worse than PROPHET/SimBet on the DNET-like trace — the
behaviour behind GeoComm's lower relative success rate there.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.baselines.base import UtilityProtocol
from repro.mobility.trace import days
from repro.sim.engine import World
from repro.sim.entities import LandmarkStation, MobileNode

#: the time unit of the per-unit contact probability
TIME_UNIT = days(0.5)


class GeoCommProtocol(UtilityProtocol):
    """GeoComm with landmark destinations."""

    name = "GeoComm"

    def __init__(self) -> None:
        #: node -> landmark -> set of time-unit indices with a contact
        self._contact_units: Dict[int, Dict[int, Set[int]]] = {}
        self._first_seen: Dict[int, float] = {}

    def _unit_of(self, t: float) -> int:
        return int(t // TIME_UNIT)

    # -- learning ---------------------------------------------------------------
    def learn_visit(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        self._first_seen.setdefault(node.nid, t)
        units = self._contact_units.setdefault(node.nid, {})
        units.setdefault(station.lid, set()).add(self._unit_of(t))

    # -- utility --------------------------------------------------------------------
    def contact_probability(self, nid: int, dest: int, t: float) -> float:
        """Fraction of elapsed time units containing a contact with ``dest``."""
        first = self._first_seen.get(nid)
        if first is None:
            return 0.0
        unit = TIME_UNIT  # _unit_of inlined on this per-packet path
        elapsed_units = int(t // unit) - int(first // unit) + 1
        if elapsed_units < 1:
            elapsed_units = 1
        contacted = self._contact_units.get(nid)
        units = contacted.get(dest, ()) if contacted is not None else ()
        return min(1.0, len(units) / elapsed_units)

    def utility(self, world: World, node: MobileNode, dest: int, t: float) -> float:
        return self.contact_probability(node.nid, dest, t)

    def table_size(self, world: World, node: MobileNode) -> int:
        return max(1, len(self._contact_units.get(node.nid, ())))
