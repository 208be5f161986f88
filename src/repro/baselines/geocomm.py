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
        #: node -> index of the time unit of its first visit
        self._first_unit: Dict[int, int] = {}

    def __setstate__(self, state: Dict[str, object]) -> None:
        # checkpoints written before the first unit was kept hold the
        # first-visit times instead
        state = dict(state)
        first_seen = state.pop("_first_seen", None)
        self.__dict__.update(state)
        if first_seen is not None:
            self._first_unit = {
                nid: int(t // TIME_UNIT) for nid, t in first_seen.items()
            }

    # -- learning ---------------------------------------------------------------
    def learn_visit(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        unit = int(t // TIME_UNIT)
        self._first_unit.setdefault(node.nid, unit)
        units = self._contact_units.setdefault(node.nid, {})
        units.setdefault(station.lid, set()).add(unit)

    # -- utility --------------------------------------------------------------------
    def contact_probability(self, nid: int, dest: int, t: float) -> float:
        """Fraction of elapsed time units containing a contact with ``dest``."""
        first = self._first_unit.get(nid)
        if first is None:
            return 0.0
        elapsed_units = int(t // TIME_UNIT) - first + 1
        if elapsed_units < 1:
            elapsed_units = 1
        contacted = self._contact_units.get(nid)
        units = contacted.get(dest, ()) if contacted is not None else ()
        return min(1.0, len(units) / elapsed_units)

    def utility(self, world: World, node: MobileNode, dest: int, t: float) -> float:
        return self.contact_probability(node.nid, dest, t)

    def table_size(self, world: World, node: MobileNode) -> int:
        return max(1, len(self._contact_units.get(node.nid, ())))
