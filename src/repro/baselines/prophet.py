"""PROPHET adapted to landmark destinations (Lindgren et al., 2003).

The paper uses PROPHET to represent probabilistic routing: a node's
delivery predictability toward a landmark is updated on every encounter
with that landmark and aged over time::

    encounter:    P(n,L) <- P(n,L) + (1 - P(n,L)) * P_INIT
    aging:        P(n,L) <- P(n,L) * GAMMA ** (dt / AGING_UNIT)

Classic PROPHET's transitive boost through node-node encounters is left
out: the paper's adaptation "simply employs the visiting records with
landmarks to calculate the future meeting probability" (Section V-A.1).

Packets always flow toward nodes with higher predictability for their
destination landmark, which is the paper's "forwards packets greedily by
only considering meeting frequency" behaviour (high forwarding cost).
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.base import UtilityProtocol
from repro.mobility.trace import days
from repro.sim.engine import World
from repro.sim.entities import LandmarkStation, MobileNode

#: encounter increment, aging base and aging time unit
P_INIT = 0.75
GAMMA = 0.98
AGING_UNIT = days(1.0) / 24.0  # one hour


class _Predictability:
    """One node's aged predictability table toward landmarks."""

    __slots__ = ("p", "last_update")

    def __init__(self) -> None:
        self.p: Dict[int, float] = {}
        self.last_update: Dict[int, float] = {}

    def __setstate__(self, state) -> None:
        # a slotted object unpickles from (None, {slot: value}); checkpoints
        # written while the constants were constructor parameters also
        # carry p_init/gamma/aging_unit slots, which held these values
        slots = state[1]
        self.p = slots["p"]
        self.last_update = slots["last_update"]

    def _aged(self, key: int, t: float) -> float:
        val = self.p.get(key, 0.0)
        if val == 0.0:
            return 0.0
        dt = max(0.0, t - self.last_update.get(key, t))
        return val * GAMMA ** (dt / AGING_UNIT)

    def encounter(self, key: int, t: float) -> None:
        val = self._aged(key, t)
        self.p[key] = val + (1.0 - val) * P_INIT
        self.last_update[key] = t

    def get(self, key: int, t: float) -> float:
        return self._aged(key, t)

    def __len__(self) -> int:
        return len(self.p)


class ProphetProtocol(UtilityProtocol):
    """PROPHET with landmark destinations."""

    name = "PROPHET"

    def __init__(self) -> None:
        self._landmark_p: Dict[int, _Predictability] = {}

    def _lm_table(self, nid: int) -> _Predictability:
        tab = self._landmark_p.get(nid)
        if tab is None:
            tab = _Predictability()
            self._landmark_p[nid] = tab
        return tab

    # -- learning ---------------------------------------------------------------
    def learn_visit(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        self._lm_table(node.nid).encounter(station.lid, t)

    # -- utility --------------------------------------------------------------------
    def utility(self, world: World, node: MobileNode, dest: int, t: float) -> float:
        return self._lm_table(node.nid).get(dest, t)

    def table_size(self, world: World, node: MobileNode) -> int:
        return max(1, len(self._lm_table(node.nid)))
