"""Simulation entities: mobile nodes and landmark central stations.

Entities are protocol-agnostic: they own a buffer and connectivity state,
while each routing protocol attaches whatever per-entity state it needs
(Markov predictors, encounter-probability tables, ...) in the ``ext`` dict.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set

from repro.sim.buffers import PacketBuffer


class MobileNode:
    """A mobile device carrying packets between landmarks."""

    __slots__ = (
        "nid",
        "buffer",
        "at_landmark",
        "visit_started",
        "visit_until",
        "prev_landmark",
        "last_depart",
        "n_transits",
        "ext",
    )

    def __init__(self, nid: int, memory_bytes: float) -> None:
        self.nid = nid
        self.buffer = PacketBuffer(capacity_bytes=memory_bytes)
        self.at_landmark: Optional[int] = None
        self.visit_started: float = -math.inf
        self.visit_until: float = -math.inf
        self.prev_landmark: Optional[int] = None
        self.last_depart: float = -math.inf
        self.n_transits: int = 0
        self.ext: Dict[str, object] = {}

    @property
    def connected(self) -> bool:
        return self.at_landmark is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"@L{self.at_landmark}" if self.connected else "(moving)"
        return f"MobileNode(#{self.nid} {where}, {len(self.buffer)} pkts)"


class LandmarkStation:
    """The fixed central station of one landmark/subarea.

    Stations have effectively unlimited storage and processing (paper,
    Section III-A.1) and can talk to every node within their subarea.
    """

    __slots__ = ("lid", "buffer", "connected", "ext")

    def __init__(self, lid: int) -> None:
        self.lid = lid
        self.buffer = PacketBuffer(capacity_bytes=math.inf)
        self.connected: Set[int] = set()
        self.ext: Dict[str, object] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LandmarkStation(L{self.lid}, {len(self.buffer)} pkts, "
            f"{len(self.connected)} nodes)"
        )
