"""Bounded packet buffers.

Mobile nodes have limited memory (the Section V experiments sweep it from
1200 kB to 3000 kB); landmark central stations are modelled with unbounded
storage ("the memory of the landmark was not limited").

The buffer enforces the capacity invariant at every mutation — a transfer
that would overflow is refused and the packet stays with its current holder,
which is how limited memory throttles throughput in the experiments.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sim.packets import Packet
from repro.utils.validation import require_positive


class PacketBuffer:
    """A capacity-limited packet store keyed by packet id.

    Alongside the id-keyed store, the buffer keeps a lazy min-heap of
    ``(deadline, pid)`` pairs so the engine's per-event expiry sweep is an
    O(1) peek in the (overwhelmingly common) case where nothing has expired
    yet: every held packet has an entry, so the top entry's deadline bounds
    them all.  Entries for removed packets are left in the heap until they
    surface; a removal then pops them, so the top entry is a held packet's
    — replicas share their original's pid *and* deadline, so a surviving
    pid always vouches for the deadline stored with it.

    Parameters
    ----------
    capacity_bytes:
        Maximum total packet bytes held; ``math.inf`` for landmark stations.
    """

    __slots__ = ("capacity_bytes", "_packets", "_used", "_expiry")

    def __init__(self, capacity_bytes: float = math.inf) -> None:
        if capacity_bytes != math.inf:
            require_positive("capacity_bytes", capacity_bytes)
        self.capacity_bytes = capacity_bytes
        self._packets: Dict[int, Packet] = {}
        self._used = 0
        self._expiry: List[Tuple[float, int]] = []

    # -- capacity --------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._used

    def can_accept(self, packet: Packet) -> bool:
        return (
            packet.size <= self.capacity_bytes - self._used
            and packet.pid not in self._packets
        )

    # -- mutation ---------------------------------------------------------------
    def add(self, packet: Packet) -> bool:
        """Insert ``packet``; returns False (and leaves state unchanged) when
        it does not fit or is already present."""
        pid = packet.pid
        if packet.size > self.capacity_bytes - self._used or pid in self._packets:
            return False
        self._packets[pid] = packet
        self._used += packet.size
        heappush(self._expiry, (packet.deadline, pid))
        return True

    def remove(self, pid: int) -> Optional[Packet]:
        """Remove and return the packet with id ``pid`` (None if absent)."""
        packets = self._packets
        p = packets.pop(pid, None)
        if p is not None:
            self._used -= p.size
            # drop the stale entries this exposes at the top of the heap,
            # which the expiry peek would otherwise hold until they expire
            expiry = self._expiry
            while expiry and expiry[0][1] not in packets:
                heappop(expiry)
        return p

    def pop_expired(self, now: float) -> List[Packet]:
        """Remove and return all packets past their deadline at ``now``.

        Returns at once, O(1), while the expiry heap's top deadline has not
        passed: it bounds every held packet's.  Otherwise it scans in
        insertion order, so the drop sequence is the historical full
        scan's.
        """
        expiry = self._expiry
        if not expiry or now <= expiry[0][0]:
            return []
        dead = [p for p in self._packets.values() if now > p.deadline]
        for p in dead:
            self.remove(p.pid)
        return dead

    def clear(self) -> List[Packet]:
        """Remove and return everything."""
        out = list(self._packets.values())
        self._packets.clear()
        self._used = 0
        self._expiry.clear()
        return out

    # -- queries ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._packets)

    def __contains__(self, pid: int) -> bool:
        return pid in self._packets

    def __iter__(self) -> Iterator[Packet]:
        return iter(list(self._packets.values()))

    def get(self, pid: int) -> Optional[Packet]:
        return self._packets.get(pid)

    def packets(self) -> List[Packet]:
        """Stable snapshot list (safe to mutate the buffer while iterating)."""
        return list(self._packets.values())

    def packets_for(self, dst: int) -> List[Packet]:
        return [p for p in self._packets.values() if p.dst == dst]
