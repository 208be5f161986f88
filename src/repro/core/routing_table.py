"""Distance-vector routing tables on landmarks (Section IV-C.2, Table IV/V).

Each landmark builds a routing table mapping every known destination landmark
to the next-hop neighbour landmark and the overall expected delay.  Tables
are exchanged between neighbour landmarks *through mobile nodes*: a node
departing landmark ``A`` carries a snapshot of ``A``'s table and delivers it
to whatever landmark it connects to next.

The merge rule is the classic distance-vector relaxation, with the paper's
staleness check: a received table older (by time-unit sequence) than the last
one received from the same neighbour is discarded.

For the load-balancing extension (Section IV-E.3, Table V) every entry also
tracks a *backup* next hop: the neighbour offering the second-lowest overall
delay via a different next hop.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.utils.validation import require_in_range

#: range check ``(name, value)`` of the next-hop switch hysteresis; the
#: DTN-FLOW config applies the same one to its key
check_hysteresis = partial(require_in_range, low=0.0, high=1.0, inclusive_low=False)


class _RouteFields(NamedTuple):
    dest: int
    next_hop: int
    delay: float
    backup_next_hop: Optional[int] = None
    backup_delay: float = math.inf


class RouteEntry(_RouteFields):
    """One routing-table row (Table V layout: primary + backup next hop).

    A tuple of ``(dest, next_hop, delay, backup_next_hop, backup_delay)``:
    built without a frozen dataclass's per-field ``object.__setattr__`` (a
    run builds tens of thousands), and compared, hashed and pickled as a
    tuple.
    """

    __slots__ = ()

    def __new__(
        cls,
        dest: int,
        next_hop: int,
        delay: float,
        backup_next_hop: Optional[int] = None,
        backup_delay: float = math.inf,
    ) -> "RouteEntry":
        if delay < 0:
            raise ValueError(f"negative delay for dest {dest}: {delay}")
        # NB: within the table's switch hysteresis band the backup may carry
        # a marginally lower delay than the primary (a near-equal alternative
        # that was not worth switching to), so no ordering invariant here.
        return tuple.__new__(cls, (dest, next_hop, delay, backup_next_hop, backup_delay))


class TableSnapshot(NamedTuple):
    """An immutable copy of a landmark's table, as carried by mobile nodes."""

    origin: int
    seq: int
    entries: Tuple[RouteEntry, ...]

    @property
    def n_entries(self) -> int:
        return len(self.entries)


class RoutingTable:
    """The mutable distance-vector table living on one landmark.

    ``switch_hysteresis`` damps next-hop churn: an alternative next hop
    replaces the current one only when its delay is better by that factor
    (e.g. 0.9 = at least 10 % better).  Measured link delays drift with
    every EWMA fold, so without hysteresis next hops flap between
    near-equal paths — hurting both the Fig. 8 stability metric and packets
    in flight (their carriers chase a moving target).
    """

    def __init__(self, landmark_id: int, *, switch_hysteresis: float = 0.9) -> None:
        check_hysteresis("switch_hysteresis", switch_hysteresis)
        self.landmark_id = landmark_id
        self.switch_hysteresis = switch_hysteresis
        self._entries: Dict[int, RouteEntry] = {}
        # freshest table seq seen per neighbour (staleness check)
        self._neighbor_seq: Dict[int, int] = {}
        #: moves when an entry changes (a write that would rebuild an equal
        #: entry returns first); the sorted-entries cache behind
        #: :meth:`entries` and :meth:`snapshot` is keyed on it
        self.version = 0
        self._entries_cache_version = -1
        self._entries_cache: Tuple[RouteEntry, ...] = ()

    # -- local link updates -------------------------------------------------------
    def set_direct_link(self, neighbor: int, delay: float) -> None:
        """(Re)initialise the direct route to a neighbour landmark.

        Called whenever the bandwidth estimator refreshes the expected link
        delay.  If the direct route beats the current entry (or the current
        entry routes via this neighbour), it replaces it.
        """
        if neighbor == self.landmark_id:
            return
        cur = self._entries.get(neighbor)
        if cur is None:
            self._entries[neighbor] = RouteEntry(neighbor, neighbor, delay)
            self.version += 1
            return
        _, cur_hop, cur_delay, backup_hop, backup_delay = cur
        if cur_hop != neighbor:
            if delay >= cur_delay:
                # a learned multi-hop route is better; keep the direct link
                # as the backup alternative
                self._offer_route(neighbor, neighbor, delay)
            elif delay < cur_delay:  # not ``else``: a NaN delay takes neither
                # the direct link beats the learned route, which becomes the
                # backup (never swapped back: hysteresis * delay < cur_delay)
                self._entries[neighbor] = RouteEntry(
                    neighbor, neighbor, delay, cur_hop, cur_delay
                )
                self.version += 1
            return
        if backup_hop is not None and backup_delay < self.switch_hysteresis * delay:
            # direct link got clearly worse than the alternative: swap
            self._entries[neighbor] = RouteEntry(
                neighbor, backup_hop, backup_delay, neighbor, delay
            )
        elif delay == cur_delay:
            return  # the refresh measured the same delay: entry unchanged
        else:
            self._entries[neighbor] = RouteEntry(
                neighbor, neighbor, delay, backup_hop, backup_delay
            )
        self.version += 1

    # -- distance-vector merging ------------------------------------------------
    def merge_snapshot(self, snap: TableSnapshot, link_delay: float) -> bool:
        """Merge a neighbour's table snapshot (Fig. 7's update procedure).

        ``link_delay`` is this landmark's expected delay to reach the
        snapshot's origin.  Returns False when the snapshot is stale (its
        ``seq`` is not newer than the last accepted one from that origin).
        """
        last = self._neighbor_seq.get(snap.origin)
        if last is not None and snap.seq < last:
            return False
        self._neighbor_seq[snap.origin] = snap.seq

        via = snap.origin
        for remote in snap.entries:
            dest = remote.dest
            if dest == self.landmark_id:
                continue
            # split horizon: ignore routes the neighbour has *through us*
            if remote.next_hop == self.landmark_id:
                continue
            total = link_delay + remote.delay
            self._offer_route(dest, via, total)
        # the origin itself is reachable over the direct link
        self._offer_route(via, via, link_delay)
        return True

    def _offer_route(self, dest: int, via: int, delay: float) -> None:
        """Consider routing to ``dest`` through neighbour ``via``."""
        cur = self._entries.get(dest)
        if cur is None:
            self._entries[dest] = RouteEntry(dest, via, delay)
            self.version += 1
            return
        _, cur_hop, cur_delay, backup_hop, backup_delay = cur
        if via == cur_hop:
            # fresher info over the same next hop replaces the delay outright
            if delay == cur_delay:
                return  # the same delay again: entry unchanged
            if backup_hop is not None and backup_delay < self.switch_hysteresis * delay:
                self._entries[dest] = RouteEntry(
                    dest, backup_hop, backup_delay, via, delay
                )
            else:
                self._entries[dest] = RouteEntry(
                    dest, via, delay, backup_hop, backup_delay
                )
        elif delay < self.switch_hysteresis * cur_delay:
            # clearly better: new primary; old primary becomes the backup
            self._entries[dest] = RouteEntry(dest, via, delay, cur_hop, cur_delay)
        elif via == backup_hop and delay == backup_delay:
            return  # the offer repeats the backup route: entry unchanged
        elif via == backup_hop or delay < backup_delay:
            self._entries[dest] = RouteEntry(dest, cur_hop, cur_delay, via, delay)
        else:
            return
        self.version += 1

    # -- queries --------------------------------------------------------------------
    def lookup(self, dest: int) -> Optional[RouteEntry]:
        """The routing entry for ``dest`` (None when unknown)."""
        return self._entries.get(dest)

    def next_hop(self, dest: int) -> Optional[int]:
        entry = self._entries.get(dest)
        return entry.next_hop if entry else None

    def delay_to(self, dest: int) -> float:
        """Expected overall delay to ``dest`` (inf when unknown)."""
        if dest == self.landmark_id:
            return 0.0
        entry = self._entries.get(dest)
        return entry.delay if entry else math.inf

    def __len__(self) -> int:
        return len(self._entries)

    def _sorted_entries(self) -> Tuple[RouteEntry, ...]:
        if self._entries_cache_version != self.version:
            entries = self._entries
            self._entries_cache = tuple([entries[d] for d in sorted(entries)])
            self._entries_cache_version = self.version
        return self._entries_cache

    def entries(self) -> List[RouteEntry]:
        return list(self._sorted_entries())

    # -- snapshots -----------------------------------------------------------------
    def snapshot(self, seq: int) -> TableSnapshot:
        """Produce the immutable copy handed to departing mobile nodes."""
        return TableSnapshot(self.landmark_id, seq, self._sorted_entries())

    # -- Fig. 8 metrics -------------------------------------------------------------
    def coverage(self, n_landmarks: int) -> float:
        """Fraction of all other landmarks this table can route to."""
        if n_landmarks <= 1:
            return 1.0
        return len(self._entries) / (n_landmarks - 1)

    def stability_against(self, previous: Dict[int, int]) -> float:
        """1 - (fraction of destinations whose next hop changed).

        ``previous`` maps destination -> next hop at the earlier observation
        point; destinations new since then do not count as changes (matching
        the paper's definition based on changed next-hop landmarks).
        """
        if not previous:
            return 1.0
        changed = sum(
            1
            for dest, hop in previous.items()
            if dest in self._entries and self._entries[dest].next_hop != hop
        )
        return 1.0 - changed / len(previous)

    def next_hop_map(self) -> Dict[int, int]:
        """Destination -> next hop snapshot for stability tracking."""
        return {d: e.next_hop for d, e in self._entries.items()}

    # -- loop correction support (Section IV-E.2) -----------------------------------
    def drop_destination(self, dest: int) -> None:
        """Forget the route to ``dest`` (used when correcting loops)."""
        if self._entries.pop(dest, None) is not None:
            self.version += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = ", ".join(
            f"{e.dest}->{e.next_hop}({e.delay:.3g})" for e in self.entries()[:6]
        )
        more = "..." if len(self) > 6 else ""
        return f"RoutingTable(L{self.landmark_id}: {rows}{more})"
