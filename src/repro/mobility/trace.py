"""Trace data model: landmark visit records and node transits.

A DTN mobility trace, after preprocessing, is a sequence of *visit records*:
node ``n`` was associated with landmark ``l`` from ``start`` to ``end``.  All
routing machinery in this library (DTN-FLOW and the baselines) consumes
traces in this form, mirroring how the paper preprocessed the DART and DNET
datasets (Section III-B.1).

Two derived notions:

* a **transit** is a movement of a node from one landmark to the next
  (consecutive visits of the same node at different landmarks);
* a **sojourn** is the time a node stays connected at one landmark
  (``end - start`` of a visit).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

#: ``(time, kind, seq, payload)``; a visit event's payload is its VisitRecord
ReplayEvent = Tuple[float, int, int, object]


class _VisitFields(NamedTuple):
    start: float
    end: float
    node: int
    landmark: int


class VisitRecord(_VisitFields):
    """One node↔landmark association interval.

    A tuple of ``(start, end, node, landmark)``, so a sorted list of
    records replays the trace in time order, and ordering, hashing and
    unpacking run at C speed (trace builds sort and merge records by the
    hundred thousand).
    """

    __slots__ = ()

    def __new__(
        cls, start: float, end: float, node: int, landmark: int
    ) -> "VisitRecord":
        if end < start:
            raise ValueError(
                f"visit ends before it starts: node={node} "
                f"landmark={landmark} [{start}, {end}]"
            )
        return tuple.__new__(cls, (start, end, node, landmark))

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Transit:
    """A node's movement between two consecutive landmark visits."""

    node: int
    src: int
    dst: int
    depart: float  # time the node left ``src`` (end of previous visit)
    arrive: float  # time the node connected to ``dst``

    @property
    def travel_time(self) -> float:
        return self.arrive - self.depart


class Trace:
    """An immutable, time-sorted collection of :class:`VisitRecord`.

    Parameters
    ----------
    records:
        Visit records in any order; they are sorted on construction.
    name:
        Human-readable label ("DART-like", "DNET-like", ...).
    presorted:
        Promise that ``records`` is already in sorted order, skipping the
        O(n log n) re-sort.  Unpickling uses this (``__getstate__`` ships
        the already-sorted list), so every pool worker pays O(n), not
        O(n log n), per trace.

    Notes
    -----
    Node and landmark identifiers are arbitrary non-negative ints; use
    :meth:`n_nodes` / :meth:`n_landmarks` for the count of *distinct* ids and
    :func:`repro.mobility.preprocess.relabel_compact` to compact them.
    """

    def __init__(
        self,
        records: Iterable[VisitRecord],
        name: str = "trace",
        *,
        presorted: bool = False,
    ) -> None:
        self._records: List[VisitRecord] = (
            list(records) if presorted else sorted(records)
        )
        self.name = name
        self._nodes = tuple(sorted({r.node for r in self._records}))
        self._landmarks = tuple(sorted({r.landmark for r in self._records}))
        self._by_node: Dict[int, List[VisitRecord]] = {}
        for rec in self._records:
            self._by_node.setdefault(rec.node, []).append(rec)
        #: memoized sorted visit events keyed by (start_kind, end_kind);
        #: safe because the record list is immutable after construction
        self._replay_cache: Dict[Tuple[int, int], Tuple[ReplayEvent, ...]] = {}
        #: number of visit-event builds (exposed so tests can assert the
        #: memoization actually skips work on repeated simulations)
        self.n_replay_builds: int = 0
        #: the latest visit end, found on first use (an O(records) scan
        #: the engine would otherwise repeat several times per run)
        self._end_time: Optional[float] = None

    # -- pickling -----------------------------------------------------------------
    # Only the records and the name cross process boundaries; the sorted
    # indexes and the replay cache are rebuilt on unpickle.  This keeps the
    # payload the parallel executor ships to each worker as small as the
    # trace itself.
    def __getstate__(self) -> Dict[str, object]:
        return {"name": self.name, "records": self._records}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__(  # type: ignore[misc]
            state["records"], name=state["name"], presorted=True  # type: ignore[arg-type]
        )

    # -- basic container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[VisitRecord]:
        return iter(self._records)

    def __getitem__(self, idx: int) -> VisitRecord:
        return self._records[idx]

    # -- structure ----------------------------------------------------------------
    @property
    def records(self) -> Sequence[VisitRecord]:
        return tuple(self._records)

    @property
    def nodes(self) -> Tuple[int, ...]:
        return self._nodes

    @property
    def landmarks(self) -> Tuple[int, ...]:
        return self._landmarks

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_landmarks(self) -> int:
        return len(self._landmarks)

    @property
    def start_time(self) -> float:
        if not self._records:
            return 0.0
        return self._records[0].start

    @property
    def end_time(self) -> float:
        end = self._end_time
        if end is None:
            end = max((r.end for r in self._records), default=0.0)
            self._end_time = end
        return end

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def visits_of(self, node: int) -> Sequence[VisitRecord]:
        """All visits of ``node`` in time order (empty if unknown node)."""
        return tuple(self._by_node.get(node, ()))

    def visit_sequence(self, node: int) -> List[int]:
        """The landmark-id sequence visited by ``node`` (Markov input)."""
        return [r.landmark for r in self._by_node.get(node, ())]

    def replay_events(
        self,
        start_kind: int,
        end_kind: int,
        extra: Sequence[ReplayEvent] = (),
    ) -> Sequence[ReplayEvent]:
        """The trace's visit events, sorted, with ``extra`` merged in.

        The sorted visit events (:func:`visit_events` over the records)
        depend only on the trace, so they are memoized per ``(start_kind,
        end_kind)`` pair and repeated simulations of the same trace skip
        the rebuild.  Without ``extra`` the memoized tuple itself is
        returned (read-only); with a sorted ``extra`` (the run's own
        events, seqs from ``2 * len(trace)`` on) the result is a new list
        of both: one sort of two sorted runs, which Python's sort merges
        in a single linear pass.

        Raises the :class:`ValueError` of :func:`visit_events` on NaN
        timestamps or ``end_kind >= start_kind``.
        """
        key = (start_kind, end_kind)
        visits = self._replay_cache.get(key)
        if visits is None:
            visits = tuple(
                visit_events(self._records, start_kind, end_kind, name=self.name)
            )
            self._replay_cache[key] = visits
            self.n_replay_builds += 1
        if not extra:
            return visits
        events = list(visits)
        events += extra
        events.sort()
        return events

    # -- derived quantities ---------------------------------------------------------
    def transits(self) -> List[Transit]:
        """All landmark-to-landmark transits, over all nodes, in node order.

        Consecutive visits at the *same* landmark do not form a transit (the
        preprocessing pipeline merges them, but a raw trace may still contain
        them; they are skipped here to keep the definition robust).
        """
        out: List[Transit] = []
        for node, visits in self._by_node.items():
            for prev, cur in zip(visits, visits[1:]):
                if prev.landmark == cur.landmark:
                    continue
                out.append(
                    Transit(
                        node=node,
                        src=prev.landmark,
                        dst=cur.landmark,
                        depart=prev.end,
                        arrive=cur.start,
                    )
                )
        return out

    def split_at(self, t: float) -> Tuple["Trace", "Trace"]:
        """Split into (records starting before ``t``, records starting at/after).

        Used to carve out the warm-up prefix (the paper uses the first 1/4 of
        each trace to initialise routing tables, Section V-A.1).
        """
        before = [r for r in self._records if r.start < t]
        after = [r for r in self._records if r.start >= t]
        return (
            Trace(before, name=f"{self.name}[:{t:g}]"),
            Trace(after, name=f"{self.name}[{t:g}:]"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace(name={self.name!r}, records={len(self)}, "
            f"nodes={self.n_nodes}, landmarks={self.n_landmarks}, "
            f"span=[{self.start_time:g}, {self.end_time:g}])"
        )


def visit_events(
    records: Iterable[VisitRecord],
    start_kind: int,
    end_kind: int,
    extra: Sequence[ReplayEvent] = (),
    *,
    name: str = "trace",
) -> Iterator[ReplayEvent]:
    """The engine's visit events for start-ordered ``records``, sorted.

    Record ``i`` (in ``records`` order) contributes ``(start, start_kind,
    2i, rec)`` and ``(end, end_kind, 2i+1, rec)``; they are yielded in
    ``(time, kind, seq)`` order, with ``extra`` — a sorted sequence of
    the run's other events (packet births, probes, fault edges:
    ``(time, kind, seq, payload)`` with seqs from ``2 * len(records)``
    on) — interleaved.  Both :meth:`Trace.replay_events` (memoized) and
    :meth:`~repro.mobility.stream.TraceStream.replay_events` (streamed)
    are this function.

    Correctness: records arrive in start order and a visit ends no
    earlier than it starts, so once a record starting at ``s`` is read,
    every event of the records still to come sorts after every event at
    an earlier instant.  The ends of the visits read so far are held in a
    min-heap and the starts at the latest instant in ``group``; when a
    record at a later instant arrives, the group is complete.  Its starts
    are contiguous in sort order (ends sort before starts at equal time,
    since ``end_kind < start_kind``, and seqs only break ties), so every
    held end and ``extra`` event below the group's first start is yielded,
    in merged order, and then the group.  Holding the starts until the
    instant is complete puts a zero-length visit's end before the starts
    read earlier at the same instant.  The heap holds one entry per open
    visit — O(concurrent visits), not O(records).  Every seq is unique,
    so no comparison reaches a payload and the merged order is the one a
    sort of all the events gives.

    Raises
    ------
    ValueError
        If ``end_kind >= start_kind``, or a start time is out of order or
        NaN, or an end time is NaN — corrupt timestamps that would
        otherwise silently produce an out-of-order schedule.
    """
    if not end_kind < start_kind:
        raise ValueError(
            f"replay needs end_kind < start_kind (got {end_kind} >= "
            f"{start_kind}): ends at equal timestamps must sort before starts"
        )
    heap: List[ReplayEvent] = []  # the ends of the visits read so far
    group: List[ReplayEvent] = []  # the starts at instant ``prev_start``
    push, pop = heapq.heappush, heapq.heappop
    # the head of ``extra``; past its end, a sentinel every event sorts below
    n_extra = len(extra)
    k = 0
    nxt = extra[0] if n_extra else _LAST
    seq = 0
    prev_start = -math.inf
    for rec in records:
        start = rec.start
        # negated >= so NaN timestamps (all comparisons False) are caught
        # too, not just strict disorder
        if not (start >= prev_start):
            raise ValueError(
                f"non-monotonic visit times in trace {name!r}: record "
                f"{seq // 2} starts at {start} after a record starting at "
                f"{prev_start}"
            )
        if not (rec.end >= start):
            raise ValueError(
                f"non-monotonic visit times in trace {name!r}: record "
                f"{seq // 2} ends at {rec.end}, before its start {start}"
            )
        if start != prev_start and group:
            # the previous instant is complete: what sorts below its
            # starts goes first; tuple compare never reaches a payload
            first = group[0]
            while True:
                if heap and heap[0] < nxt:
                    if not heap[0] < first:
                        break
                    yield pop(heap)
                elif nxt < first:
                    yield nxt
                    k += 1
                    nxt = extra[k] if k < n_extra else _LAST
                else:
                    break
            yield from group
            group = []
        prev_start = start
        group.append((start, start_kind, seq, rec))
        push(heap, (rec.end, end_kind, seq + 1, rec))
        seq += 2
    # the records are done: the held ends, the last instant's starts and
    # the rest of ``extra`` are all that is left, and one sort orders them
    heap += group
    heap += extra[k:]
    heap.sort()
    yield from heap


#: sorts after every replay event: ``inf`` ties only an infinite timestamp,
#: and then ``inf`` beats any event kind
_LAST = (math.inf, math.inf)


SECONDS_PER_DAY = 86400.0


def days(x: float) -> float:
    """Convert days to seconds (trace timestamps are in seconds)."""
    return x * SECONDS_PER_DAY


def hours(x: float) -> float:
    """Convert hours to seconds."""
    return x * 3600.0
