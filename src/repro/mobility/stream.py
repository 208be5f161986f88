"""Streaming trace production and subarea partitioning.

A :class:`~repro.mobility.trace.Trace` materializes every
:class:`~repro.mobility.trace.VisitRecord` up front — fine for the paper's
DART/DNET scale, a hard wall for the ROADMAP's millions-of-users target.
This module adds the streaming counterpart:

* :class:`TraceStream` — a re-iterable, time-ordered record stream with
  explicit metadata (span, node/landmark sets), a streaming
  :meth:`TraceStream.replay_events` that emits the engine's event tuples,
  with the run's packet births, probes and fault edges interleaved, in
  exactly the order the serial engine's global sort would produce
  (proved in the method docstring), and chunked iteration;
* ``CampusMobilityModel.stream_visits`` / ``BusMobilityModel.stream_visits``
  (defined in :mod:`repro.mobility.synthetic`) produce such streams from
  per-node generators merged with ``heapq.merge`` — O(nodes) memory
  instead of O(records);
* a subarea partitioner (:func:`landmark_partition`,
  :func:`partition_records`) that splits one stream into per-shard streams,
  inserting explicit :class:`~repro.mobility.trace.Transit` records at
  shard boundaries — the only cross-shard traffic, per the paper's
  inter-landmark flow model.
"""

from __future__ import annotations

import heapq
import math
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.mobility.trace import ReplayEvent, Trace, Transit, VisitRecord

__all__ = [
    "TraceStream",
    "landmark_partition",
    "partition_records",
    "iter_shard_records",
]

#: a zero-argument factory returning a fresh, time-ordered record iterator;
#: called once per pass so a stream can be replayed without materializing
RecordSource = Callable[[], Iterable[VisitRecord]]


class TraceStream:
    """A re-iterable, time-ordered visit-record stream with explicit metadata.

    Duck-types the :class:`~repro.mobility.trace.Trace` surface the engine
    reads (``name``/``nodes``/``landmarks``/``start_time``/``end_time``/
    ``duration``/``n_nodes``/``n_landmarks``/``replay_events``/``__len__``)
    without holding the records: each pass re-invokes the ``source``
    factory, so a generated stream costs O(open visits) memory per pass.

    Records must arrive in sorted order (the :class:`VisitRecord` ordering);
    :meth:`iter_records` enforces this so a mis-ordered source fails loudly
    instead of silently corrupting the event schedule.
    """

    def __init__(
        self,
        source: RecordSource,
        *,
        name: str = "stream",
        start_time: float,
        end_time: float,
        nodes: Sequence[int],
        landmarks: Sequence[int],
        n_records: int,
    ) -> None:
        self._source = source
        self.name = name
        self.start_time = float(start_time)
        self.end_time = float(end_time)
        self.nodes: Tuple[int, ...] = tuple(sorted(set(int(n) for n in nodes)))
        self.landmarks: Tuple[int, ...] = tuple(
            sorted(set(int(lm) for lm in landmarks))
        )
        if n_records < 0:
            raise ValueError(f"n_records must be >= 0, got {n_records}")
        self._n_records = int(n_records)

    # -- construction ---------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceStream":
        """Wrap a materialized trace (metadata is already known)."""
        return cls(
            lambda: iter(trace.records),
            name=trace.name,
            start_time=trace.start_time,
            end_time=trace.end_time,
            nodes=trace.nodes,
            landmarks=trace.landmarks,
            n_records=len(trace),
        )

    @classmethod
    def from_source(cls, source: RecordSource, *, name: str = "stream") -> "TraceStream":
        """Build a stream from a record factory, scanning once for metadata.

        The scan holds only the node/landmark id sets — O(nodes + landmarks)
        memory — and validates ordering as it goes.
        """
        nodes: set = set()
        landmarks: set = set()
        n = 0
        start = math.inf
        end = -math.inf
        prev: Optional[VisitRecord] = None
        for rec in source():
            if prev is not None and rec < prev:
                raise ValueError(
                    f"record source for {name!r} is not sorted: "
                    f"{rec} after {prev}"
                )
            prev = rec
            nodes.add(rec.node)
            landmarks.add(rec.landmark)
            if rec.start < start:
                start = rec.start
            if rec.end > end:
                end = rec.end
            n += 1
        if n == 0:
            start = end = 0.0
        return cls(
            source,
            name=name,
            start_time=start,
            end_time=end,
            nodes=sorted(nodes),
            landmarks=sorted(landmarks),
            n_records=n,
        )

    def materialize(self) -> Trace:
        """Collapse the stream into a materialized :class:`Trace`."""
        return Trace(list(self.iter_records()), name=self.name, presorted=True)

    # -- Trace-compatible metadata ----------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_landmarks(self) -> int:
        return len(self.landmarks)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def __len__(self) -> int:
        return self._n_records

    # -- iteration --------------------------------------------------------------------
    def iter_records(self) -> Iterator[VisitRecord]:
        """One fresh pass over the records, verifying sorted order."""
        prev: Optional[VisitRecord] = None
        for rec in self._source():
            if prev is not None and rec < prev:
                raise ValueError(
                    f"record source for {self.name!r} is not sorted: "
                    f"{rec} after {prev}"
                )
            prev = rec
            yield rec

    def __iter__(self) -> Iterator[VisitRecord]:
        return self.iter_records()

    def iter_chunks(self, size: int) -> Iterator[List[VisitRecord]]:
        """The stream in bounded record batches (the last may be short)."""
        if size <= 0:
            raise ValueError(f"chunk size must be positive, got {size}")
        chunk: List[VisitRecord] = []
        for rec in self.iter_records():
            chunk.append(rec)
            if len(chunk) >= size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    def replay_events(
        self,
        start_kind: int,
        end_kind: int,
        extra: Sequence[Tuple[float, int, int, object]] = (),
    ) -> Iterator[Tuple[float, int, int, object]]:
        """The engine's visit events, streamed in globally sorted order.

        Yields ``(time, kind, seq, record)`` tuples with the same sequence
        numbering as :meth:`Trace.replay_events` (record ``i`` gets seqs
        ``2i``/``2i+1``), but already in ``(time, kind, seq)`` sort order so
        the engine can consume them without a global sort.  ``extra`` is a
        sorted list of the run's other events (packet births, probes,
        fault edges: ``(time, kind, seq, payload)`` with seqs from
        ``2 * len(stream)`` on), interleaved as the replay yields.

        Correctness: records stream in start order, so the only events that
        can sort before a start event not yet seen are the *end* events of
        already-open visits.  Those are held in a min-heap; before emitting
        record ``i``'s start we push its own end (a zero-length visit's end
        sorts *before* its start at equal time, since ``end_kind <
        start_kind``) and drain every held event that orders below
        ``(start, start_kind, 2i)``.  The heap holds one entry per open
        visit — O(concurrent visits), not O(records).  The visit events
        thus come out sorted, and so does ``extra``; a cursor into
        ``extra`` yields its head whenever it orders below the next visit
        event (the heap top or the pending start), which is a two-way
        merge of sorted sequences.  Every seq is unique, so no comparison
        reaches a payload and the merged order is the one a sort of all
        the events gives.

        Raises the same :class:`ValueError` as ``Trace.replay_events`` on
        non-monotonic or NaN timestamps.
        """
        if not end_kind < start_kind:
            raise ValueError(
                f"streamed replay needs end_kind < start_kind "
                f"(got {end_kind} >= {start_kind}): ends at equal timestamps "
                "must sort before starts"
            )
        heap: List[ReplayEvent] = []
        push, pop = heapq.heappush, heapq.heappop
        # the head of ``extra``; past its end, a sentinel every event sorts below
        n_extra = len(extra)
        k = 0
        nxt = extra[0] if n_extra else _LAST
        seq = 0
        prev_start = -math.inf
        for rec in self._source():
            start = rec.start
            # negated >= so NaN timestamps (all comparisons False) are
            # caught too, matching Trace.replay_events
            if not (start >= prev_start):
                raise ValueError(
                    f"non-monotonic visit times in stream {self.name!r}: "
                    f"record {seq // 2} starts at {start} after a record "
                    f"starting at {prev_start}"
                )
            if not (rec.end >= start):
                raise ValueError(
                    f"non-monotonic visit times in stream {self.name!r}: "
                    f"record {seq // 2} ends at {rec.end}, before its start "
                    f"{start}"
                )
            prev_start = start
            start_ev: ReplayEvent = (start, start_kind, seq, rec)
            push(heap, (rec.end, end_kind, seq + 1, rec))
            # yield what sorts below the pending start: the next visit event
            # (held end or the start itself) against the head of ``extra``;
            # tuple compare never reaches a payload: seqs are unique
            while True:
                head = heap[0] if heap and heap[0] < start_ev else start_ev
                if nxt < head:
                    yield nxt
                    k += 1
                    nxt = extra[k] if k < n_extra else _LAST
                elif head is start_ev:
                    break
                else:
                    yield pop(heap)
            yield start_ev
            seq += 2
        # the source is done: the held ends and the rest of ``extra`` are
        # all that is left, and one sort orders them
        heap.extend(extra[k:])
        heap.sort()
        yield from heap


#: sorts after every replay event: ``inf`` ties only an infinite timestamp,
#: and then ``inf`` beats any event kind
_LAST = (math.inf, math.inf)


# ---------------------------------------------------------------------------
# Subarea partitioning
# ---------------------------------------------------------------------------


def landmark_partition(
    visit_counts: Mapping[int, int], n_shards: int
) -> Dict[int, int]:
    """Assign each landmark (subarea) to a shard, balancing visit load.

    Deterministic greedy bin-packing: landmarks in decreasing visit-count
    order (ties by landmark id) each go to the currently lightest shard
    (ties by shard index).  Every shard is guaranteed at least one landmark
    when ``n_shards <= len(visit_counts)``; more shards than landmarks is an
    error — a shard with no subarea has nothing to simulate.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    if n_shards > len(visit_counts):
        raise ValueError(
            f"cannot split {len(visit_counts)} landmark(s) into "
            f"{n_shards} shards"
        )
    loads = [0] * n_shards
    assignment: Dict[int, int] = {}
    ordered = sorted(visit_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    for lm, count in ordered:
        shard = min(range(n_shards), key=lambda s: (loads[s], s))
        assignment[lm] = shard
        loads[shard] += count
    return assignment


ShardItem = Union[VisitRecord, Transit]


def partition_records(
    records: Iterable[VisitRecord], shard_of: Mapping[int, int]
) -> Iterator[Tuple[int, ShardItem]]:
    """Split a sorted record stream into per-shard tagged streams.

    One pass, O(nodes) state.  Yields ``(shard, item)`` pairs where an item
    is either a :class:`VisitRecord` (tagged with its landmark's shard) or
    an explicit :class:`Transit` handoff record emitted when consecutive
    visits of one node land on *different* shards — tagged to both sides,
    so the departing shard sees its export and the arriving shard its
    import.  Consecutive same-landmark visits form no transit, matching
    :meth:`Trace.transits`.

    Assumes per-node visits do not overlap (true for every stream the
    mobility models produce); overlap resolution for arbitrary traces lives
    in the sharded-run coordinator, which validates before splitting.
    """
    last: Dict[int, VisitRecord] = {}
    for rec in records:
        shard = shard_of[rec.landmark]
        prev = last.get(rec.node)
        if prev is not None and prev.landmark != rec.landmark:
            prev_shard = shard_of[prev.landmark]
            if prev_shard != shard:
                transit = Transit(
                    node=rec.node,
                    src=prev.landmark,
                    dst=rec.landmark,
                    depart=prev.end,
                    arrive=rec.start,
                )
                yield prev_shard, transit
                yield shard, transit
        last[rec.node] = rec
        yield shard, rec


def iter_shard_records(
    records: Iterable[VisitRecord], shard_of: Mapping[int, int], shard: int
) -> Iterator[ShardItem]:
    """One shard's view of a partitioned stream (records + boundary transits)."""
    for sh, item in partition_records(records, shard_of):
        if sh == shard:
            yield item
