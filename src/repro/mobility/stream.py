"""Streaming trace production and subarea partitioning.

A :class:`~repro.mobility.trace.Trace` materializes every
:class:`~repro.mobility.trace.VisitRecord` up front.  This module adds the
streaming counterpart:

* :class:`TraceStream` — a re-iterable, time-ordered record stream with
  explicit metadata (span, node/landmark sets) whose
  :meth:`TraceStream.replay_events` streams the engine's event tuples
  through :func:`~repro.mobility.trace.visit_events`, the same sorted
  merge a :class:`~repro.mobility.trace.Trace` memoizes, with the run's
  packet births, probes and fault edges interleaved;
* ``CampusMobilityModel.stream_visits`` / ``BusMobilityModel.stream_visits``
  (defined in :mod:`repro.mobility.synthetic`) produce such streams one
  simulated day at a time, every node's records of a day sorted together
  — one day of records in memory instead of the whole trace;
* :func:`landmark_partition`, which assigns landmarks (subareas) to the
  shards of the sharded kernel (:mod:`repro.eval.sharded`).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.mobility.trace import ReplayEvent, Trace, VisitRecord, visit_events

__all__ = ["TraceStream", "landmark_partition"]

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

    def replay_events(
        self,
        start_kind: int,
        end_kind: int,
        extra: Sequence[ReplayEvent] = (),
    ) -> Iterator[ReplayEvent]:
        """The engine's visit events, streamed in sorted order.

        :func:`~repro.mobility.trace.visit_events` over one fresh pass of
        the source: the events, seqs and :class:`ValueError` of
        :meth:`Trace.replay_events`, with the sorted ``extra`` interleaved
        as the replay yields and only the open visits held in memory.
        """
        return visit_events(
            self._source(), start_kind, end_kind, extra, name=self.name
        )


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
