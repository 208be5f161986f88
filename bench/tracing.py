"""Bench-side tracing: ``setattr`` wrappers around each layer's public calls.

Nothing inside ``src/`` records spans.  :func:`install` swaps the public
functions and methods listed by :func:`targets` for wrappers that record
into a :class:`Tracer`, and returns an undo callback restoring the
originals.  The wrappers live in this process only: pool workers, shard
workers and server subprocesses never see them, which is why the traced
pass of every workload runs its pool and served phases in-process and
serially.

Spans aggregate by call path: all calls of one function under the same
parent span fold into one record with a call ``count``, the first call's
``start`` and the last call's ``end`` — bounded memory however hot the
function.  A span's self time is its total time minus the time of its
direct children.
"""

from __future__ import annotations

import functools
import sys
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "count",
                 "total", "self_time")

    def __init__(self, id: int, name: str, parent: Optional[int], thread: int) -> None:
        self.id = id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = float("inf")
        self.end = float("-inf")
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; one stack of open calls per thread."""

    def __init__(self) -> None:
        self.t0 = perf_counter()
        self.spans: List[Span] = []
        self._index: Dict[Tuple[Optional[int], str, int], Span] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def enter(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1][0].id if stack else None
        # root spans are per thread, so no two threads ever mutate one span
        thread = threading.get_ident() if parent is None else 0
        key = (parent, name, thread)
        span = self._index.get(key)
        if span is None:
            with self._lock:
                span = self._index.get(key)
                if span is None:
                    span = Span(len(self.spans), name, parent, threading.get_ident())
                    self.spans.append(span)
                    self._index[key] = span
        frame = [span, perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._local.stack
        stack.pop()
        span, start, child = frame
        duration = end - start
        span.count += 1
        span.total += duration
        span.self_time += duration - child
        if start < span.start:
            span.start = start
        if end > span.end:
            span.end = end
        if stack:
            stack[-1][2] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A bench-side span around a block (e.g. one stream pass)."""
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    # -- reports -------------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.total for s in self.named(name))

    def self_seconds(self, name: str) -> float:
        return sum(s.self_time for s in self.named(name))

    def count(self, name: str) -> int:
        return sum(s.count for s in self.named(name))

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Self seconds and call count per layer (first name component)."""
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.layer, {"self_s": 0.0, "count": 0})
            row["self_s"] += s.self_time
            row["count"] += s.count
        return out

    def dump(self) -> List[Dict[str, Any]]:
        return [
            {
                "id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread,
                "start": s.start - self.t0, "end": s.end - self.t0,
                "count": s.count, "total_s": s.total, "self_s": s.self_time,
            }
            for s in self.spans
            if s.count
        ]


SpanName = Union[str, Callable[[Any], str]]


def _wrap(tracer: Tracer, fn: Callable, name: SpanName) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit
    if callable(name):
        namer = name

        @functools.wraps(fn)
        def method_wrapper(self, *args, **kwargs):
            frame = enter(namer(self))
            try:
                return fn(self, *args, **kwargs)
            finally:
                exit_(frame)

        return method_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_(frame)

    return wrapper


def _baseline_name(protocol: Any) -> str:
    return f"baselines.{protocol.name}.hook"


_HOOKS = ("on_visit_start", "on_contact", "on_visit_end", "on_packet_generated")


def targets() -> List[Tuple[Any, str, SpanName]]:
    """``(owner, attribute, span name)`` for every wrapped call.

    ``owner`` is a class (method wrapped in its own ``__dict__``) or a
    module (function rebound in every ``repro`` module importing it).
    """
    from repro.baselines import (
        GeoCommProtocol, PERProtocol, PGRProtocol, ProphetProtocol,
        SimBetProtocol, UtilityProtocol,
    )
    from repro.core.router import DTNFlowProtocol
    from repro.core.routing_table import RoutingTable
    from repro.eval import experiment, resume, runner, sharded
    from repro.serve.client import ServeClient
    from repro.serve.jobs import JobManager
    from repro.sim import checkpoint
    from repro.sim.engine import Simulation, World
    from repro.store import ingest

    out: List[Tuple[Any, str, SpanName]] = [
        (runner.TraceSpec, "materialize", "mobility.trace_build"),
        (Simulation, "run", "engine.run"),
        (Simulation, "run_checkpointed", "engine.run"),
        (Simulation, "_handle_visit_start", "engine.dispatch"),
        (Simulation, "_handle_visit_end", "engine.dispatch"),
        (Simulation, "_handle_generation", "engine.dispatch"),
        (Simulation, "_handle_fault_edge", "engine.dispatch"),
        (World, "node_to_station", "engine.transfer"),
        (World, "station_to_node", "engine.transfer"),
        (World, "node_to_node", "engine.transfer"),
        (RoutingTable, "merge_snapshot", "core.table_merge"),
        (runner, "run_point_specs", "runner.run_point_specs"),
        (experiment, "execute_config", "runner.execute_config"),
        (sharded, "plan_shards", "shard.plan"),
        (checkpoint.SerialCheckpointer, "_save", "checkpoint.save"),
        (checkpoint, "snapshot_simulation", "checkpoint.snapshot"),
        (checkpoint, "write_frame", "checkpoint.write"),
        # restore() also runs (as a no-op) at every fresh start; the
        # install call counts the restores that actually happened
        (checkpoint.SerialCheckpointer, "restore", "checkpoint.restore"),
        (checkpoint, "restore_simulation", "checkpoint.install"),
        (resume, "create_run", "resume.create_run"),
        (resume, "run_resumable", "resume.run_resumable"),
        (resume, "resume_run", "resume.resume_run"),
        (ServeClient, "submit", "serve.submit"),
        (JobManager, "_execute", "serve.execute"),
        (ingest, "ingest_scenario_result", "store.ingest"),
    ]
    out += [(DTNFlowProtocol, h, "core.dtnflow.hook") for h in _HOOKS]
    for cls in (UtilityProtocol, SimBetProtocol, ProphetProtocol, PGRProtocol,
                GeoCommProtocol, PERProtocol):
        out += [(cls, h, _baseline_name) for h in _HOOKS if h in vars(cls)]
    return out


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns the undo callback."""
    undo: List[Tuple[Any, str, Any]] = []
    for owner, attr, name in targets():
        if isinstance(owner, type):
            original = vars(owner)[attr]
            setattr(owner, attr, _wrap(tracer, original, name))
            undo.append((owner, attr, original))
            continue
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, original, name)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                    getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                undo.append((mod, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    restore = install(tracer)
    try:
        yield tracer
    finally:
        restore()


def layer_rows(layers: Dict[str, Dict[str, float]], wall: float) -> List[str]:
    """Per-layer self seconds, call count and share of the traced wall."""
    rows = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"  {'layer':<12} {'self_s':>9} {'count':>10} {'share':>7}"]
    for layer, row in rows:
        share = row["self_s"] / wall if wall > 0 else 0.0
        lines.append(
            f"  {layer:<12} {row['self_s']:>9.3f} {int(row['count']):>10d} "
            f"{share:>7.1%}"
        )
    return lines
