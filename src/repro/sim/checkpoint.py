"""Crash-safe checkpointing for simulation runs (docs/reliability.md).

The execution plane mirrors the delay-tolerant discipline of the routing
layer it simulates: state only needs to be durable at well-defined
custody-transfer points.  For the engine that point is any event
boundary, taken every N dispatched events.

Three building blocks live here:

* **framed checkpoint files** — ``MAGIC + sha256(payload) + payload``
  written atomically (temp file in the same directory, fsync, then
  ``os.replace``).  A truncated or corrupted file fails the digest check
  and is treated as absent, so recovery falls back to the previous
  complete checkpoint instead of loading garbage;
* **simulation snapshots** — one pickle blob per checkpoint holding the
  entire mutable world (nodes, stations, RNG, metrics collector with its
  registry, packet factory, protocol state).  A single blob preserves
  shared ``Packet`` references, which is what makes a resumed run
  *bit-identical* to an uninterrupted one;
* **run directories** — a ``manifest.json`` hashing the resolved
  scenario, one sub-directory per sweep point (its serial checkpoints), a
  framed result file per completed point, the profile traces the serial checkpoints
  replay, and an append-only ``recovery.jsonl`` event log mirroring
  every recovery action into ``executor.*`` counters.

Protocols participate through ``RoutingProtocol.detach_runtime`` /
``attach_runtime`` (drop and re-wire unpicklable observability closures
around the pickle).  The compiled :class:`~repro.sim.faults.FaultSchedule`
is deliberately *not* pickled — it is stateless and recompiled from the
config — and neither is the trace, so checkpoints stay small.  A resume
re-walks the trace's event stream and skips the events already
dispatched, so a checkpoint only holds against the exact trace it was
taken on: the serial checkpointer writes a built-in profile trace into
the run directory (:meth:`RunDir.write_trace`, the ``repro.mobility.io``
CSV in a frame, its ``TraceSpec`` key on the first line) just before its
first checkpoint, and a resume reads it back (:meth:`RunDir.read_trace`)
instead of regenerating it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
import tempfile
import time
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.mobility.io import dumps_trace, loads_trace
from repro.mobility.trace import Trace
from repro.obs import events as event_types
from repro.obs.registry import MetricsRegistry

MAGIC = b"repro-ckpt-v1\n"
_DIGEST_LEN = 64  # hex sha256

#: default serial checkpoint cadence (dispatched events between snapshots)
DEFAULT_EVERY_EVENTS = 200_000


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, truncated, or corrupted."""


class ExecutionInterrupted(RuntimeError):
    """SIGINT/SIGTERM stopped a run after flushing a final checkpoint."""

    def __init__(self, message: str, *, checkpoint_path: Optional[str] = None) -> None:
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


class SimulatedCrash(RuntimeError):
    """Deterministic crash injected by the chaos harness (repro chaos)."""


# -- framed atomic checkpoint files -------------------------------------------


def atomic_write_bytes(path: "Path | str", data: bytes) -> None:
    """Write ``data`` to ``path`` via temp-file + fsync + ``os.replace``."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, str(path))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_frame(path: "Path | str", payload: bytes) -> None:
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    atomic_write_bytes(path, MAGIC + digest + b"\n" + payload)


def read_frame(path: "Path | str") -> bytes:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    header_len = len(MAGIC) + _DIGEST_LEN + 1
    if len(blob) < header_len or not blob.startswith(MAGIC):
        raise CheckpointError(f"checkpoint {path} has a bad or truncated header")
    digest = blob[len(MAGIC): len(MAGIC) + _DIGEST_LEN]
    payload = blob[header_len:]
    if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
        raise CheckpointError(f"checkpoint {path} failed its integrity check")
    return payload


def dump_checkpoint(path: "Path | str", obj: Any) -> None:
    write_frame(path, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def load_checkpoint(path: "Path | str") -> Any:
    return pickle.loads(read_frame(path))


def try_load_checkpoint(path: "Path | str") -> Optional[Any]:
    """``load_checkpoint`` that treats broken/missing files as absent."""
    try:
        return load_checkpoint(path)
    except CheckpointError:
        return None


# -- simulation snapshots -----------------------------------------------------


def snapshot_simulation(sim: Any, n_dispatched: int) -> bytes:
    """Serialize the full mutable state of a running Simulation.

    The protocol's runtime hooks (observability closures) are detached for
    the duration of the pickle and re-attached before returning, so the
    snapshot is a side-effect-free read of the live run.
    """
    world = sim.world
    protocol = sim.protocol
    protocol.detach_runtime()
    try:
        state: Dict[str, Any] = {
            "n_dispatched": int(n_dispatched),
            "now": world.now,
            "rng": world.rng,
            "nodes": world.nodes,
            "stations": world.stations,
            "delivered_pids": world._delivered_pids,
            "dropped_pids": world._dropped_pids,
            "visit_budget": world._visit_budget,
            "visit_factor": world._visit_factor,
            "factory": sim.factory,
            "metrics": world.metrics,
            "protocol": protocol,
        }
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        protocol.attach_runtime(world)


def restore_simulation(sim: Any, state: Dict[str, Any]) -> int:
    """Install a snapshot into a freshly constructed Simulation.

    Returns the number of already-dispatched events to skip when
    re-walking the (deterministically re-derived) event stream.
    """
    world = sim.world
    world.now = state["now"]
    world.rng = state["rng"]
    world.nodes = state["nodes"]
    world.stations = state["stations"]
    world._delivered_pids = state["delivered_pids"]
    world._dropped_pids = state["dropped_pids"]
    world._visit_budget = state["visit_budget"]
    world._visit_factor = state["visit_factor"]
    world._conn_sorted = {}
    sim.factory = state["factory"]
    collector = state["metrics"]
    world.metrics = collector
    if collector.registry is not None:
        world.obs.registry = collector.registry
        if world._faults_active:
            reg = collector.registry
            world._ctr_blocked = reg.counter("faults.blocked_transfers")
            world._ctr_lost = reg.counter("faults.transfers_lost")
            world._ctr_skipped_visits = reg.counter("faults.skipped_visits")
    sim.protocol = state["protocol"]
    sim.protocol.attach_runtime(world)
    return int(state["n_dispatched"])


# -- interrupts ---------------------------------------------------------------


class InterruptFlag:
    """Defer SIGINT/SIGTERM into a flag the checkpoint loop polls.

    Entering the context installs handlers (a no-op off the main thread,
    where ``signal.signal`` raises); exiting restores the previous ones.
    """

    def __init__(self) -> None:
        self.triggered = False
        self.signum: Optional[int] = None
        self._previous: List[Tuple[int, Any]] = []

    def _handle(self, signum: int, frame: Any) -> None:
        self.triggered = True
        self.signum = signum

    def __enter__(self) -> "InterruptFlag":
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous.append((sig, signal.signal(sig, self._handle)))
            except ValueError:  # not the main thread
                break
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._previous:
            sig, prev = self._previous.pop()
            signal.signal(sig, prev)


# -- recovery event log -------------------------------------------------------


class RecoveryLog:
    """Append-only JSONL log of executor recovery actions + counters.

    Every record lands both in ``recovery.jsonl`` (the CI artifact) and
    in an ``executor.*`` counter on the attached registry.
    """

    def __init__(self, path: "Path | str",
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.path = Path(path)
        self.registry = registry if registry is not None else MetricsRegistry()

    def emit(self, etype: str, **data: Any) -> None:
        if etype not in event_types.EXECUTOR_EVENTS:
            raise ValueError(f"unknown executor event type: {etype!r}")
        self.registry.counter(etype).inc()
        record = {"ts": round(time.time(), 3), "event": etype}
        record.update(data)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")

    def records(self) -> List[Dict[str, Any]]:
        if not self.path.exists():
            return []
        out = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                out.append(json.loads(line))
        return out


# -- serial checkpointer ------------------------------------------------------


def _checkpoint_index(path: Path) -> int:
    try:
        return int(path.stem.split("-")[-1])
    except ValueError:
        return -1


class SerialCheckpointer:
    """Periodic snapshot driver for ``Simulation.run_checkpointed``.

    Writes ``serial-<n>.ckpt`` every ``every_events`` dispatched events,
    keeps the newest ``keep`` files so a truncated latest checkpoint can
    fall back to its predecessor, and turns a deferred SIGINT/SIGTERM
    (via ``flag``) into a final flush + :class:`ExecutionInterrupted`.
    ``directory`` is created at the first save, so a run that never saves
    leaves nothing behind.

    ``before_first_save`` runs once, just before this process's first
    checkpoint; the executor passes :meth:`RunDir.write_trace` for the
    point's trace, so every checkpoint on disk has its trace beside it.
    ``trace_source`` says where the trace came from (``"run-dir"``,
    ``"cache"`` or ``"rebuilt"``); a restore stamps it into its
    ``executor.resume`` record.

    ``crash_after_saves`` is the chaos hook: raise :class:`SimulatedCrash`
    immediately after committing the n-th checkpoint of this process.
    """

    def __init__(
        self,
        directory: "Path | str",
        *,
        every_events: int = DEFAULT_EVERY_EVENTS,
        keep: int = 2,
        flag: Optional[InterruptFlag] = None,
        recovery: Optional[RecoveryLog] = None,
        crash_after_saves: Optional[int] = None,
        before_first_save: Optional[Callable[[], None]] = None,
        trace_source: Optional[str] = None,
    ) -> None:
        if every_events <= 0:
            raise ValueError(f"every_events must be positive, got {every_events}")
        self.directory = Path(directory)
        self.every_events = int(every_events)
        self.keep = max(2, int(keep))
        self.flag = flag
        self.recovery = recovery
        self.crash_after_saves = crash_after_saves
        self.before_first_save = before_first_save
        self.trace_source = trace_source
        self.n_saves = 0

    def _paths(self) -> List[Path]:
        return sorted(self.directory.glob("serial-*.ckpt"), key=_checkpoint_index)

    def restore(self, sim: Any) -> int:
        """Restore the newest complete checkpoint; 0 means a fresh start."""
        for path in reversed(self._paths()):
            state = try_load_checkpoint(path)
            if state is None:
                continue
            skip = restore_simulation(sim, state)
            if self.recovery is not None:
                fields: Dict[str, Any] = {"checkpoint": path.name, "n_dispatched": skip}
                if self.trace_source is not None:
                    fields["trace"] = self.trace_source
                self.recovery.emit(event_types.EXECUTOR_RESUME, **fields)
            return skip
        return 0

    def _save(self, sim: Any, n_dispatched: int) -> Path:
        if self.n_saves == 0:
            if self.before_first_save is not None:
                self.before_first_save()
            self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"serial-{n_dispatched:012d}.ckpt"
        write_frame(path, snapshot_simulation(sim, n_dispatched))
        self.n_saves += 1
        if self.recovery is not None:
            self.recovery.emit(event_types.EXECUTOR_CHECKPOINT,
                               checkpoint=path.name, n_dispatched=n_dispatched)
        for old in self._paths()[: -self.keep]:
            try:
                old.unlink()
            except OSError:
                pass
        return path

    def replay(self, sim: Any, events: Iterable, skip: int) -> Iterator:
        """Wrap the engine's event stream for a checkpointed run.

        Skips the ``skip`` events a restored run already dispatched, then,
        after each dispatched event, snapshots every ``every_events``
        events or — once ``flag`` is triggered — flushes a final snapshot
        and raises :class:`ExecutionInterrupted`.
        """
        for n, event in enumerate(islice(events, skip, None), skip + 1):
            yield event
            if self.flag is not None and self.flag.triggered:
                path = self._save(sim, n)
                if self.recovery is not None:
                    self.recovery.emit(event_types.EXECUTOR_INTERRUPT,
                                       checkpoint=path.name, signum=self.flag.signum)
                raise ExecutionInterrupted(
                    f"run interrupted (signal {self.flag.signum}); "
                    f"state flushed to {path}",
                    checkpoint_path=str(path),
                )
            if n % self.every_events == 0:
                self._save(sim, n)
                if (self.crash_after_saves is not None
                        and self.n_saves >= self.crash_after_saves):
                    raise SimulatedCrash(
                        f"chaos: simulated crash after checkpoint #{self.n_saves}"
                    )


# -- run directories ----------------------------------------------------------


class RunDir:
    """Layout manager for a resumable run directory.

    ::

        <run-dir>/
          manifest.json             scenario + its content hash, cadence
          recovery.jsonl            executor.* recovery event log
          traces/
            <sha256(key)[:16]>.ckpt framed trace CSV, its TraceSpec key on
                                    line 1 (profile traces, first save)
          points/
            000/                    one directory per sweep point
              serial/serial-*.ckpt  checkpoints, from the first save
              result.ckpt           framed pickle of the finished point

    An instance remembers the trace keys it wrote or read back intact and
    never writes those again, so each trace file is written once.
    """

    MANIFEST = "manifest.json"
    RECOVERY = "recovery.jsonl"
    RESULT = "result.ckpt"
    TRACES = "traces"

    def __init__(self, path: "Path | str") -> None:
        self.path = Path(path)
        self._traces_on_disk: Set[str] = set()

    @property
    def manifest_path(self) -> Path:
        return self.path / self.MANIFEST

    @property
    def recovery_path(self) -> Path:
        return self.path / self.RECOVERY

    @classmethod
    def create(cls, path: "Path | str", manifest: Dict[str, Any]) -> "RunDir":
        rd = cls(path)
        rd.path.mkdir(parents=True, exist_ok=True)
        (rd.path / "points").mkdir(exist_ok=True)
        atomic_write_bytes(
            rd.manifest_path,
            json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
        )
        return rd

    def read_manifest(self) -> Dict[str, Any]:
        try:
            return json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise CheckpointError(
                f"{self.path} is not a run directory (no readable manifest): {exc}"
            ) from exc

    def exists(self) -> bool:
        return self.manifest_path.is_file()

    def recovery_log(self, registry: Optional[MetricsRegistry] = None) -> RecoveryLog:
        return RecoveryLog(self.recovery_path, registry)

    # -- per-point state -----------------------------------------------------------
    def point_dir(self, index: int) -> Path:
        """Point ``index``'s directory; created by its writers, not here."""
        return self.path / "points" / f"{index:03d}"

    def point_dirs(self) -> Iterable[Path]:
        root = self.path / "points"
        if not root.is_dir():
            return []
        return sorted(p for p in root.iterdir() if p.is_dir())

    def write_result(self, index: int, result: Any) -> Path:
        path = self.point_dir(index) / self.RESULT
        path.parent.mkdir(parents=True, exist_ok=True)
        dump_checkpoint(path, result)
        return path

    def load_result(self, index: int) -> Optional[Any]:
        """The finished point's result, or None if absent/corrupt."""
        return try_load_checkpoint(self.point_dir(index) / self.RESULT)

    # -- traces ---------------------------------------------------------------------
    def trace_path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]
        return self.path / self.TRACES / f"{digest}.ckpt"

    def write_trace(self, key: str, trace: Trace) -> None:
        """Store ``trace`` under its spec ``key``, unless this instance
        already wrote it or read it back intact."""
        if key in self._traces_on_disk:
            return
        path = self.trace_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_frame(path, f"{key}\n{dumps_trace(trace)}".encode("utf-8"))
        self._traces_on_disk.add(key)

    def read_trace(self, key: str) -> Optional[Trace]:
        """The trace stored under ``key``, or None if none was written.

        Raises :class:`CheckpointError` for a file that fails its digest
        or names another key.
        """
        path = self.trace_path(key)
        if not path.is_file():
            return None
        stored, _, csv = read_frame(path).partition(b"\n")
        if stored != key.encode("utf-8"):
            raise CheckpointError(
                f"trace file {path} holds {stored[:80]!r}, not {key!r}"
            )
        try:
            trace = loads_trace(csv.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise CheckpointError(f"trace file {path} is not a trace: {exc}") from exc
        self._traces_on_disk.add(key)
        return trace
