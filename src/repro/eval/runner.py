"""The experiment executor: one path for every grid of independent points.

The paper's evaluation (Figs. 11-14, Tables 6-9) is dominated by parameter
sweeps — every ``(trace, protocol, memory, rate, seed)`` point an
independent discrete-event run.  :func:`execute` runs such a grid for
every caller on the serial engine, in-process or over a process pool: a
scenario reaches it through :func:`repro.eval.scenario.run_scenario`
(every CLI command, resumable run directory, degradation curve, ``repro
serve`` job and replay, and ``repro profile``), the benchmarks' and
tests' hand-built entries through :func:`run_point_specs`.  Four
guarantees:

* **trace caching** — every distinct trace is built at most once per
  call: in-process points share one trace cache keyed by
  :class:`TraceSpec` key, and a per-call pool's initializer hands the
  parent's built traces to every worker (fork shares the pages, spawn
  unpickles the presorted records once per worker), so workers never
  rebuild; a caller's long-lived pool, created before the traces
  existed, receives the spec with each task and materializes it once per
  worker; with a run directory, a cache miss on a built-in profile trace
  reads the copy the run dir's first checkpoint stored
  (:meth:`~repro.sim.checkpoint.RunDir.read_trace`) before building
  anything, so a resume replays its checkpoints against the trace they
  were taken on without regenerating it;
* **deterministic ordering** — results come back in submission order no
  matter which worker finishes first;
* **bit-identical paths** — in-process, pooled and checkpointed points
  all produce identical
  :class:`~repro.sim.metrics.MetricsSummary` values for the same seeds;
* **failure containment** — a pool point that crashes its worker or
  raises is retried once in the pool, then re-run in-process, and only
  then raises :class:`PointExecutionError`.

Progress travels on the result channel: the parent emits ``started`` as
it hands a point over and ``finished`` once the point's result is in (and
committed, when there is a run directory).

Configs are resolved from the :class:`~repro.eval.config.TraceProfile` in
the parent before dispatch (profiles hold non-picklable builder closures;
:class:`~repro.sim.engine.SimConfig` is a plain dataclass).
"""

from __future__ import annotations

import dataclasses
import os
import sys
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import (
    Any, Callable, ContextManager, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.eval.config import trace_profile
from repro.eval.config import full_scale as _resolve_full_scale
from repro.eval.experiment import ExperimentResult, execute_config
from repro.mobility.trace import Trace
from repro.obs import events as event_types
from repro.obs.provenance import _jsonable
from repro.obs.runtime import Observability
from repro.sim.checkpoint import (
    DEFAULT_EVERY_EVENTS,
    CheckpointError,
    ExecutionInterrupted,
    InterruptFlag,
    RunDir,
    SerialCheckpointer,
)
from repro.sim.engine import SimConfig

__all__ = [
    "ObserveFn",
    "PointExecutionError",
    "PointSpec",
    "ProgressEvent",
    "ProgressFn",
    "SweepInterrupted",
    "TraceSpec",
    "execute",
    "parse_jobs",
    "point_scenario_dict",
    "run_point_specs",
]


@dataclass(frozen=True)
class ProgressEvent:
    """One live-telemetry record from a running sweep.

    The executor emits these from the parent as it hands points over and
    collects their results, so a long sweep reports per-point completion
    instead of going dark until the pool drains.  ``kind`` is
    ``"started"`` (the point was handed to the executor; ``pid`` is the
    running process in-process, ``None`` for a pool hand-over) or
    ``"finished"`` (the result is in, and committed when there is a run
    directory).  ``finished`` carries the ``seconds`` and ``pid`` the
    executing process measured, and the ``result``; a point restored from
    a committed result emits only ``finished``, with ``seconds=None``.
    """

    kind: str
    index: int
    total: int
    protocol: str
    memory_kb: float
    rate: float
    seed: int
    seconds: Optional[float] = None
    pid: Optional[int] = None
    result: Optional[ExperimentResult] = None


#: progress callback; exceptions it raises are swallowed, never failing a sweep
ProgressFn = Callable[[ProgressEvent], None]

#: per-point observability hook: ``observe(index, point)`` returns a context
#: manager yielding that point's :class:`~repro.obs.runtime.Observability`;
#: the point runs inside it
ObserveFn = Callable[[int, "PointSpec"], ContextManager[Observability]]


def parse_jobs(value: Union[int, str, None]) -> int:
    """Parse a ``--jobs`` value: a positive int, or ``auto``/``0`` = all cores."""
    if value is None:
        return 1
    if isinstance(value, int):
        n = value
    else:
        text = str(value).strip().lower()
        if text == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            n = int(text)
        except ValueError:
            raise ValueError(
                f"jobs must be a positive integer or 'auto', got {value!r}"
            ) from None
    if n == 0:
        return max(1, os.cpu_count() or 1)
    if n < 0:
        raise ValueError(f"jobs must be a positive integer or 'auto', got {value!r}")
    return n


@dataclass(frozen=True)
class TraceSpec:
    """A picklable recipe for a :class:`Trace`, and its cache key.

    The executor builds each distinct :attr:`key` once per call (a caller
    may seed its trace cache with the built trace) and stamps profile and
    path recipes into provenance, so a point can be re-run from its
    scenario dict alone.  A caller's long-lived pool receives the spec
    with each task and materializes it once per worker.  Two kinds:

    * ``profile`` — rebuild a built-in synthetic trace (``DART``/``DNET``)
      from its deterministic generator;
    * ``path`` — load a trace CSV from disk (a programmatically-built
      trace is written to one with :func:`repro.mobility.io.dump_trace`,
      and a caller already holding it seeds the trace cache with it).
    """

    kind: str
    key: str
    profile: Optional[str] = None
    seed: int = 0
    path: Optional[str] = None
    #: the scale a profile spec was resolved at in the parent; pinned here so
    #: a worker whose environment differs can never rebuild at the wrong scale
    full: Optional[bool] = None

    @classmethod
    def from_profile(
        cls, name: str, seed: int, *, full_scale: Optional[bool] = None
    ) -> "TraceSpec":
        name = name.upper()
        resolved = _resolve_full_scale() if full_scale is None else bool(full_scale)
        trace_profile(name, full_scale=resolved)  # validate eagerly, in the parent
        key = f"profile:{name}:{seed}:full={int(resolved)}"
        return cls(kind="profile", key=key, profile=name, seed=seed, full=resolved)

    @classmethod
    def from_path(cls, path: str) -> "TraceSpec":
        return cls(kind="path", key=f"path:{path}", path=str(path))

    def materialize(self) -> Trace:
        if self.kind == "profile":
            return trace_profile(self.profile, full_scale=self.full).build(self.seed)
        if self.kind == "path":
            from repro.mobility import io as trace_io

            return trace_io.load_trace(self.path)
        raise ValueError(f"unknown TraceSpec kind {self.kind!r}")


@dataclass(frozen=True)
class PointSpec:
    """One experiment point: protocol + workload knobs (trace given aside).

    ``scenario`` optionally carries the point's fully-resolved scenario dict
    (see :func:`point_scenario_dict`); it is stamped into the run's
    provenance so ``repro rerun`` can reproduce the point bit-for-bit.
    """

    protocol: str
    memory_kb: float = 2000.0
    rate: float = 500.0
    seed: int = 0
    protocol_kwargs: Optional[dict] = None
    scenario: Optional[dict] = None


def point_scenario_dict(
    trace_spec: "TraceSpec", point: "PointSpec", config: SimConfig
) -> Dict[str, Any]:
    """The canonical resolved-scenario dict for one experiment point.

    This is the single source of the provenance-embedded scenario shape, so
    a rerun (which resolves the dict back into identical inputs) re-emits an
    identical dict.
    """
    if trace_spec.kind == "profile":
        trace_block: Dict[str, Any] = {
            "profile": trace_spec.profile,
            "seed": int(trace_spec.seed),
            "full_scale": bool(
                trace_spec.full if trace_spec.full is not None else _resolve_full_scale()
            ),
        }
    else:
        trace_block = {"path": str(trace_spec.path)}
    # the fault plan is a top-level scenario block, not a sim knob, so the
    # emitted dict round-trips through ScenarioSpec.from_dict unchanged
    sim = {
        f: v
        for f, v in dataclasses.asdict(config).items()
        if f not in ("seed", "faults")
    }
    out: Dict[str, Any] = {
        "trace": trace_block,
        "sim": sim,
        "protocol": {"name": point.protocol, "config": dict(point.protocol_kwargs or {})},
        "seeds": [int(point.seed)],
    }
    if config.faults is not None:
        out["faults"] = config.faults
    return _jsonable(out)


#: one work item: which trace, which point, with which resolved config
Entry = Tuple[TraceSpec, PointSpec, SimConfig]

#: a per-call pool that cannot even be built runs the whole grid in-process
_POOL_ERRORS = (OSError, ImportError, NotImplementedError, BrokenProcessPool)

#: seconds between cancel-flag polls while pool points are in flight
_CANCEL_POLL = 0.1


class PointExecutionError(RuntimeError):
    """One sweep point failed its pool run, the retry, *and* the serial
    re-run.

    Carries the point's fully-resolved inputs (:attr:`point`,
    :attr:`config`, :attr:`trace_key`) so the failing experiment can be
    reproduced in isolation, plus the final underlying exception as
    :attr:`cause` (also chained as ``__cause__``).
    """

    def __init__(
        self,
        point: "PointSpec",
        config: SimConfig,
        trace_key: str,
        cause: BaseException,
    ) -> None:
        self.point = point
        self.config = config
        self.trace_key = trace_key
        self.cause = cause
        super().__init__(
            f"sweep point failed after retry and serial re-run: "
            f"protocol={point.protocol!r} seed={point.seed} "
            f"memory_kb={point.memory_kb:g} rate={point.rate:g} "
            f"trace={trace_key!r}: {cause!r}"
        )

    def __reduce__(self):
        # RuntimeError's default reduce would replay the formatted message
        # into the 4-argument __init__; rebuild from the resolved spec so the
        # error survives a trip across the process boundary.
        return (self.__class__, (self.point, self.config, self.trace_key, self.cause))


class SweepInterrupted(RuntimeError):
    """A sweep was interrupted (SIGINT) with some points already complete.

    :attr:`results` is index-aligned with the submitted entries; ``None``
    marks points that never finished.  Callers can record the completed
    points (the store's content-hash dedup makes re-recording safe) and
    resume the sweep later — resumed runs skip already-recorded points.
    """

    def __init__(self, results: Sequence[Optional[ExperimentResult]]) -> None:
        self.results: List[Optional[ExperimentResult]] = list(results)
        done = sum(1 for r in self.results if r is not None)
        super().__init__(
            f"sweep interrupted with {done}/{len(self.results)} points complete"
        )


# -- worker side -------------------------------------------------------------------
_WORKER_TRACES: Dict[str, Trace] = {}


def _pool_init(traces: Dict[str, Trace]) -> None:
    """Pool initializer: adopt the parent's built traces, keyed by spec key."""
    _WORKER_TRACES.clear()
    _WORKER_TRACES.update(traces)


def _worker_trace(ref: Union[str, TraceSpec]) -> Trace:
    """The trace a pool task runs on.

    ``ref`` is a key into the traces a per-call pool's initializer handed
    over, or the spec itself (a caller's long-lived pool, created before
    the trace existed), materialized on first use and then cached in the
    worker, warm across points and calls.
    """
    if isinstance(ref, str):
        return _WORKER_TRACES[ref]
    trace = _WORKER_TRACES.get(ref.key)
    if trace is None:
        trace = _WORKER_TRACES[ref.key] = ref.materialize()
    return trace


def _run_entry(
    trace: Trace, point: PointSpec, config: SimConfig, checkpointer=None,
    obs: Optional[Observability] = None,
) -> ExperimentResult:
    return execute_config(
        trace,
        point.protocol,
        config,
        memory_kb=point.memory_kb,
        rate=point.rate,
        seed=point.seed,
        protocol_kwargs=point.protocol_kwargs,
        scenario=point.scenario,
        obs=obs,
        checkpointer=checkpointer,
    )


def _run_task(
    idx: int,
    spec: Union[str, TraceSpec],
    point: PointSpec,
    config: SimConfig,
    chaos: Mapping[str, Any],
) -> Tuple[ExperimentResult, float, int]:
    """Pool task: one point in a worker; returns ``(result, seconds, pid)``.

    ``chaos`` is the point's injection mapping: ``pool_exit`` kills the
    worker abruptly, ``pool_raise`` fails the task.  The in-process re-run
    has no such hook, so an injected pool failure always recovers through
    the retry -> in-process re-run ladder (see docs/reliability.md).
    """
    if chaos.get("pool_exit"):
        os._exit(1)  # abrupt worker death: no exception, no cleanup
    if chaos.get("pool_raise"):
        raise RuntimeError(f"chaos: injected pool failure for point {idx}")
    trace = _worker_trace(spec)
    t0 = perf_counter()
    result = _run_entry(trace, point, config)
    return result, perf_counter() - t0, os.getpid()


# -- the executor --------------------------------------------------------------------


def execute(
    entries: Sequence[Entry],
    *,
    jobs: Union[int, str, None] = 1,
    run_dir: Optional[RunDir] = None,
    every_events: int = DEFAULT_EVERY_EVENTS,
    progress: Optional[ProgressFn] = None,
    cancel: Optional[InterruptFlag] = None,
    traces: Optional[Dict[str, Trace]] = None,
    injections: Optional[Mapping[int, Mapping[str, Any]]] = None,
    pool: Optional[ProcessPoolExecutor] = None,
    observe: Optional[ObserveFn] = None,
) -> Tuple[List[ExperimentResult], List[Optional[Dict[str, Any]]]]:
    """Run every entry; returns index-aligned ``(results, infos)``.

    Points run in-process when ``jobs`` is 1, otherwise over a process
    pool: a per-call pool of ``jobs`` workers, or the caller's long-lived
    ``pool`` (``repro serve``).  A pool point that fails is retried once in
    the pool while the pool is healthy, then re-run in-process; only a
    point failing all three raises :class:`PointExecutionError`.
    In-process failures propagate as-is.

    * ``run_dir`` makes the grid resumable: points with a committed
      ``result.ckpt`` are restored instead of re-run, every finished point
      commits one, and in-process points checkpoint every
      ``every_events`` dispatched events, resuming from the newest
      complete checkpoint.  A profile trace is written into the run dir
      just before the first serial checkpoint and read back on a later
      call's cache miss; a trace file that fails its digest or names
      another key is rebuilt, with an ``executor.fallback`` record of
      ``kind="trace"``.
    * ``cancel`` (an :class:`~repro.sim.checkpoint.InterruptFlag`) stops
      the grid once triggered: between points, mid-point when a run dir
      checkpoints it, and in the pool by cancelling the points not yet
      started and collecting the running ones.  A cancel or a SIGINT
      raises :class:`SweepInterrupted` carrying the finished results.
    * ``traces`` is the trace cache keyed by spec key, which a per-call
      pool's workers receive too; seed it with already-built traces, or
      keep it across calls.
    * ``injections`` maps a point index to chaos hooks: ``pool_exit`` and
      ``pool_raise`` (see :func:`_run_task`) and ``crash_after_saves``
      (the serial checkpointer).
    * ``progress`` receives a :class:`ProgressEvent` per hand-over and per
      result; callback exceptions are swallowed.
    * ``observe`` is the per-point observability hook (:data:`ObserveFn`):
      each point runs inside ``observe(index, point)`` with the
      :class:`~repro.obs.runtime.Observability` it yields, after its trace
      is built.  Without it a point records no events and times no
      phases.  An ``Observability`` cannot cross a process boundary, so
      ``observe`` with ``jobs > 1`` or a ``pool`` raises ``ValueError``.
    """
    if observe is not None and (pool is not None or parse_jobs(jobs) > 1):
        raise ValueError(
            "observe needs in-process points: an Observability cannot "
            "cross a process boundary (use jobs=1 and no pool)"
        )
    entries = list(entries)
    total = len(entries)
    results: List[Optional[ExperimentResult]] = [None] * total
    infos: List[Optional[Dict[str, Any]]] = [None] * total
    traces = {} if traces is None else traces
    injections = injections or {}
    recovery = run_dir.recovery_log() if run_dir is not None else None
    # where each trace came from: "cache", "run-dir" or "rebuilt"
    sources: Dict[str, str] = {}

    def emit(kind: str, i: int, seconds: Optional[float] = None,
             pid: Optional[int] = None, result: Optional[ExperimentResult] = None) -> None:
        if progress is None:
            return
        point = entries[i][1]
        try:
            progress(ProgressEvent(
                kind, i, total, point.protocol, point.memory_kb, point.rate,
                point.seed, seconds, pid, result,
            ))
        except Exception:  # telemetry must never break the sweep itself
            pass

    def commit(i: int, result: ExperimentResult, info: Dict[str, Any],
               seconds: Optional[float], pid: Optional[int]) -> None:
        if run_dir is not None:
            run_dir.write_result(i, {"index": i, "result": result, "info": info})
        results[i], infos[i] = result, info
        emit("finished", i, seconds, pid, result)

    def trace_of(spec: TraceSpec) -> Trace:
        """The cached trace, else the run dir's copy, else a fresh build."""
        trace = traces.get(spec.key)
        if trace is not None:
            sources.setdefault(spec.key, "cache")
            return trace
        source = "rebuilt"
        if run_dir is not None and spec.kind == "profile":
            try:
                trace = run_dir.read_trace(spec.key)
            except CheckpointError as exc:
                recovery.emit(event_types.EXECUTOR_FALLBACK, kind="trace",
                              key=spec.key, reason=str(exc))
            if trace is not None:
                source = "run-dir"
        if trace is None:
            trace = spec.materialize()
        traces[spec.key], sources[spec.key] = trace, source
        return trace

    def run_here(i: int, announce: bool = True) -> None:
        """The in-process per-point path."""
        spec, point, config = entries[i]
        if cancel is not None and cancel.triggered:
            if recovery is not None:
                recovery.emit(event_types.EXECUTOR_INTERRUPT, kind="between-points",
                              index=i, signum=cancel.signum)
            raise ExecutionInterrupted(f"grid cancelled before point {i}")
        if announce:
            emit("started", i, pid=os.getpid())
        trace = trace_of(spec)
        checkpointer = None
        if run_dir is not None:
            checkpointer = SerialCheckpointer(
                run_dir.point_dir(i) / "serial",
                every_events=every_events,
                flag=cancel,
                recovery=recovery,
                crash_after_saves=(injections.get(i) or {}).get("crash_after_saves"),
                # path traces are re-read from their CSV anyway
                before_first_save=(
                    partial(run_dir.write_trace, spec.key, trace)
                    if spec.kind == "profile" else None
                ),
                trace_source=sources[spec.key],
            )
        t0 = perf_counter()
        with observe(i, point) if observe is not None else nullcontext() as obs:
            result = _run_entry(trace, point, config, checkpointer, obs)
        commit(i, result, {"execution": {"mode": "serial"}},
               perf_counter() - t0, os.getpid())

    todo: List[int] = []
    for i, (_, point, _) in enumerate(entries):
        cached = run_dir.load_result(i) if run_dir is not None else None
        if cached is None:
            todo.append(i)
            continue
        results[i], infos[i] = cached["result"], cached.get("info")
        recovery.emit(event_types.EXECUTOR_RESUME, kind="point",
                      index=i, protocol=point.protocol)
        emit("finished", i, result=results[i])

    failed: List[Tuple[int, BaseException]] = []
    try:
        n_jobs = min(parse_jobs(jobs), len(todo))
        if todo and (pool is not None or n_jobs > 1):
            # a per-call pool's workers start with the parent's built
            # traces; tasks for a caller's long-lived pool carry the spec
            built: Dict[str, Trace] = {} if pool is not None else {
                entries[i][0].key: trace_of(entries[i][0]) for i in todo
            }
            try:
                executor = pool or ProcessPoolExecutor(
                    max_workers=n_jobs, initializer=_pool_init, initargs=(built,)
                )
            except _POOL_ERRORS as exc:
                print(
                    f"repro: process pool unavailable ({exc!r}); "
                    "falling back to serial execution",
                    file=sys.stderr,
                )
            else:
                abandon = True
                try:
                    failed = _through_pool(
                        executor, entries, todo, injections, built, cancel, emit, commit
                    )
                    abandon = False
                finally:
                    if pool is None:
                        executor.shutdown(wait=not abandon, cancel_futures=True)
                todo = []
        for i in todo:
            run_here(i)
        for i, exc in failed:
            print(
                f"repro: sweep point {i} failed in the pool ({exc!r}); "
                "re-running serially",
                file=sys.stderr,
            )
            try:
                run_here(i, announce=False)
            except (KeyboardInterrupt, ExecutionInterrupted):
                raise
            except Exception as err:
                spec, point, config = entries[i]
                raise PointExecutionError(point, config, spec.key, err) from err
    except (KeyboardInterrupt, ExecutionInterrupted):
        # the finished points are committed (with a run dir) and returned,
        # so the caller can record the partial grid and resume it later
        raise SweepInterrupted(results) from None
    return results, infos  # type: ignore[return-value]


def _through_pool(
    pool: ProcessPoolExecutor,
    entries: List[Entry],
    todo: List[int],
    injections: Mapping[int, Mapping[str, Any]],
    built: Mapping[str, Trace],
    cancel: Optional[InterruptFlag],
    emit: Callable[..., None],
    commit: Callable[..., None],
) -> List[Tuple[int, BaseException]]:
    """Hand the ``todo`` points to ``pool``; commit each result as it lands.

    A task carries its trace's key when the trace was ``built`` and handed
    over through the pool initializer, the spec itself otherwise.  A failed
    point is handed over once more while the pool is healthy; returns the
    points that failed for good.  A triggered ``cancel`` cancels every
    point not yet started and collects the running ones, then raises
    :class:`ExecutionInterrupted` if it cancelled any.
    """
    pending: Dict[Future, int] = {}
    failed: List[Tuple[int, BaseException]] = []
    retried: set = set()
    broken = False

    def hand_over(i: int) -> None:
        spec, point, config = entries[i]
        ref = spec.key if spec.key in built else spec
        chaos = injections.get(i) or {}
        try:
            pending[pool.submit(_run_task, i, ref, point, config, chaos)] = i
        except (RuntimeError, OSError) as exc:  # a broken or shut-down pool
            failed.append((i, exc))

    for i in todo:
        hand_over(i)
        emit("started", i)
    poll = _CANCEL_POLL if cancel is not None else None
    cancelled = False
    while pending:
        done, _ = wait(pending, timeout=poll, return_when=FIRST_COMPLETED)
        if cancel is not None and cancel.triggered:
            for future in [f for f in pending if f.cancel()]:
                del pending[future]
                cancelled = True
        for future in done:
            i = pending.pop(future)
            try:
                result, seconds, pid = future.result()
            except Exception as exc:
                broken = broken or isinstance(exc, BrokenProcessPool)
                if broken or i in retried:
                    failed.append((i, exc))
                else:
                    retried.add(i)
                    hand_over(i)
                continue
            commit(i, result, {"execution": {"mode": "pool"}}, seconds, pid)
    if cancelled:
        raise ExecutionInterrupted("grid cancelled with pool points unstarted")
    return failed


def run_point_specs(
    entries: Sequence[Entry],
    *,
    jobs: Union[int, str, None] = 1,
    materialized: Optional[Dict[str, Trace]] = None,
    progress: Optional[ProgressFn] = None,
) -> List[ExperimentResult]:
    """Execute ``(trace_spec, point, config)`` entries, possibly in parallel.

    The results-only form of :func:`execute`, for hand-built entries
    (benchmarks and tests; every grid under ``src/`` goes through
    :func:`repro.eval.scenario.run_scenario`).  ``materialized``
    optionally seeds the in-process trace cache with already-built traces
    (keyed by spec key) so a caller never rebuilds a trace it already
    holds.
    ``progress`` receives a :class:`ProgressEvent` as each point is handed
    over and as its result comes in.  A SIGINT mid-sweep raises
    :class:`SweepInterrupted` carrying the completed points
    (index-aligned, ``None`` for unfinished) so callers can record the
    partial sweep and resume it later.
    """
    results, _ = execute(
        entries, jobs=jobs, progress=progress, traces=dict(materialized or {})
    )
    return results

