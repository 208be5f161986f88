"""The experiment service's job plane: durable queue, dispatch, recovery.

A *job* is one validated :class:`~repro.eval.scenario.ScenarioSpec`
submitted over the API.  Every job owns a directory under the manager's
run root::

    <run-root>/job-0001/
      job.json        durable state record (atomic rewrite per transition)
      run/            a PR-9 resumable run directory (manifest, per-point
                      result.ckpt files, serial checkpoints, recovery log)

``job.json`` is the restart contract: a server killed outright (power
loss, ``kill -9``) comes back, re-queues every job whose durable state is
``queued`` or ``running``, and :func:`~repro.eval.resume.run_resumable`
skips the points whose results already committed — metrics land
bit-identical to an uninterrupted run (docs/reliability.md).

Execution is strict FIFO through one dispatcher thread, and every job
runs through the one point executor (:func:`~repro.eval.runner.execute`,
via :func:`~repro.eval.resume.run_resumable`).  With ``jobs=1`` each
point runs in-process under the serial checkpointer (mid-point
crash-safety and mid-point cancellation).  With ``jobs>=2`` the manager
owns a long-lived shared :class:`ProcessPoolExecutor` handed to the
executor: per-worker trace caches stay warm across jobs, each completed
point commits its ``result.ckpt`` from the dispatcher, and a failed point
climbs the executor's retry ladder.  Point events are published from the
executor's result channel on the dispatcher thread.

State machine: ``queued -> running -> done | failed | cancelled``; an
interrupted-but-not-cancelled job (graceful shutdown) transitions back to
``queued`` so the next start resumes it.  Completed jobs record into the
experiment store through the very same
:func:`~repro.store.ingest.ingest_scenario_result` path as
``repro scenario run --record`` — content-hash dedup makes an HTTP
re-submission of an already-recorded scenario a store no-op.
"""

from __future__ import annotations

import json
import queue
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.eval.experiment import ExperimentResult
from repro.eval.resume import create_run, run_resumable, stored_scenario
from repro.eval.runner import ProgressEvent, SweepInterrupted, parse_jobs
from repro.eval.scenario import ScenarioSpec, load_scenario
from repro.serve.sse import EventStream
from repro.sim.checkpoint import (
    DEFAULT_EVERY_EVENTS,
    CheckpointError,
    InterruptFlag,
    RunDir,
    atomic_write_bytes,
)
from repro.store import (
    ExperimentDB,
    content_hash,
    ingest_experiment_results,
    ingest_scenario_result,
)

__all__ = ["Job", "JobManager", "TERMINAL_STATES"]

#: states a job never leaves
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

JOB_FILE = "job.json"
RUN_SUBDIR = "run"


def _iso(ts: Optional[float]) -> Optional[str]:
    if ts is None:
        return None
    return datetime.fromtimestamp(ts, timezone.utc).isoformat()


class Job:
    """One submitted scenario and its live/durable execution state."""

    def __init__(
        self,
        job_id: str,
        spec: ScenarioSpec,
        path: Path,
        *,
        label: str = "",
        submitted_at: Optional[float] = None,
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.scenario = spec.as_dict()
        self.content_hash = content_hash(self.scenario)
        self.path = Path(path)
        self.label = label or spec.name or job_id
        self.state = "queued"
        self.submitted_at = time.time() if submitted_at is None else submitted_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.error: Optional[str] = None
        self.n_points = spec.n_points()
        self.done_points = 0
        self.recorded: Optional[str] = None
        self.cancel_requested = False
        self.stream = EventStream()
        #: externally-owned interrupt flag; setting ``triggered`` cancels the
        #: in-flight job (serial: at the next event; pool: unstarted points)
        self.flag = InterruptFlag()
        self._done_indexes: set = set()

    @property
    def run_path(self) -> Path:
        return self.path / RUN_SUBDIR

    def durable_dict(self) -> Dict[str, Any]:
        """What survives a restart (written to ``job.json``)."""
        return {
            "id": self.id,
            "state": self.state,
            "label": self.label,
            "scenario": self.scenario,
            "content_hash": self.content_hash,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "n_points": self.n_points,
            "done_points": self.done_points,
            "recorded": self.recorded,
        }

    def as_dict(self) -> Dict[str, Any]:
        """The API-facing job record."""
        return {
            "id": self.id,
            "state": self.state,
            "name": self.spec.name,
            "label": self.label,
            "content_hash": self.content_hash,
            "n_points": self.n_points,
            "done_points": self.done_points,
            "submitted_at": _iso(self.submitted_at),
            "started_at": _iso(self.started_at),
            "finished_at": _iso(self.finished_at),
            "error": self.error,
            "recorded": self.recorded,
            "cancel_requested": self.cancel_requested,
        }

    def point_results(self) -> List[Optional[Dict[str, Any]]]:
        """Committed per-point metrics, index-aligned (None = not done).

        Read from the run directory's framed ``result.ckpt`` files, so a
        cancelled job reports exactly its checkpointed partial.
        """
        rd = RunDir(self.run_path)
        out: List[Optional[Dict[str, Any]]] = []
        for i in range(self.n_points):
            cached = rd.load_result(i) if rd.exists() else None
            if cached is None:
                out.append(None)
                continue
            result: ExperimentResult = cached["result"]
            metrics = result.metrics.as_dict()
            metrics.pop("provenance", None)
            out.append(
                {
                    "index": i,
                    "protocol": result.protocol,
                    "memory_kb": result.memory_kb,
                    "rate": result.rate,
                    "seed": result.seed,
                    "metrics": metrics,
                }
            )
        return out


class JobManager:
    """FIFO scenario-job executor with durable restart recovery."""

    def __init__(
        self,
        run_root: Union[str, Path],
        *,
        db_path: Optional[str] = None,
        jobs: Union[int, str, None] = 1,
        every_events: int = DEFAULT_EVERY_EVENTS,
    ) -> None:
        self.run_root = Path(run_root)
        self.run_root.mkdir(parents=True, exist_ok=True)
        self.db_path = db_path
        self.jobs = parse_jobs(jobs)
        self.every_events = int(every_events)
        self.trace_cache: Dict[str, Any] = {}
        self._lock = threading.RLock()
        self._db_lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._counter = 1
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._stop = threading.Event()
        self._abandoned = False
        self._dispatcher: Optional[threading.Thread] = None
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> List[Job]:
        """Recover durable jobs, start the pool (if any) and the dispatcher.

        Returns the jobs re-queued from a previous process's ``queued`` /
        ``running`` state (the kill-and-restart recovery path).
        """
        recovered = self._recover()
        if self.jobs > 1:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._dispatcher.start()
        return recovered

    def stop(self, *, abandon: bool = False, timeout: float = 10.0) -> None:
        """Stop dispatching.

        Graceful (default): the in-flight job checkpoints, transitions back
        to ``queued`` on disk, and every stream closes — a later
        :meth:`start` (same run root) resumes exactly where this left off.

        ``abandon=True`` emulates ``kill -9`` for tests: nothing further is
        persisted, so the durable state still claims ``running``/``queued``
        and recovery has real work to do.
        """
        with self._lock:
            self._abandoned = self._abandoned or abandon
            self._stop.set()
            for job in self._jobs.values():
                if job.state == "running":
                    job.flag.triggered = True
                    job.flag.signum = signal.SIGTERM
        self._queue.put(None)
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=timeout)
        if self._pool is not None:
            self._pool.shutdown(wait=not abandon, cancel_futures=True)
            self._pool = None
        with self._lock:
            for job in self._jobs.values():
                job.stream.close()

    # -- submission / inspection ---------------------------------------------------
    def submit(
        self, source: Union[str, Mapping[str, Any], ScenarioSpec], *, label: str = ""
    ) -> Job:
        """Validate and enqueue one scenario; returns the queued job.

        ``source`` is a manifest dict, a preset name / manifest path, or an
        already-built spec.  Validation failures raise ``ValueError`` before
        anything is enqueued or persisted.
        """
        if isinstance(source, ScenarioSpec):
            spec = source
        elif isinstance(source, str):
            spec = load_scenario(source)
        elif isinstance(source, Mapping):
            spec = ScenarioSpec.from_dict(source)
        else:
            raise ValueError(
                f"scenario must be a dict, preset/path string or spec, "
                f"got {type(source).__name__}"
            )
        spec = spec.validate()
        # the whole transaction holds the lock so concurrent submitters
        # enqueue in id order — FIFO means FIFO even under racing clients
        with self._lock:
            if self._stop.is_set():
                raise RuntimeError("job manager is stopped")
            job_id = f"job-{self._counter:04d}"
            self._counter += 1
            job = Job(job_id, spec, self.run_root / job_id, label=label)
            self._jobs[job_id] = job
            self._order.append(job_id)
            job.path.mkdir(parents=True, exist_ok=True)
            self._persist(job)
            job.stream.publish(
                "job.queued",
                {
                    "id": job.id,
                    "name": spec.name,
                    "n_points": job.n_points,
                    "content_hash": job.content_hash,
                },
            )
            self._queue.put(job_id)
        return job

    def get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"no such job: {job_id!r}")
        return job

    def list_jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[j] for j in self._order]

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: dequeue it, or interrupt its in-flight execution.

        A running job stops at the next checkpoint boundary; every point
        already committed stays committed (the run directory holds a
        resumable partial).  Terminal jobs are a no-op.
        """
        with self._lock:
            job = self.get(job_id)
            if job.state in TERMINAL_STATES:
                return job
            job.cancel_requested = True
            if job.state == "queued":
                self._finish(job, "cancelled", event="job.cancelled")
                return job
            # running: the executor stops at the next dispatched event
            # (serial) or cancels the points not yet started (pool)
            job.flag.triggered = True
            job.flag.signum = signal.SIGTERM
        return job

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        with self._lock:
            for job in self._jobs.values():
                out[job.state] = out.get(job.state, 0) + 1
        return out

    # -- durable state --------------------------------------------------------------
    def _persist(self, job: Job) -> None:
        if self._abandoned:
            return  # emulated hard kill: the durable state stays stale
        atomic_write_bytes(
            job.path / JOB_FILE,
            json.dumps(job.durable_dict(), indent=2, sort_keys=True).encode("utf-8"),
        )

    def _recover(self) -> List[Job]:
        """Load every durable job record; re-queue the unfinished ones."""
        recovered: List[Job] = []
        records: List[Dict[str, Any]] = []
        for child in sorted(self.run_root.iterdir()):
            job_file = child / JOB_FILE
            if not job_file.is_file():
                continue
            try:
                data = json.loads(job_file.read_text(encoding="utf-8"))
                spec = stored_scenario(
                    data["scenario"], data.get("content_hash"), JOB_FILE
                )
            except (OSError, ValueError, KeyError, CheckpointError) as exc:
                raise CheckpointError(
                    f"unreadable job record {job_file}: {exc}"
                ) from exc
            records.append({"path": child, "spec": spec, "data": data})
        records.sort(key=lambda r: (r["data"].get("submitted_at") or 0, r["data"]["id"]))
        with self._lock:
            for rec in records:
                data = rec["data"]
                job = Job(
                    data["id"],
                    rec["spec"],
                    rec["path"],
                    label=data.get("label", ""),
                    submitted_at=data.get("submitted_at"),
                )
                job.started_at = data.get("started_at")
                job.finished_at = data.get("finished_at")
                job.error = data.get("error")
                job.done_points = int(data.get("done_points") or 0)
                job.recorded = data.get("recorded")
                previous = data.get("state", "queued")
                self._jobs[job.id] = job
                self._order.append(job.id)
                try:
                    n = int(job.id.rsplit("-", 1)[-1])
                except ValueError:
                    n = 0
                self._counter = max(self._counter, n + 1)
                if previous in TERMINAL_STATES:
                    job.state = previous
                    job.stream.publish(f"job.{previous}", job.as_dict())
                    job.stream.close()
                    continue
                job.state = "queued"
                self._persist(job)
                job.stream.publish(
                    "job.requeued", {"id": job.id, "previous_state": previous}
                )
                recovered.append(job)
        for job in recovered:
            self._queue.put(job.id)
        return recovered

    # -- dispatch --------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            if job_id is None:
                return
            job = self._jobs.get(job_id)
            if job is None or job.state != "queued":
                continue
            try:
                self._execute(job)
            except Exception as exc:  # never kill the dispatcher
                self._fail(job, f"{type(exc).__name__}: {exc}")

    def _publish_finished_point(
        self, job: Job, index: int, result: ExperimentResult,
        seconds: Optional[float],
    ) -> None:
        if index not in job._done_indexes:
            job._done_indexes.add(index)
            job.done_points = len(job._done_indexes)
        elapsed = time.time() - (job.started_at or time.time())
        remaining = job.n_points - job.done_points
        eta = (
            elapsed / job.done_points * remaining if job.done_points else None
        )
        metrics = result.metrics.as_dict()
        metrics.pop("provenance", None)
        job.stream.publish(
            "point.finished",
            {
                "index": index,
                "total": job.n_points,
                "done": job.done_points,
                "protocol": result.protocol,
                "memory_kb": result.memory_kb,
                "rate": result.rate,
                "seed": result.seed,
                "seconds": seconds,
                "eta_seconds": round(eta, 3) if eta is not None else None,
                "metrics": metrics,
            },
        )

    def _execute(self, job: Job) -> None:
        with self._lock:
            if job.cancel_requested or self._stop.is_set():
                if job.state not in TERMINAL_STATES:
                    self._finish(job, "cancelled", event="job.cancelled")
                return
            job.state = "running"
            job.started_at = time.time()
        self._persist(job)
        job.stream.publish("job.started", {"id": job.id, "n_points": job.n_points})
        try:
            rd = create_run(
                job.run_path, job.spec, every_events=self.every_events
            )
        except CheckpointError as exc:
            self._fail(job, str(exc))
            return

        def progress(ev: ProgressEvent) -> None:
            if ev.kind == "started":
                job.stream.publish(
                    "point.started",
                    {
                        "index": ev.index,
                        "total": ev.total,
                        "protocol": ev.protocol,
                        "memory_kb": ev.memory_kb,
                        "rate": ev.rate,
                        "seed": ev.seed,
                        "pid": ev.pid,
                    },
                )
            else:
                self._publish_finished_point(job, ev.index, ev.result, ev.seconds)

        try:
            res, _infos = run_resumable(
                job.spec,
                rd,
                every_events=self.every_events,
                progress=progress,
                flag=job.flag,
                trace_cache=self.trace_cache,
                pool=self._pool,
            )
        except SweepInterrupted as exc:
            self._interrupted(job, exc.results)
            return
        except Exception as exc:
            self._fail(job, f"{type(exc).__name__}: {exc}")
            return
        self._record(job, ingest_scenario_result, res)
        self._finish(job, "done", event="job.finished")

    # -- transitions -----------------------------------------------------------------
    def _finish(self, job: Job, state: str, *, event: str) -> None:
        job.state = state
        job.finished_at = time.time()
        self._persist(job)
        job.stream.publish(event, job.as_dict())
        job.stream.close()

    def _fail(self, job: Job, error: str) -> None:
        if job.state in TERMINAL_STATES:
            return
        job.error = error
        self._finish(job, "failed", event="job.failed")

    def _interrupted(
        self, job: Job, results: List[Optional[ExperimentResult]]
    ) -> None:
        """A job stopped early: user cancel, or a (graceful) shutdown.

        Either way the run directory keeps every committed point.  The
        partial is recorded (content-hash dedup makes the eventual full
        recording skip these points), then: cancel -> terminal
        ``cancelled``; shutdown -> durable ``queued`` so the next start
        resumes it.
        """
        self._record(
            job, ingest_experiment_results, results,
            kind="scenario", label=f"{job.spec.name or 'scenario'}:partial",
        )
        if self._abandoned:
            return  # emulated hard kill: no further persistence
        if job.cancel_requested:
            self._finish(job, "cancelled", event="job.cancelled")
            return
        job.state = "queued"
        self._persist(job)
        job.stream.publish(
            "job.interrupted",
            {"id": job.id, "done": job.done_points, "total": job.n_points},
        )
        job.stream.close()

    # -- store recording -------------------------------------------------------------
    def _record(self, job: Job, ingest, *args, **kwargs) -> None:
        """``ingest(db, *args, **kwargs)`` into the store, when serving one;
        a recording that stored anything is noted on the job."""
        if self.db_path is None:
            return
        with self._db_lock, ExperimentDB(self.db_path) as db:
            stats = ingest(db, *args, **kwargs)
        if stats.runs:
            job.recorded = str(stats)
