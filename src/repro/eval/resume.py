"""Resumable scenario runs: one durable run directory per sweep.

A *run directory* (see :class:`~repro.sim.checkpoint.RunDir`) makes a
scenario execution crash-safe end to end:

* the manifest pins the fully-resolved scenario and its content hash, so a
  resume can never silently continue a *different* experiment;
* every finished sweep point is committed as a framed
  ``points/<i>/result.ckpt`` the moment it completes — a later crash never
  re-runs it;
* the in-flight point checkpoints every N dispatched events
  (:class:`~repro.sim.checkpoint.SerialCheckpointer`), so even the
  interrupted point resumes mid-run;
* all recovery actions land in ``recovery.jsonl`` as ``executor.*``
  events.

:func:`run_resumable` is create-or-continue: pointed at a fresh directory
it runs the whole grid; pointed at a partial one it skips committed points
and restarts the rest from their newest checkpoints.  ``repro resume``
(and ``--run-dir`` on ``repro scenario run``) are thin CLI shims over
:func:`resume_run`.  Metrics are bit-identical to an uninterrupted run —
the regression gate (``repro db regress`` at zero tolerance) holds across
any kill/resume sequence.  See docs/reliability.md.

Run directories and ``repro serve`` job records written while sharded
execution existed may hold a scenario with a ``shards`` key, which
:class:`ScenarioSpec` now refuses; :func:`stored_scenario` reads them, and
such a run continues on the serial engine.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.eval.runner import ProgressFn, execute
from repro.eval.scenario import ScenarioResult, ScenarioSpec
from repro.sim.checkpoint import (
    DEFAULT_EVERY_EVENTS,
    CheckpointError,
    InterruptFlag,
    RunDir,
)
from repro.store.db import content_hash

__all__ = [
    "MANIFEST_VERSION",
    "create_run",
    "open_run",
    "resume_run",
    "run_resumable",
    "stored_scenario",
]

MANIFEST_VERSION = 1


def stored_scenario(scenario: Any, declared: Any, where: str) -> ScenarioSpec:
    """The spec a run directory or job record stored, hash-checked.

    ``declared`` is the content hash stored beside ``scenario`` and is
    checked against the scenario exactly as stored, so an edited or
    corrupted record fails loudly instead of continuing a different
    experiment.  A record written while sharded execution existed may
    carry a ``shards`` key, which that hash covers; it is dropped after
    the check and the run continues on the serial engine (any ``shard*/``
    or ``barrier-*.ckpt`` files it left are never read).
    """
    if not isinstance(scenario, Mapping):
        raise CheckpointError(f"{where}: no scenario block")
    actual = content_hash(scenario)
    if declared != actual:
        raise CheckpointError(
            f"{where}: content hash mismatch (declared {declared!r}, the "
            f"stored scenario hashes to {actual!r}); it was edited or "
            "corrupted — not resuming"
        )
    return ScenarioSpec.from_dict(
        {key: value for key, value in scenario.items() if key != "shards"}
    )


def create_run(
    path: Union[str, Path],
    spec: ScenarioSpec,
    *,
    every_events: int = DEFAULT_EVERY_EVENTS,
) -> RunDir:
    """Create a run directory for ``spec``; refuses to clobber another run.

    The manifest stores the *normalized* scenario (``as_dict`` round-trip)
    plus its content hash; :func:`open_run` re-hashes on load so a resume
    against an edited or corrupted manifest fails loudly instead of
    continuing the wrong experiment.
    """
    rd = RunDir(path)
    scenario = spec.validate().as_dict()
    if rd.exists():
        existing = rd.read_manifest()
        held = stored_scenario(
            existing.get("scenario"), existing.get("content_hash"),
            f"{rd.path}: manifest",
        ).as_dict()
        if content_hash(held) != content_hash(scenario):
            raise CheckpointError(
                f"{rd.path} already holds a different scenario "
                f"(hash {existing.get('content_hash')!r}); refusing to reuse it"
            )
        return rd
    manifest = {
        "version": MANIFEST_VERSION,
        "kind": "scenario-run",
        "scenario": scenario,
        "content_hash": content_hash(scenario),
        "every_events": int(every_events),
    }
    return RunDir.create(path, manifest)


def open_run(path: Union[str, Path]) -> Tuple[RunDir, ScenarioSpec, int]:
    """Open an existing run directory, verifying its manifest hash.

    Returns ``(run_dir, spec, every_events)``.
    """
    rd = RunDir(path)
    manifest = rd.read_manifest()
    version = manifest.get("version")
    if version != MANIFEST_VERSION:
        raise CheckpointError(
            f"{rd.path}: unsupported run-directory version {version!r} "
            f"(this package writes {MANIFEST_VERSION})"
        )
    spec = stored_scenario(
        manifest.get("scenario"), manifest.get("content_hash"),
        f"{rd.path}: manifest",
    )
    every = int(manifest.get("every_events") or DEFAULT_EVERY_EVENTS)
    return rd, spec, every


def run_resumable(
    spec: ScenarioSpec,
    run_dir: RunDir,
    *,
    every_events: int = DEFAULT_EVERY_EVENTS,
    injections: Optional[Mapping[int, Mapping[str, Any]]] = None,
    progress: Optional[ProgressFn] = None,
    flag: Optional[InterruptFlag] = None,
    trace_cache: Optional[Dict[str, Any]] = None,
    pool: Optional[ProcessPoolExecutor] = None,
) -> Tuple[ScenarioResult, List[Optional[Dict[str, Any]]]]:
    """Run (or continue) every point of ``spec`` inside ``run_dir``.

    The scenario-level form of :func:`~repro.eval.runner.execute` with a
    run directory: committed points are skipped outright; the rest execute
    with checkpointing on, through :meth:`Simulation.run_checkpointed`
    resuming from whatever checkpoints the directory already holds — or,
    given a long-lived ``pool``, over its workers, each result committed as
    it lands.

    A deferred SIGINT/SIGTERM flushes the in-flight point's state and
    raises :class:`~repro.eval.runner.SweepInterrupted` carrying the
    completed results (index-aligned, ``None`` for unfinished) so callers
    can record the partial sweep; re-invoking with the same directory
    finishes it.

    ``injections`` is the chaos hook: a per-point-index mapping of the
    executor's injection keys (``crash_after_saves``, ``pool_exit``,
    ``pool_raise``).  Production callers leave it ``None``.

    Job-level hooks (used by ``repro serve``, harmless elsewhere):

    * ``progress`` receives a :class:`~repro.eval.runner.ProgressEvent`
      as each point starts and finishes.  Points restored from a committed
      ``result.ckpt`` emit a single ``finished`` event with
      ``seconds=None`` so consumers can count them without re-timing them.
    * ``flag`` supplies an externally-owned
      :class:`~repro.sim.checkpoint.InterruptFlag`; setting its
      ``triggered`` attribute from another thread cancels the run at the
      next dispatched event (in-flight state flushed, the usual
      :class:`SweepInterrupted` raised).  Default: a fresh flag wired to
      SIGINT/SIGTERM (signal handlers only install on the main thread).
    * ``trace_cache`` (keyed by trace-spec key) shares materialized traces
      across calls, so a long-running server rebuilds each trace once.
    """
    profile, tspec, materialized = spec.resolve_trace()
    entries = spec.entries(profile, tspec)
    traces = trace_cache if trace_cache is not None else {}
    for key, trace in materialized.items():
        traces.setdefault(key, trace)
    with (flag if flag is not None else InterruptFlag()) as flag:
        results, infos = execute(
            entries,
            run_dir=run_dir,
            every_events=every_events,
            progress=progress,
            cancel=flag,
            traces=traces,
            injections=injections,
            pool=pool,
        )
    points = [point for _, point, _ in entries]
    return ScenarioResult(spec=spec, points=points, results=results), infos


def resume_run(
    path: Union[str, Path],
) -> Tuple[ScenarioResult, List[Optional[Dict[str, Any]]], ScenarioSpec]:
    """Continue the run in ``path`` from its last complete checkpoints.

    The scenario and checkpoint cadence both come from the manifest, so a
    resume cannot drift from the original invocation.
    """
    rd, spec, every = open_run(path)
    result, infos = run_resumable(spec, rd, every_events=every)
    return result, infos, spec
