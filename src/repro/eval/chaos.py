"""Executor-level chaos harness: inject failures, assert recovery + parity.

``repro resilience`` degrades the *simulated* DTN (landmark outages, node
churn — see :mod:`repro.sim.faults`); this module degrades the *executor*
itself: runs crash between checkpoints, checkpoint files are truncated,
the experiment store's write lock is held by a rival connection.  A chaos
run passes only if the execution plane recovers *and* the recovered
metrics are bit-identical to an undisturbed baseline — the executor
analogue of the resilience gate.

The injection plan is a :class:`ChaosSpec`.  Every knob is deterministic:
an explicit plan replays exactly, and the ``seed`` derives a concrete plan
for whatever grid it meets, so CI can run ``repro chaos --seed k`` without
hand-picking targets.  See docs/reliability.md.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.eval.resume import create_run, resume_run, run_resumable
from repro.eval.scenario import ScenarioResult, ScenarioSpec
from repro.obs import events as event_types
from repro.sim.checkpoint import SimulatedCrash

__all__ = [
    "ChaosReport",
    "ChaosSpec",
    "chaos_summary_lines",
    "hold_store_lock",
    "run_chaos",
    "truncate_newest_checkpoint",
]


@dataclass(frozen=True)
class ChaosSpec:
    """A deterministic executor-failure injection plan.

    ``point`` indexes the scenario grid (grid order); ``interrupt_after``
    crashes the engine right after its n-th checkpoint commit;
    ``truncate_checkpoint`` additionally corrupts the newest checkpoint
    before resuming (the resume must fall back to its predecessor, so pair
    it with ``interrupt_after >= 2``); ``hold_store_lock_ms`` has a rival
    connection hold the SQLite write lock while results are recorded.
    Unset knobs are derived from ``seed`` by :meth:`resolve`.
    """

    seed: int = 0
    point: Optional[int] = None
    interrupt_after: Optional[int] = None
    truncate_checkpoint: bool = False
    hold_store_lock_ms: Optional[int] = None

    def resolve(self, n_points: int) -> "ChaosSpec":
        """Pin every unset knob deterministically from the seed."""
        if n_points <= 0:
            raise ValueError("cannot resolve a chaos plan for an empty grid")
        point = self.point if self.point is not None else self.seed % n_points
        interrupt = self.interrupt_after
        if interrupt is None:
            interrupt = 2 if self.truncate_checkpoint else 1 + self.seed % 2
        return dataclasses.replace(self, point=point, interrupt_after=interrupt)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"seed": self.seed, "point": self.point}
        if self.interrupt_after is not None:
            out["interrupt_after"] = self.interrupt_after
        if self.truncate_checkpoint:
            out["truncate_checkpoint"] = True
        if self.hold_store_lock_ms is not None:
            out["hold_store_lock_ms"] = self.hold_store_lock_ms
        return out


@dataclass
class ChaosReport:
    """Outcome of one chaos run: did we recover, and to the same numbers?"""

    ok: bool
    plan: Dict[str, Any]
    n_points: int
    resumed: bool
    recovery_events: Dict[str, int] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "chaos",
            "ok": self.ok,
            "plan": dict(self.plan),
            "n_points": self.n_points,
            "resumed": self.resumed,
            "recovery_events": dict(self.recovery_events),
            "mismatches": list(self.mismatches),
            "notes": list(self.notes),
        }


def truncate_newest_checkpoint(point_dir: Union[str, Path]) -> Optional[Path]:
    """Corrupt the newest serial checkpoint under ``point_dir`` (chop it in
    half), returning its path — the resume must skip it and fall back."""
    paths = sorted((Path(point_dir) / "serial").glob("serial-*.ckpt"))
    if not paths:
        return None
    victim = paths[-1]
    size = victim.stat().st_size
    with open(victim, "r+b") as fh:
        fh.truncate(max(1, size // 2))
    return victim


def hold_store_lock(db_path: Union[str, Path], hold_ms: int) -> threading.Thread:
    """Grab the SQLite write lock on ``db_path`` from a rival connection and
    hold it for ``hold_ms`` milliseconds (in a background thread).

    Returns once the lock is actually held, so a recording attempt started
    right after this call is guaranteed to contend — exercising the
    store's ``busy_timeout``/retry hardening.
    """
    import sqlite3

    acquired = threading.Event()

    def holder() -> None:
        conn = sqlite3.connect(str(db_path))
        try:
            conn.execute("BEGIN IMMEDIATE")
            acquired.set()
            time.sleep(hold_ms / 1000.0)
            conn.execute("COMMIT")
        finally:
            acquired.set()  # never leave the caller waiting, even on error
            conn.close()

    thread = threading.Thread(target=holder, name="repro-chaos-lock", daemon=True)
    thread.start()
    acquired.wait(timeout=10.0)
    return thread


def _metric_values(summary: Any) -> Dict[str, float]:
    """The numeric metric values of one summary — the parity contract.

    Provenance and phase timings legitimately differ between a clean run
    and a recovered one; the metric *values* must not.
    """
    out: Dict[str, float] = {}
    for key, value in summary.as_dict().items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[str(key)] = float(value)
    return out


def run_chaos(
    spec: ScenarioSpec,
    chaos: ChaosSpec,
    run_dir: Union[str, Path],
    *,
    every_events: int = 50_000,
    baseline: Optional[ScenarioResult] = None,
) -> Tuple[ChaosReport, ScenarioResult]:
    """Run ``spec`` under the ``chaos`` injection plan and judge recovery.

    Three acts:

    1. an undisturbed baseline run (serial, or ``baseline`` if the caller
       already has one — metrics are execution-mode-invariant);
    2. the chaos run inside ``run_dir`` with the injection armed — the
       crash leaves the directory ready to resume (optionally with its
       newest checkpoint truncated first);
    3. if act 2 crashed, ``resume_run`` finishes the directory with the
       injection disarmed.

    The report is ``ok`` only if every point's metric values match the
    baseline exactly *and* the expected ``executor.*`` recovery events
    were emitted; for a built-in profile trace, a serial crash's resume
    must also have read the trace back from the run directory rather
    than rebuilding it.  ``repro chaos`` exits non-zero otherwise.
    """
    plan = chaos.resolve(spec.n_points())
    report = ChaosReport(
        ok=False, plan=plan.as_dict(), n_points=spec.n_points(), resumed=False
    )

    if baseline is None:
        from repro.eval.scenario import run_scenario

        baseline = run_scenario(spec)
    base_values = [_metric_values(r.metrics) for r in baseline.results]

    rd = create_run(run_dir, spec, every_events=every_events)
    injections = {plan.point: {"crash_after_saves": plan.interrupt_after}}

    try:
        result, _ = run_resumable(
            spec, rd, every_events=every_events, injections=injections
        )
        report.notes.append("chaos run completed in one pass (the crash never fired)")
    except SimulatedCrash as exc:
        report.notes.append(f"injected crash fired: {exc}")
        if plan.truncate_checkpoint:
            victim = truncate_newest_checkpoint(rd.point_dir(plan.point))
            report.notes.append(
                f"truncated newest checkpoint: {victim.name if victim else 'none found'}"
            )
        result, _, _ = resume_run(rd.path)
        report.resumed = True

    # -- judge ---------------------------------------------------------------
    for i, (base, got) in enumerate(
        zip(base_values, (_metric_values(r.metrics) for r in result.results))
    ):
        if base != got:
            diffs = sorted(
                k for k in set(base) | set(got) if base.get(k) != got.get(k)
            )
            report.mismatches.append(f"point {i}: metrics differ on {diffs}")

    counts: Dict[str, int] = {}
    trace_sources = set()
    for record in rd.recovery_log().records():
        counts[record["event"]] = counts.get(record["event"], 0) + 1
        if record["event"] == event_types.EXECUTOR_RESUME and "trace" in record:
            trace_sources.add(record["trace"])
    report.recovery_events = counts

    recovered = True
    if not counts.get(event_types.EXECUTOR_RESUME):
        report.mismatches.append(
            "no executor.resume event — the crashed run never restored "
            "from its checkpoint"
        )
        recovered = False
    elif spec.trace.profile is not None and "run-dir" not in trace_sources:
        report.mismatches.append(
            "the resume did not read its profile trace back from the run "
            f"directory (trace sources: {sorted(trace_sources)})"
        )
        recovered = False

    report.ok = recovered and not report.mismatches
    return report, result


def chaos_summary_lines(report: ChaosReport) -> List[str]:
    """Human-readable report body for the CLI."""
    lines = [
        f"chaos plan: {report.plan}",
        f"points: {report.n_points}  resumed: {report.resumed}",
    ]
    if report.recovery_events:
        lines.append("recovery events:")
        for name, count in sorted(report.recovery_events.items()):
            lines.append(f"  {name}: {count}")
    for note in report.notes:
        lines.append(f"note: {note}")
    for mismatch in report.mismatches:
        lines.append(f"MISMATCH: {mismatch}")
    lines.append("chaos: OK (recovered, metrics bit-identical)"
                 if report.ok else "chaos: FAILED")
    return lines
