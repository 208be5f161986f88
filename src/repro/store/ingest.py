"""Ingestion: turn every exported result shape into stored rows.

:func:`ingest_payload` is the one path that writes point rows.  Shapes
understood:

* ``repro scenario run --out`` bundles (``{"scenario": ..., "results":
  [...]}``, :meth:`~repro.eval.scenario.ScenarioResult.as_dict`): the run
  row carries the scenario, and when it sweeps, each point row carries
  its sweep parameter and value (the Figs. 11-14 families of
  ``repro db report``);
* ``repro run/compare --json`` rows — anything whose metrics carry a
  :class:`RunProvenance` with a resolved scenario;
* ``repro compare --seeds N`` confidence rows (metric means ride in with
  their CI half-widths, which ``repro db query`` shows);
* ``repro resilience --out`` reports (``{"degradation", "config"}``);
* benchmark wall-clock snapshots (``BENCH_sweeps.json``, single snapshot
  or the appended ``history`` form);
* ``repro profile --out`` documents (``kind: "profile"``): a ``profile``
  run whose run metrics are the wall-clock and per-phase seconds and
  calls behind the per-phase trend.

Live recording takes the same path: ``--record`` ingests the exported
form of what the command ran (:func:`ingest_scenario_result` and
:func:`ingest_experiment_results` are one-call adapters), so a recording
and a later ``repro db ingest`` of the command's artifact write equal
point rows.

Deduplication is content-addressed (see :mod:`repro.store.db`): the point
key is the fully-resolved single-point scenario dict, so re-ingesting the
same artifact — or re-recording a bit-identical rerun — is a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.obs.provenance import _jsonable
from repro.store.db import ExperimentDB, content_hash

__all__ = [
    "IngestStats",
    "ingest_bench_snapshot",
    "ingest_experiment_results",
    "ingest_payload",
    "ingest_profile",
    "ingest_scenario_result",
]


@dataclass
class IngestStats:
    """What one ingestion did: runs created, points inserted vs deduped."""

    runs: int = 0
    points_new: int = 0
    points_dup: int = 0

    def add(self, other: "IngestStats") -> "IngestStats":
        self.runs += other.runs
        self.points_new += other.points_new
        self.points_dup += other.points_dup
        return self

    def count(self, new: Optional[bool]) -> None:
        """Count one point: new, already recorded, or (None) not stored."""
        if new is not None:
            self.points_new += int(new)
            self.points_dup += int(not new)

    @property
    def points(self) -> int:
        return self.points_new + self.points_dup

    def __str__(self) -> str:
        return (
            f"{self.runs} run(s), {self.points} point(s): "
            f"{self.points_new} new, {self.points_dup} already recorded"
        )


#: numeric MetricsSummary fields worth storing (strings/structures skipped)
def _numeric_metrics(row: Mapping[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key, value in row.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[str(key)] = float(value)
    return out


def _scenario_workload(scenario: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """Pull (trace-independent) workload knobs back out of a scenario dict."""
    out: Dict[str, Any] = {}
    if not isinstance(scenario, Mapping):
        return out
    sim = scenario.get("sim")
    if isinstance(sim, Mapping):
        if isinstance(sim.get("node_memory_kb"), (int, float)):
            out["memory_kb"] = float(sim["node_memory_kb"])
        if isinstance(sim.get("rate_per_landmark_per_day"), (int, float)):
            out["rate"] = float(sim["rate_per_landmark_per_day"])
    seeds = scenario.get("seeds")
    if isinstance(seeds, Sequence) and len(seeds) == 1 and isinstance(seeds[0], int):
        out["seed"] = int(seeds[0])
    return out


def _fallback_identity(
    protocol: str,
    trace: str,
    seed: Optional[int],
    memory_kb: Optional[float],
    rate: Optional[float],
    config: Optional[Mapping[str, Any]],
) -> Dict[str, Any]:
    """A canonical identity for results without an embedded scenario
    (inline traces); includes the resolved config so distinct workloads
    never collide."""
    return _jsonable(
        {
            "kind": "unscenarioed",
            "protocol": protocol,
            "trace": trace,
            "seed": seed,
            "memory_kb": memory_kb,
            "rate": rate,
            "config": dict(config) if config else None,
        }
    )


def _record_metrics_row(
    db: ExperimentDB,
    run_id: int,
    row: Mapping[str, Any],
    *,
    sweep_parameter: Optional[str] = None,
) -> Optional[bool]:
    """Record one MetricsSummary-shaped dict; returns whether it was new
    (None when the row holds no metrics).

    A ``sweep_parameter`` (``memory_kb`` or ``rate``) takes its value from
    the point's own resolved workload.
    """
    metrics = _numeric_metrics(row)
    if not metrics:
        return None
    prov = row.get("provenance")
    scenario = None
    seed = None
    config = None
    if isinstance(prov, Mapping):
        scenario = prov.get("scenario")
        seed = prov.get("seed")
        config = prov.get("config")
    protocol = str(row.get("protocol") or (prov or {}).get("protocol") or "?")
    trace = str(row.get("trace") or (prov or {}).get("trace") or "")
    workload = _scenario_workload(scenario)
    memory_kb = workload.get("memory_kb")
    rate = workload.get("rate")
    seed = workload.get("seed", seed)
    if scenario is None:
        scenario = _fallback_identity(protocol, trace, seed, memory_kb, rate, config)
    _, new = db.record_point(
        run_id,
        scenario,
        metrics,
        protocol=protocol,
        trace=trace,
        seed=seed,
        memory_kb=memory_kb,
        rate=rate,
        sweep_parameter=sweep_parameter,
        sweep_value=workload.get(sweep_parameter) if sweep_parameter else None,
    )
    return new


def ingest_experiment_results(
    db: ExperimentDB,
    results: Iterable[Any],
    *,
    kind: str = "run",
    label: str = "",
) -> IngestStats:
    """Ingest :class:`~repro.eval.experiment.ExperimentResult` objects as
    the metric rows ``repro run/compare --json`` exports.

    ``None`` entries — the unfinished points of an interrupted grid — are
    skipped, so a partial result list records what did complete.
    """
    rows = [r.metrics.as_dict() for r in results if r is not None]
    return ingest_payload(db, rows, kind=kind, label=label) if rows else IngestStats()


def ingest_scenario_result(
    db: ExperimentDB, result: Any, *, kind: str = "scenario", label: str = ""
) -> IngestStats:
    """Ingest a :class:`~repro.eval.scenario.ScenarioResult` as the bundle
    ``repro scenario run --out`` exports."""
    return ingest_payload(db, result.as_dict(), kind=kind, label=label)


def _ingest_scenario_bundle(
    db: ExperimentDB, bundle: Mapping[str, Any], *, kind: str, label: str
) -> IngestStats:
    """Ingest a ``{"scenario", "results"}`` bundle (``repro scenario run --out``)."""
    scenario = bundle["scenario"]
    sweep = scenario.get("sweep")
    parameter = sweep.get("parameter") if isinstance(sweep, Mapping) else None
    run_id = db.record_run(
        kind, label=label or str(scenario.get("name", "")),
        extra={"scenario": scenario},
    )
    stats = IngestStats(runs=1)
    for row in bundle["results"]:
        if isinstance(row, Mapping):
            stats.count(
                _record_metrics_row(db, run_id, row, sweep_parameter=parameter)
            )
    return stats


def _ingest_degradation(
    db: ExperimentDB,
    curves: Mapping[str, Any],
    *,
    config: Optional[Mapping[str, Any]],
    kind: str,
    label: str,
) -> IngestStats:
    """Ingest degradation curves (``DegradationCurves.as_dict``).

    A point's identity is its trace, protocol, intensity and fault seed,
    plus the baseline config when the report carries one.  Every point is
    checked before anything is written.
    """
    by_protocol = curves.get("curves") or {}
    if not isinstance(by_protocol, Mapping):
        raise ValueError("degradation 'curves' must map each protocol to its points")
    for protocol, points in by_protocol.items():
        if not isinstance(points, list):
            raise ValueError(f"degradation curve {protocol!r} is not a list of points")
        for i, p in enumerate(points):
            intensity = p.get("intensity") if isinstance(p, Mapping) else None
            if isinstance(intensity, bool) or not isinstance(intensity, (int, float)):
                raise ValueError(
                    f"degradation curve {protocol!r}, point {i}: no numeric 'intensity'"
                )
    trace = str(curves.get("trace", ""))
    fault_seed = curves.get("fault_seed", 0)
    run_id = db.record_run(
        kind,
        label=label or trace,
        extra={
            "trace": trace,
            "intensities": list(curves.get("intensities") or []),
            "fault_seed": fault_seed,
        },
    )
    stats = IngestStats(runs=1)
    for protocol, points in sorted(by_protocol.items()):
        for p in points:
            identity: Dict[str, Any] = {
                "kind": "degradation",
                "trace": trace,
                "protocol": protocol,
                "intensity": p["intensity"],
                "fault_seed": fault_seed,
            }
            if config is not None:
                identity["config"] = _jsonable(config)
            # intensity is the point's identity, not one of its results
            metrics = {
                k: v for k, v in _numeric_metrics(p).items() if k != "intensity"
            }
            _, new = db.record_point(
                run_id,
                identity,
                metrics,
                protocol=str(protocol),
                trace=trace,
                sweep_parameter="intensity",
                sweep_value=float(p["intensity"]),
            )
            stats.count(new)
    return stats


# -- benchmark snapshots -------------------------------------------------------


def _flatten_numeric(prefix: str, node: Any, out: Dict[str, float]) -> None:
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        out[prefix] = float(node)
    elif isinstance(node, Mapping):
        for key, value in node.items():
            _flatten_numeric(f"{prefix}.{key}" if prefix else str(key), value, out)


#: snapshot keys kept in a bench run's ``extra``: when it ran, how, and the
#: host fingerprint (cores, python, numpy, platform, scale, commit)
_BENCH_EXTRA = ("timestamp", "jobs", "cpu_count", "python", "numpy", "platform",
                "full_scale", "git_sha")


def ingest_bench_snapshot(
    db: ExperimentDB, snapshot: Mapping[str, Any], *, label: str = ""
) -> IngestStats:
    """Ingest one benchmark wall-clock snapshot as a ``bench`` run.

    The whole snapshot is content-hashed for run-level dedup, so
    re-ingesting an already-stored history file is a no-op.
    """
    stats = IngestStats()
    run_id = db.record_run(
        "bench",
        label=label or str(snapshot.get("timestamp", "")),
        extra={k: v for k, v in snapshot.items() if k in _BENCH_EXTRA},
        run_hash=content_hash({"bench_snapshot": snapshot}),
        created_at=_bench_created_at(snapshot),
    )
    if run_id is None:
        return stats
    stats.runs += 1
    values: Dict[str, float] = {}
    if isinstance(snapshot.get("suite_seconds"), (int, float)):
        values["suite_seconds"] = float(snapshot["suite_seconds"])
    if isinstance(snapshot.get("max_rss_kb"), (int, float)):
        values["max_rss_kb"] = float(snapshot["max_rss_kb"])
    _flatten_numeric("figures", snapshot.get("figures") or {}, values)
    _flatten_numeric("parallel", snapshot.get("parallel") or {}, values)
    if values:
        db.record_run_metrics(run_id, values)
    return stats


def _bench_created_at(snapshot: Mapping[str, Any]) -> Optional[str]:
    ts = snapshot.get("timestamp")
    return str(ts) if isinstance(ts, str) and ts else None


def _ingest_bench_payload(
    db: ExperimentDB, payload: Mapping[str, Any], *, label: str = ""
) -> IngestStats:
    stats = IngestStats()
    history = payload.get("history")
    if isinstance(history, Sequence):
        for snap in history:
            if isinstance(snap, Mapping):
                stats.add(ingest_bench_snapshot(db, snap, label=label))
    else:
        stats.add(ingest_bench_snapshot(db, payload, label=label))
    return stats


# -- performance profiles ------------------------------------------------------


def ingest_profile(
    db: ExperimentDB, payload: Mapping[str, Any], *, label: str = ""
) -> IngestStats:
    """Ingest a ``repro profile --out`` document (``kind: "profile"``).

    One ``profile`` run with run metrics ``wall_seconds`` and, per phase,
    ``phase.<name>.seconds`` / ``phase.<name>.calls`` (the per-phase trend
    of ``repro db report``); its ``extra`` carries ``recorded_at`` and the
    profiled scenario's content hash.  The whole payload is content-hashed
    for run-level dedup — re-ingesting the same profile file is a no-op.
    Every phase needs a number ``seconds`` and an integer ``calls`` (a
    bool is neither); anything else is a ``ValueError`` naming the phase
    and the field, raised before any row is written.
    """
    phases = payload.get("phases")
    values: Dict[str, float] = {}
    for name, rec in phases.items() if isinstance(phases, Mapping) else ():
        if not isinstance(rec, Mapping):
            raise ValueError(f"profile phase {name!r} is not an object")
        seconds, calls = rec.get("seconds"), rec.get("calls")
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
            raise _bad_phase_field(name, rec, "seconds", "a number")
        if isinstance(calls, bool) or not isinstance(calls, int):
            raise _bad_phase_field(name, rec, "calls", "an integer")
        values[f"phase.{name}.seconds"] = float(seconds)
        values[f"phase.{name}.calls"] = calls
    if not values:
        raise ValueError("profile payload has no 'phases' to ingest")
    wall = payload.get("wall_seconds")
    if isinstance(wall, bool) or not isinstance(wall, (int, float)):
        raise ValueError("profile payload has no numeric 'wall_seconds'")
    values["wall_seconds"] = float(wall)
    scenario = payload.get("scenario")
    scenario_hash = content_hash(scenario) if isinstance(scenario, Mapping) else ""
    # the payload's own label wins: ingest callers default to the file
    # path, which would split one profiled workload into per-file families
    run_id = db.record_run(
        "profile",
        label=str(payload.get("label") or label or ""),
        extra={"recorded_at": payload.get("recorded_at"),
               "scenario_hash": scenario_hash},
        run_hash=content_hash({"profile": payload}),
        created_at=payload.get("recorded_at") or None,
    )
    if run_id is None:
        return IngestStats()
    db.record_run_metrics(run_id, values)
    return IngestStats(runs=1, points_new=1)


def _bad_phase_field(
    name: str, rec: Mapping[str, Any], key: str, want: str
) -> ValueError:
    got = repr(rec[key]) if key in rec else "nothing"
    return ValueError(f"profile phase {name!r}: {key!r} must be {want}, got {got}")


# -- generic payload dispatch --------------------------------------------------


def _looks_like_metrics_row(node: Mapping[str, Any]) -> bool:
    return "success_rate" in node and isinstance(
        node.get("success_rate"), (int, float)
    )


def _looks_like_ci_row(node: Mapping[str, Any]) -> bool:
    metrics = node.get("metrics")
    return (
        "protocol" in node
        and isinstance(metrics, Mapping)
        and metrics
        and all(
            isinstance(v, Mapping) and "mean" in v for v in metrics.values()
        )
    )


def _record_ci_row(
    db: ExperimentDB, run_id: int, row: Mapping[str, Any]
) -> Optional[bool]:
    """Record a ``repro compare --seeds N`` confidence row (means + CIs);
    returns whether it was new (None when it holds no means)."""
    identity = _jsonable(
        {
            "kind": "compare-ci",
            "protocol": row.get("protocol"),
            "trace": row.get("trace"),
            "memory_kb": row.get("memory_kb"),
            "rate": row.get("rate"),
            "seeds": list(row.get("seeds") or []),
        }
    )
    metrics = {
        str(name): (float(ci["mean"]), float(ci.get("half_width") or 0.0) or None)
        for name, ci in row["metrics"].items()
        if isinstance(ci, Mapping) and isinstance(ci.get("mean"), (int, float))
    }
    if not metrics:
        return None
    _, new = db.record_point(
        run_id,
        identity,
        metrics,
        protocol=str(row.get("protocol", "?")),
        trace=str(row.get("trace", "")),
        memory_kb=row.get("memory_kb"),
        rate=row.get("rate"),
    )
    return new


def ingest_payload(
    db: ExperimentDB, payload: Any, *, kind: Optional[str] = None, label: str = ""
) -> IngestStats:
    """Ingest any exported-JSON artifact — the one path that writes point rows.

    ``kind`` names the recording act on the run row of a result payload;
    it defaults to the payload's own (``scenario`` for a scenario bundle,
    ``resilience`` for degradation curves, ``ingest`` for bare metric
    rows).  Benchmark snapshots and profiles always record as ``bench``
    and ``profile`` runs.  Raises ValueError when nothing in the payload
    is an ingestible result.
    """
    if isinstance(payload, Mapping):
        if payload.get("suite") == "benchmarks" or (
            isinstance(payload.get("history"), Sequence)
            and all(
                isinstance(s, Mapping) and s.get("suite") == "benchmarks"
                for s in payload["history"]
            )
            and payload.get("history")
        ):
            return _ingest_bench_payload(db, payload, label=label)
        if payload.get("kind") == "profile" and "phases" in payload:
            return ingest_profile(db, payload, label=label)
        if isinstance(payload.get("scenario"), Mapping) and isinstance(
            payload.get("results"), list
        ):
            return _ingest_scenario_bundle(
                db, payload, kind=kind or "scenario", label=label
            )
        if isinstance(payload.get("degradation"), Mapping):
            cfg = payload.get("config")
            return _ingest_degradation(
                db, payload["degradation"],
                config=cfg if isinstance(cfg, Mapping) else None,
                kind=kind or "resilience", label=label,
            )
        if "curves" in payload and "intensities" in payload:
            return _ingest_degradation(
                db, payload, config=None, kind=kind or "resilience", label=label
            )

    # generic: collect metric/CI rows anywhere in the structure
    metric_rows: List[Mapping[str, Any]] = []
    ci_rows: List[Mapping[str, Any]] = []

    def walk(node: Any) -> None:
        if isinstance(node, Mapping):
            if _looks_like_metrics_row(node):
                metric_rows.append(node)
                return
            if _looks_like_ci_row(node):
                ci_rows.append(node)
                return
            for value in node.values():
                walk(value)
        elif isinstance(node, (list, tuple)):
            for value in node:
                walk(value)

    walk(payload)
    if not metric_rows and not ci_rows:
        raise ValueError(
            "no ingestible results found in payload (expected exported "
            "scenario/metrics/resilience/benchmark/profile JSON)"
        )
    run_id = db.record_run(kind or "ingest", label=label)
    stats = IngestStats(runs=1)
    for row in metric_rows:
        stats.count(_record_metrics_row(db, run_id, row))
    for row in ci_rows:
        stats.count(_record_ci_row(db, run_id, row))
    return stats
