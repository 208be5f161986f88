"""Trend reports over the experiment warehouse.

``repro db report`` regenerates the paper-figure trajectory from recorded
history: for every ``(trace, swept parameter)`` family — the Figs. 11-14
grids — the latest per-protocol success ratio and delay, every point whose
result *moved* across recordings (the regression trail), the benchmark
suite's wall-clock trend, and the per-phase trend of recorded profiles.
Output is markdown (human) or JSON (machine).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.store.db import ExperimentDB, PointRow
from repro.store.query import latest_per_point, query_points

__all__ = ["render_markdown", "trend_report"]

#: the paper's headline metrics, reported per figure family
_FIGURE_METRICS = ("success_rate", "avg_delay")

#: sweep families -> the paper figure they regenerate
_FIGURE_LABELS = {
    ("DART", "memory_kb"): "fig11 (DART, memory)",
    ("DNET", "memory_kb"): "fig12 (DNET, memory)",
    ("DART", "rate"): "fig13 (DART, rate)",
    ("DNET", "rate"): "fig14 (DNET, rate)",
}


def _figure_label(trace: str, parameter: str) -> str:
    key = (trace.upper(), parameter)
    label = _FIGURE_LABELS.get(key)
    return label or f"{trace}, {parameter} sweep"


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def trend_report(db: ExperimentDB) -> Dict[str, Any]:
    """The JSON-shaped trend report; see the module docstring."""
    all_points = query_points(db)
    latest = latest_per_point(db)

    # figure families: latest per-protocol means over the sweep grid
    figures: Dict[str, Any] = {}
    for row in latest:
        if row.sweep_parameter is None or not row.trace:
            continue
        fam_key = f"{row.trace}/{row.sweep_parameter}"
        fam = figures.setdefault(
            fam_key,
            {
                "trace": row.trace,
                "parameter": row.sweep_parameter,
                "label": _figure_label(row.trace, row.sweep_parameter),
                "protocols": {},
            },
        )
        rec = fam["protocols"].setdefault(
            row.protocol, {m: [] for m in _FIGURE_METRICS}
        )
        for metric in _FIGURE_METRICS:
            if metric in row.metrics:
                rec[metric].append(row.metrics[metric])
    for fam in figures.values():
        fam["protocols"] = {
            proto: {
                "points": max(len(v) for v in series.values()) if series else 0,
                **{m: _mean(v) for m, v in series.items() if v},
            }
            for proto, series in sorted(fam["protocols"].items())
        }

    # history: points whose results changed across recordings
    by_hash: Dict[str, List[PointRow]] = {}
    for row in all_points:
        by_hash.setdefault(row.scenario_hash, []).append(row)
    changed: List[Dict[str, Any]] = []
    for scenario_hash, rows in by_hash.items():
        if len(rows) < 2:
            continue
        first, last = rows[0], rows[-1]
        deltas = {}
        for metric in sorted(set(first.metrics) & set(last.metrics)):
            if first.metrics[metric] != last.metrics[metric]:
                deltas[metric] = {
                    "first": first.metrics[metric],
                    "last": last.metrics[metric],
                }
        changed.append(
            {
                "scenario_hash": scenario_hash,
                "protocol": last.protocol,
                "trace": last.trace,
                "recordings": len(rows),
                "first_recorded": first.recorded_at,
                "last_recorded": last.recorded_at,
                "moved_metrics": deltas,
            }
        )
    changed.sort(key=lambda c: (c["trace"], c["protocol"], c["scenario_hash"]))

    # benchmark wall-clock trend
    bench_runs = db.runs(kind="bench")
    bench: Dict[str, Any] = {"suite_seconds": [], "runs": len(bench_runs)}
    for run in bench_runs:
        values = db.run_metric_rows(run["id"])
        if "suite_seconds" in values:
            bench["suite_seconds"].append(
                {
                    "recorded_at": run["created_at"],
                    "value": values["suite_seconds"],
                    # peak RSS is recorded alongside wall-clock so the
                    # memory-stays-bounded claim trends like runtime does
                    "max_rss_kb": values.get("max_rss_kb"),
                }
            )

    # per-phase wall-clock trend over recorded profiles (``profile`` runs),
    # grouped by the profiled workload (scenario hash) — "same metrics,
    # lower seconds-per-phase" is the gate the upcoming perf PRs aim at
    profiles: Dict[str, Any] = {}
    for run in db.runs(kind="profile"):
        values = db.run_metric_rows(run["id"])
        if "wall_seconds" not in values:  # an ingest that failed midway
            continue
        scenario_hash = (run["extra"] or {}).get("scenario_hash") or ""
        fam = profiles.setdefault(
            scenario_hash or f"label:{run['label']}",
            {
                "label": run["label"] or (scenario_hash[:12] or "unlabelled"),
                "scenario_hash": scenario_hash,
                "recordings": 0,
                "wall_seconds": [],
                "phases": {},
            },
        )
        recorded_at = run["created_at"]
        fam["recordings"] += 1
        fam["wall_seconds"].append(
            {"recorded_at": recorded_at, "value": values["wall_seconds"]}
        )
        for name, seconds in values.items():
            if not (name.startswith("phase.") and name.endswith(".seconds")):
                continue
            phase = name[len("phase."):-len(".seconds")]
            fam["phases"].setdefault(phase, []).append(
                {
                    "recorded_at": recorded_at,
                    "seconds": seconds,
                    "calls": int(values.get(f"phase.{phase}.calls", 0)),
                }
            )

    return {
        "points": db.point_count(),
        "distinct_points": len(latest),
        "runs": {
            kind: sum(1 for r in db.runs() if r["kind"] == kind)
            for kind in sorted({r["kind"] for r in db.runs()})
        },
        "figures": dict(sorted(figures.items())),
        "changed_points": changed,
        "bench": bench,
        "profiles": dict(sorted(profiles.items())),
    }


def render_markdown(report: Dict[str, Any]) -> str:
    """Render a :func:`trend_report` dict as a markdown document."""
    lines: List[str] = ["# Experiment store trend report", ""]
    lines.append(
        f"{report['points']} recorded point(s) over "
        f"{report['distinct_points']} distinct resolved scenario(s); runs by "
        "kind: "
        + (
            ", ".join(f"{k}={v}" for k, v in report["runs"].items())
            or "none"
        )
    )
    lines.append("")

    if report["figures"]:
        lines.append("## Paper-figure families (latest per point)")
        for fam in report["figures"].values():
            lines.append("")
            lines.append(f"### {fam['label']}")
            lines.append("")
            lines.append("| protocol | points | success_rate | avg_delay (h) |")
            lines.append("|---|---|---|---|")
            for proto, rec in fam["protocols"].items():
                succ = rec.get("success_rate")
                delay = rec.get("avg_delay")
                lines.append(
                    f"| {proto} | {rec['points']} | "
                    + (f"{succ:.4f}" if succ is not None else "-")
                    + " | "
                    + (f"{delay / 3600:.2f}" if delay is not None else "-")
                    + " |"
                )
        lines.append("")

    changed = report["changed_points"]
    lines.append("## Result movements across recordings")
    lines.append("")
    if not changed:
        lines.append(
            "No point has changed results across recordings (history is "
            "flat — identical reruns deduplicate)."
        )
    else:
        lines.append(
            "| point | protocol | trace | recordings | moved metrics |"
        )
        lines.append("|---|---|---|---|---|")
        for c in changed:
            moved = "; ".join(
                f"{m}: {d['first']:g} -> {d['last']:g}"
                for m, d in c["moved_metrics"].items()
            ) or "(metrics identical, re-recorded)"
            lines.append(
                f"| {c['scenario_hash'][:12]} | {c['protocol']} | {c['trace']} "
                f"| {c['recordings']} | {moved} |"
            )
    lines.append("")

    bench = report["bench"]
    lines.append("## Benchmark wall-clock")
    lines.append("")
    if not bench["suite_seconds"]:
        lines.append("No benchmark sessions recorded.")
    else:
        lines.append("| recorded_at | suite_seconds | max_rss_kb |")
        lines.append("|---|---|---|")
        for entry in bench["suite_seconds"]:
            rss = entry.get("max_rss_kb")
            lines.append(
                f"| {entry['recorded_at']} | {entry['value']:.3f} | "
                + (f"{rss:.0f}" if rss is not None else "-")
                + " |"
            )
    lines.append("")

    profiles = report.get("profiles") or {}
    lines.append("## Per-phase wall-clock trend (recorded profiles)")
    lines.append("")
    if not profiles:
        lines.append(
            "No profiles recorded — run `repro profile <scenario> --record`."
        )
    else:
        for fam in profiles.values():
            walls = fam["wall_seconds"]
            first_wall, last_wall = walls[0]["value"], walls[-1]["value"]
            lines.append(
                f"### {fam['label']} — {fam['recordings']} recording(s), "
                f"wall {first_wall:.2f}s -> {last_wall:.2f}s"
            )
            lines.append("")
            lines.append("| phase | recordings | first (s) | last (s) | delta |")
            lines.append("|---|---|---|---|---|")
            phase_rows = sorted(
                fam["phases"].items(), key=lambda kv: -kv[1][-1]["seconds"]
            )
            for phase, series in phase_rows:
                first, last = series[0]["seconds"], series[-1]["seconds"]
                if first > 0:
                    delta = f"{(last - first) / first * 100:+.1f}%"
                else:
                    delta = "-"
                lines.append(
                    f"| {phase} | {len(series)} | {first:.4f} | {last:.4f} "
                    f"| {delta} |"
                )
            lines.append("")
    return "\n".join(lines)


def write_report(
    db: ExperimentDB,
    *,
    out: Optional[str] = None,
    as_json: bool = False,
) -> Tuple[str, Dict[str, Any]]:
    """Build the report and render it; returns ``(text, report dict)``."""
    report = trend_report(db)
    text = (
        json.dumps(report, indent=2, sort_keys=True)
        if as_json
        else render_markdown(report)
    )
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    return text, report
