"""Persistent experiment store: SQLite warehouse + regression harness.

Every recorded run lands in a WAL-mode SQLite database keyed by the
content hash of its fully-resolved scenario, so re-recording an identical
run is a no-op while changed results accumulate as time-ordered history.
One function writes point rows: :func:`ingest_payload`, which takes the
exported JSON of every result-producing command (live ``--record`` goes
through it too).  On top of the warehouse sit query helpers
(latest-per-point), baseline snapshot files, an exact-equality regression
gate, and the fig11-14 trend report.
"""

from repro.store.baselines import baseline_snapshot, snapshot_rows
from repro.store.db import (
    ExperimentDB,
    PointRow,
    canonical_json,
    content_hash,
    default_db_path,
)
from repro.store.ingest import (
    IngestStats,
    ingest_bench_snapshot,
    ingest_experiment_results,
    ingest_payload,
    ingest_profile,
    ingest_scenario_result,
)
from repro.store.query import (
    PointFilter,
    latest_per_point,
    query_points,
    scenario_for_hash,
    select_points,
)
from repro.store.regress import (
    RegressionCheck,
    RegressionVerdict,
    compare_points,
    regress,
)
from repro.store.report import render_markdown, trend_report, write_report

__all__ = [
    "ExperimentDB",
    "IngestStats",
    "PointFilter",
    "PointRow",
    "RegressionCheck",
    "RegressionVerdict",
    "baseline_snapshot",
    "canonical_json",
    "compare_points",
    "content_hash",
    "default_db_path",
    "ingest_bench_snapshot",
    "ingest_experiment_results",
    "ingest_payload",
    "ingest_profile",
    "ingest_scenario_result",
    "latest_per_point",
    "query_points",
    "scenario_for_hash",
    "select_points",
    "regress",
    "render_markdown",
    "snapshot_rows",
    "trend_report",
    "write_report",
]
