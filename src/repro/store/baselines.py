"""Baseline snapshots: committed metric values the regression gate compares to.

A *baseline* is a JSON file holding the latest-per-point metric values of
a (possibly filtered) set of stored points.  ``repro db baseline NAME
--out FILE`` writes one and ``repro db regress --baseline-file FILE``
gates against it, so a repository commits the file (CI's regression gate
uses ``ci/regression-baseline.json``) instead of shipping a binary
database.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.store.db import ExperimentDB
from repro.store.query import PointFilter, latest_per_point

__all__ = ["baseline_snapshot", "snapshot_rows"]

#: snapshot format version (bump on shape changes)
SNAPSHOT_SCHEMA = 1


def baseline_snapshot(
    db: ExperimentDB, name: str, *, filter: Optional[PointFilter] = None
) -> Dict[str, Any]:
    """A committable snapshot, named ``name``, of the latest-per-point
    metric values matching ``filter``; rows sorted by point, then metric."""
    points = latest_per_point(db, filter=filter or PointFilter())
    if not points:
        raise ValueError(
            "no stored points match the filter — record or ingest results "
            "before taking a baseline"
        )
    rows = sorted(
        (
            {
                "scenario_hash": p.scenario_hash,
                "protocol": p.protocol,
                "trace": p.trace,
                "metric": metric,
                "value": value,
                "half_width": p.half_widths.get(metric),
            }
            for p in points
            for metric, value in p.metrics.items()
        ),
        key=lambda r: (r["scenario_hash"], r["metric"]),
    )
    return {"baseline": name, "schema": SNAPSHOT_SCHEMA, "rows": rows}


def snapshot_rows(snapshot: Mapping[str, Any]) -> Tuple[str, List[Dict[str, Any]]]:
    """Validate a baseline snapshot dict; returns ``(name, rows)``."""
    if not isinstance(snapshot, Mapping) or "rows" not in snapshot:
        raise ValueError(
            "not a baseline snapshot (expected {'baseline': ..., 'rows': [...]})"
        )
    schema = snapshot.get("schema", SNAPSHOT_SCHEMA)
    if schema != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"baseline snapshot schema {schema} unsupported "
            f"(this package reads {SNAPSHOT_SCHEMA})"
        )
    name = str(snapshot.get("baseline") or "imported")
    rows = snapshot["rows"]
    if not isinstance(rows, list) or not rows:
        raise ValueError("baseline snapshot has no rows")
    for i, row in enumerate(rows):
        if not isinstance(row, Mapping):
            raise ValueError(f"baseline snapshot row {i} is not an object")
        for key in ("scenario_hash", "metric"):
            if not isinstance(row.get(key), str) or not row[key]:
                raise _bad_field(i, row, key, "a non-empty string")
        value = row.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _bad_field(i, row, "value", "a number")
    return name, [dict(r) for r in rows]


def _bad_field(i: int, row: Mapping[str, Any], key: str, want: str) -> ValueError:
    got = repr(row[key]) if key in row else "nothing"
    return ValueError(f"baseline snapshot row {i}: {key!r} must be {want}, got {got}")
