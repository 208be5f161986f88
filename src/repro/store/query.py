"""Query layer over the experiment warehouse.

Three access patterns the rest of the harness needs:

* **filtered listing** — :func:`query_points` with any combination of
  protocol / trace / scenario-hash (prefix) / run-kind filters;
* **latest-per-point resolution** — :func:`latest_per_point`: for every
  distinct resolved scenario, the most recently recorded result (the
  "current truth" a baseline snapshot records and the regression gate
  compares against one); :func:`select_points` combines both the way
  ``repro db query`` lists rows;
* **scenario lookup** — :func:`scenario_for_hash`: the stored resolved
  scenario behind a point hash (``repro serve``'s replay source).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.store.db import ExperimentDB, PointRow

__all__ = [
    "PointFilter",
    "latest_per_point",
    "query_points",
    "scenario_for_hash",
    "select_points",
]


def _hex_prefix(prefix: str) -> str:
    """``prefix``, refused unless it is non-empty lowercase hex: it goes
    into a ``LIKE`` pattern, where ``_`` and ``%`` are wildcards."""
    if not re.fullmatch(r"[0-9a-f]+", prefix):
        raise ValueError(
            f"a scenario-hash prefix must be non-empty lowercase hex, "
            f"got {prefix!r}"
        )
    return prefix


@dataclass(frozen=True)
class PointFilter:
    """Declarative point filters; ``None`` fields are not applied."""

    protocol: Optional[str] = None
    trace: Optional[str] = None
    #: full hash or an unambiguous hex prefix
    scenario_hash: Optional[str] = None
    #: restrict to points recorded by runs of this kind
    kind: Optional[str] = None
    run_id: Optional[int] = None
    sweep_parameter: Optional[str] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.scenario_hash is not None:
            _hex_prefix(self.scenario_hash)

    def where(self) -> Tuple[str, List[Any]]:
        clauses: List[str] = []
        params: List[Any] = []
        if self.protocol is not None:
            clauses.append("protocol = ?")
            params.append(self.protocol)
        if self.trace is not None:
            clauses.append("trace = ?")
            params.append(self.trace)
        if self.scenario_hash is not None:
            clauses.append("scenario_hash LIKE ?")
            params.append(self.scenario_hash + "%")
        if self.run_id is not None:
            clauses.append("run_id = ?")
            params.append(self.run_id)
        if self.sweep_parameter is not None:
            clauses.append("sweep_parameter = ?")
            params.append(self.sweep_parameter)
        if self.seed is not None:
            clauses.append("seed = ?")
            params.append(self.seed)
        if self.kind is not None:
            clauses.append("run_id IN (SELECT id FROM runs WHERE kind = ?)")
            params.append(self.kind)
        where = ("WHERE " + " AND ".join(clauses)) if clauses else ""
        return where, params


def query_points(
    db: ExperimentDB,
    *,
    filter: Optional[PointFilter] = None,
    **filter_kwargs: Any,
) -> List[PointRow]:
    """Stored points matching the filter, oldest first.

    Filter fields can be given as keyword arguments instead of a
    :class:`PointFilter`.
    """
    if filter is None:
        filter = PointFilter(**filter_kwargs)
    elif filter_kwargs:
        raise ValueError("give either a PointFilter or keyword filters, not both")
    where, params = filter.where()
    return db._point_rows(where, params)


def latest_per_point(
    db: ExperimentDB,
    *,
    filter: Optional[PointFilter] = None,
    **filter_kwargs: Any,
) -> List[PointRow]:
    """The most recent recording of every distinct resolved scenario.

    Rows come back in first-recorded order of their scenario (stable across
    re-recordings), each carrying its latest metric values.
    """
    rows = query_points(db, filter=filter, **filter_kwargs)
    latest: Dict[str, PointRow] = {}
    order: List[str] = []
    for row in rows:  # rows are (recorded_at, id)-ordered; last write wins
        if row.scenario_hash not in latest:
            order.append(row.scenario_hash)
        latest[row.scenario_hash] = row
    return [latest[h] for h in order]


def select_points(
    db: ExperimentDB,
    *,
    filter: Optional[PointFilter] = None,
    metric: Optional[str] = None,
    latest: bool = False,
    limit: int = 0,
) -> List[PointRow]:
    """The rows ``repro db query`` lists.

    The points matching ``filter`` (only each one's latest recording when
    ``latest``) that recorded ``metric``, oldest first; ``limit`` keeps
    the most recent N of them (0 keeps all, a negative N is refused).
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    rows = (latest_per_point if latest else query_points)(db, filter=filter)
    if metric is not None:
        rows = [r for r in rows if metric in r.metrics]
    return rows[-limit:] if limit else rows


def scenario_for_hash(db: ExperimentDB, prefix: str) -> Optional[Dict[str, Any]]:
    """The stored resolved-scenario dict behind a hash (or hex prefix).

    The newest point carrying the scenario wins; ``None`` when no stored
    point matches (or the matching rows predate scenario stamping).  A
    prefix that is not lowercase hex, or that matches more than one
    distinct scenario hash, raises ValueError.  This is how
    ``repro serve``'s replay endpoint turns a recorded point back into a
    live engine run.
    """
    pattern = _hex_prefix(prefix) + "%"
    (matched,) = db._conn.execute(
        "SELECT COUNT(DISTINCT scenario_hash) FROM points "
        "WHERE scenario_hash LIKE ?",
        (pattern,),
    ).fetchone()
    if matched > 1:
        raise ValueError(
            f"scenario-hash prefix {prefix!r} matches {matched} stored "
            "scenarios; give more of the hash"
        )
    cur = db._conn.execute(
        "SELECT scenario FROM points WHERE scenario_hash LIKE ? "
        "AND scenario IS NOT NULL ORDER BY id DESC LIMIT 1",
        (pattern,),
    )
    row = cur.fetchone()
    if row is None or not row[0]:
        return None
    try:
        payload = json.loads(row[0])
    except (TypeError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None
