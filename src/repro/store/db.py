"""SQLite-backed experiment warehouse: the durable results plane.

Every other layer of the harness produces *ephemeral* artifacts — JSON
files that each run overwrites.  :class:`ExperimentDB` gives those results
a durable home so regressions across PRs are detectable:

* **runs** — one row per recording act (a ``repro run/compare/sweep``
  invocation, a benchmark session, a resilience sweep), stamped with kind,
  label, package/python versions and a free-form JSON ``extra`` blob;
* **points** — one row per resolved experiment point.  The point's
  identity is the *content hash* of its fully-resolved single-point
  scenario dict (see :func:`content_hash`); its result identity adds the
  hash of its metric values.  ``UNIQUE(scenario_hash, metrics_hash)``
  makes re-recording an identical run a no-op while a changed result for
  the same scenario (a code change!) records a new time-stamped row — the
  raw material of trend series and regression verdicts;
* **metrics** — per-point ``(name, value, half_width)`` rows
  (``half_width`` carries a confidence interval when the source had one);
* **run_metrics** — run-level scalars: a ``bench`` run's wall-clock
  timings, a ``profile`` run's ``wall_seconds`` and per-phase
  ``phase.<name>.seconds`` / ``phase.<name>.calls``.

Baselines are committed snapshot files (:mod:`repro.store.baselines`),
not tables: the ``baselines`` / ``baseline_points`` tables of the first
schema version stay in every database, unread, so opening an older file
drops nothing.  The ``profiles`` / ``profile_phases`` tables of version 2
stay the same way; the version 3 migration copies their rows into the
``profile`` run form.

The database runs in WAL mode (readers never block the writer).  Recording
happens in the parent process only — parallel sweep workers never touch
SQLite, so ``--jobs N`` recording cannot contend.

Schema changes are versioned migrations (``PRAGMA user_version``); opening
an older database upgrades it in place, and a package older than the
database's version refuses to open it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.provenance import _jsonable

__all__ = [
    "DEFAULT_DB_ENV",
    "ExperimentDB",
    "PointRow",
    "canonical_json",
    "content_hash",
    "default_db_path",
]

#: environment variable naming the default database path
DEFAULT_DB_ENV = "REPRO_DB"


def default_db_path() -> str:
    """The database path ``--record``/``repro db`` use when ``--db`` is
    omitted: ``$REPRO_DB`` if set, else ``experiments.sqlite`` in the cwd."""
    return os.environ.get(DEFAULT_DB_ENV) or "experiments.sqlite"


def canonical_json(obj: Any) -> str:
    """The canonical (deterministic) JSON encoding of ``obj``.

    Keys sorted, no whitespace, values passed through
    :func:`repro.obs.provenance._jsonable` (which sorts sets and collapses
    numpy scalars) — equal content always encodes to equal text.
    """
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def content_hash(obj: Any) -> str:
    """sha256 hex digest of the canonical JSON encoding of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()) + "Z"


#: milliseconds SQLite itself waits on a locked database before raising
BUSY_TIMEOUT_MS = 5000

#: bounded backoff on top of the pragma, for writers that outlast it
#: (e.g. a crashed holder whose lock the OS reclaims between attempts)
_LOCK_ATTEMPTS = 6
_LOCK_BACKOFF0 = 0.05


def _retry_locked(method):
    """Retry a write method through transient ``database is locked`` errors.

    WAL mode still serializes writers; a concurrent recorder (or a chaos
    injection holding the write lock) surfaces as
    ``sqlite3.OperationalError: database is locked`` once the
    ``busy_timeout`` pragma expires.  Each attempt doubles the sleep; the
    final error propagates unchanged.  Non-lock operational errors are
    never retried.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        delay = _LOCK_BACKOFF0
        for attempt in range(_LOCK_ATTEMPTS):
            try:
                return method(self, *args, **kwargs)
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc).lower() or attempt == _LOCK_ATTEMPTS - 1:
                    raise
                time.sleep(delay)
                delay *= 2

    return wrapper


#: versioned migrations; entry ``i`` upgrades user_version ``i`` -> ``i+1``
_MIGRATIONS: List[Sequence[str]] = [
    (
        """CREATE TABLE runs (
            id INTEGER PRIMARY KEY,
            created_at TEXT NOT NULL,
            kind TEXT NOT NULL,
            label TEXT NOT NULL DEFAULT '',
            package_version TEXT NOT NULL DEFAULT '',
            python_version TEXT NOT NULL DEFAULT '',
            content_hash TEXT,
            extra TEXT
        )""",
        "CREATE UNIQUE INDEX idx_runs_content ON runs(content_hash) "
        "WHERE content_hash IS NOT NULL",
        """CREATE TABLE points (
            id INTEGER PRIMARY KEY,
            run_id INTEGER NOT NULL REFERENCES runs(id),
            recorded_at TEXT NOT NULL,
            scenario_hash TEXT NOT NULL,
            metrics_hash TEXT NOT NULL,
            protocol TEXT NOT NULL,
            trace TEXT NOT NULL DEFAULT '',
            seed INTEGER,
            memory_kb REAL,
            rate REAL,
            sweep_parameter TEXT,
            sweep_value REAL,
            scenario TEXT,
            UNIQUE(scenario_hash, metrics_hash)
        )""",
        "CREATE INDEX idx_points_scenario ON points(scenario_hash)",
        "CREATE INDEX idx_points_protocol ON points(protocol, trace)",
        """CREATE TABLE metrics (
            point_id INTEGER NOT NULL REFERENCES points(id),
            name TEXT NOT NULL,
            value REAL NOT NULL,
            half_width REAL,
            PRIMARY KEY (point_id, name)
        )""",
        """CREATE TABLE run_metrics (
            run_id INTEGER NOT NULL REFERENCES runs(id),
            name TEXT NOT NULL,
            value REAL NOT NULL,
            PRIMARY KEY (run_id, name)
        )""",
        """CREATE TABLE baselines (
            id INTEGER PRIMARY KEY,
            name TEXT NOT NULL UNIQUE,
            created_at TEXT NOT NULL,
            note TEXT NOT NULL DEFAULT ''
        )""",
        """CREATE TABLE baseline_points (
            baseline_id INTEGER NOT NULL REFERENCES baselines(id),
            scenario_hash TEXT NOT NULL,
            protocol TEXT NOT NULL DEFAULT '',
            trace TEXT NOT NULL DEFAULT '',
            metric TEXT NOT NULL,
            value REAL NOT NULL,
            half_width REAL,
            PRIMARY KEY (baseline_id, scenario_hash, metric)
        )""",
    ),
    # v2: recorded performance profiles (span trees + flamegraphs) and the
    # per-phase wall-clock rows behind the trend report; unread since v3
    (
        """CREATE TABLE profiles (
            id INTEGER PRIMARY KEY,
            run_id INTEGER NOT NULL REFERENCES runs(id),
            recorded_at TEXT NOT NULL,
            scenario_hash TEXT NOT NULL DEFAULT '',
            label TEXT NOT NULL DEFAULT '',
            hz REAL,
            n_samples INTEGER NOT NULL DEFAULT 0,
            wall_seconds REAL NOT NULL,
            span_tree TEXT,
            flamegraph TEXT,
            allocations TEXT
        )""",
        "CREATE INDEX idx_profiles_scenario ON profiles(scenario_hash)",
        """CREATE TABLE profile_phases (
            profile_id INTEGER NOT NULL REFERENCES profiles(id),
            phase TEXT NOT NULL,
            seconds REAL NOT NULL,
            calls INTEGER NOT NULL DEFAULT 0,
            PRIMARY KEY (profile_id, phase)
        )""",
    ),
    # v3: a profile is a ``profile`` run with run metrics, like a bench
    # snapshot; the v2 rows move into that form
    (
        "INSERT OR IGNORE INTO run_metrics (run_id, name, value) "
        "SELECT run_id, 'wall_seconds', wall_seconds FROM profiles",
        "INSERT OR IGNORE INTO run_metrics (run_id, name, value) "
        "SELECT p.run_id, 'phase.' || f.phase || '.seconds', f.seconds "
        "FROM profile_phases f JOIN profiles p ON p.id = f.profile_id",
        "INSERT OR IGNORE INTO run_metrics (run_id, name, value) "
        "SELECT p.run_id, 'phase.' || f.phase || '.calls', f.calls "
        "FROM profile_phases f JOIN profiles p ON p.id = f.profile_id",
        "UPDATE runs SET extra = json_set(coalesce(extra, '{}'), "
        "'$.scenario_hash', (SELECT scenario_hash FROM profiles "
        "WHERE profiles.run_id = runs.id)) "
        "WHERE id IN (SELECT run_id FROM profiles)",
    ),
]

SCHEMA_VERSION = len(_MIGRATIONS)


@dataclass(frozen=True)
class PointRow:
    """One stored experiment point with its metric values."""

    id: int
    run_id: int
    recorded_at: str
    scenario_hash: str
    protocol: str
    trace: str
    seed: Optional[int]
    memory_kb: Optional[float]
    rate: Optional[float]
    sweep_parameter: Optional[str]
    sweep_value: Optional[float]
    metrics: Dict[str, float] = field(default_factory=dict)
    #: metric -> confidence half-width, only for metrics that carried one
    half_widths: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "id": self.id,
            "run_id": self.run_id,
            "recorded_at": self.recorded_at,
            "scenario_hash": self.scenario_hash,
            "protocol": self.protocol,
            "trace": self.trace,
            "seed": self.seed,
            "memory_kb": self.memory_kb,
            "rate": self.rate,
            "metrics": dict(self.metrics),
        }
        if self.sweep_parameter is not None:
            out["sweep_parameter"] = self.sweep_parameter
            out["sweep_value"] = self.sweep_value
        if self.half_widths:
            out["half_widths"] = dict(self.half_widths)
        return out


#: a metric value: plain number, or (value, half_width) when a CI exists
MetricValue = Union[float, Tuple[float, Optional[float]]]


class ExperimentDB:
    """A WAL-mode SQLite experiment store; see the module docstring.

    Usable as a context manager; :meth:`close` is idempotent.
    """

    def __init__(self, path: Union[str, os.PathLike] = None) -> None:
        self.path = str(path) if path is not None else default_db_path()
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        try:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
            except sqlite3.DatabaseError:  # pragma: no cover - exotic filesystems
                pass
            self._conn.execute("PRAGMA foreign_keys=ON")
            self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            self._migrate()
        except BaseException:
            # a store this package refuses leaves no connection open
            self.close()
            raise

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ExperimentDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- schema ---------------------------------------------------------------
    def _migrate(self) -> None:
        with self._conn:
            version = self._conn.execute("PRAGMA user_version").fetchone()[0]
            if version > SCHEMA_VERSION:
                raise ValueError(
                    f"{self.path}: schema version {version} is newer than "
                    f"this package supports ({SCHEMA_VERSION}); upgrade repro"
                )
            for v in range(version, SCHEMA_VERSION):
                for statement in _MIGRATIONS[v]:
                    self._conn.execute(statement)
            self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    @property
    def schema_version(self) -> int:
        return self._conn.execute("PRAGMA user_version").fetchone()[0]

    # -- recording ------------------------------------------------------------
    @_retry_locked
    def record_run(
        self,
        kind: str,
        *,
        label: str = "",
        extra: Optional[Mapping[str, Any]] = None,
        run_hash: Optional[str] = None,
        created_at: Optional[str] = None,
    ) -> Optional[int]:
        """Insert a run row; returns its id, or None when ``run_hash`` is
        given and an identical run was already recorded (dedup)."""
        from repro.obs.provenance import package_version
        import platform

        if run_hash is not None:
            row = self._conn.execute(
                "SELECT id FROM runs WHERE content_hash = ?", (run_hash,)
            ).fetchone()
            if row is not None:
                return None
        with self._conn:
            cur = self._conn.execute(
                "INSERT INTO runs (created_at, kind, label, package_version, "
                "python_version, content_hash, extra) VALUES (?,?,?,?,?,?,?)",
                (
                    created_at or _utc_now(),
                    kind,
                    label,
                    package_version(),
                    platform.python_version(),
                    run_hash,
                    canonical_json(extra) if extra else None,
                ),
            )
        return int(cur.lastrowid)

    @_retry_locked
    def record_point(
        self,
        run_id: int,
        scenario: Mapping[str, Any],
        metrics: Mapping[str, MetricValue],
        *,
        protocol: str,
        trace: str = "",
        seed: Optional[int] = None,
        memory_kb: Optional[float] = None,
        rate: Optional[float] = None,
        sweep_parameter: Optional[str] = None,
        sweep_value: Optional[float] = None,
        recorded_at: Optional[str] = None,
    ) -> Tuple[int, bool]:
        """Record one resolved experiment point; returns ``(point_id, new)``.

        ``scenario`` is the point's fully-resolved identity dict (a
        single-point scenario, or any canonical record for non-scenario
        results); ``metrics`` maps metric names to values or
        ``(value, half_width)`` pairs.  An identical ``(scenario, metrics)``
        pair is a no-op returning the existing row's id with ``new=False``.
        """
        if not metrics:
            raise ValueError("cannot record a point with no metrics")
        norm: Dict[str, Tuple[float, Optional[float]]] = {}
        for name, value in metrics.items():
            if isinstance(value, tuple):
                v, hw = value
                norm[str(name)] = (float(v), None if hw is None else float(hw))
            else:
                norm[str(name)] = (float(value), None)
        scenario_hash = content_hash(scenario)
        metrics_hash = content_hash(
            {k: [v, hw] for k, (v, hw) in sorted(norm.items())}
        )
        row = self._conn.execute(
            "SELECT id FROM points WHERE scenario_hash = ? AND metrics_hash = ?",
            (scenario_hash, metrics_hash),
        ).fetchone()
        if row is not None:
            return int(row["id"]), False
        with self._conn:
            cur = self._conn.execute(
                "INSERT INTO points (run_id, recorded_at, scenario_hash, "
                "metrics_hash, protocol, trace, seed, memory_kb, rate, "
                "sweep_parameter, sweep_value, scenario) "
                "VALUES (?,?,?,?,?,?,?,?,?,?,?,?)",
                (
                    run_id,
                    recorded_at or _utc_now(),
                    scenario_hash,
                    metrics_hash,
                    protocol,
                    trace,
                    seed,
                    memory_kb,
                    rate,
                    sweep_parameter,
                    sweep_value,
                    canonical_json(scenario),
                ),
            )
            point_id = int(cur.lastrowid)
            self._conn.executemany(
                "INSERT INTO metrics (point_id, name, value, half_width) "
                "VALUES (?,?,?,?)",
                [(point_id, k, v, hw) for k, (v, hw) in norm.items()],
            )
        return point_id, True

    @_retry_locked
    def record_run_metrics(self, run_id: int, values: Mapping[str, float]) -> None:
        """Attach run-level scalar metrics (e.g. benchmark wall-clock)."""
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO run_metrics (run_id, name, value) "
                "VALUES (?,?,?)",
                [(run_id, str(k), float(v)) for k, v in values.items()],
            )

    # -- raw reads (richer filters live in repro.store.query) -----------------
    def _point_rows(self, where: str, params: Sequence[Any]) -> List[PointRow]:
        sql = (
            "SELECT id, run_id, recorded_at, scenario_hash, protocol, trace, "
            "seed, memory_kb, rate, sweep_parameter, sweep_value "
            f"FROM points {where} ORDER BY recorded_at, id"
        )
        rows = self._conn.execute(sql, params).fetchall()
        out: List[PointRow] = []
        for r in rows:
            metrics: Dict[str, float] = {}
            half_widths: Dict[str, float] = {}
            for m in self._conn.execute(
                "SELECT name, value, half_width FROM metrics WHERE point_id = ?",
                (r["id"],),
            ):
                metrics[m["name"]] = m["value"]
                if m["half_width"] is not None:
                    half_widths[m["name"]] = m["half_width"]
            out.append(
                PointRow(
                    id=r["id"],
                    run_id=r["run_id"],
                    recorded_at=r["recorded_at"],
                    scenario_hash=r["scenario_hash"],
                    protocol=r["protocol"],
                    trace=r["trace"],
                    seed=r["seed"],
                    memory_kb=r["memory_kb"],
                    rate=r["rate"],
                    sweep_parameter=r["sweep_parameter"],
                    sweep_value=r["sweep_value"],
                    metrics=metrics,
                    half_widths=half_widths,
                )
            )
        return out

    def runs(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """All run rows (optionally one kind), oldest first."""
        where = "WHERE kind = ?" if kind else ""
        params: Tuple[Any, ...] = (kind,) if kind else ()
        rows = self._conn.execute(
            "SELECT id, created_at, kind, label, package_version, "
            f"python_version, extra FROM runs {where} ORDER BY created_at, id",
            params,
        ).fetchall()
        out = []
        for r in rows:
            rec = dict(r)
            rec["extra"] = json.loads(r["extra"]) if r["extra"] else None
            out.append(rec)
        return out

    def run_metric_rows(self, run_id: int) -> Dict[str, float]:
        return {
            r["name"]: r["value"]
            for r in self._conn.execute(
                "SELECT name, value FROM run_metrics WHERE run_id = ?", (run_id,)
            )
        }

    def point_count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM points").fetchone()[0]

    def scenario_blob(self, point_id: int) -> Optional[Dict[str, Any]]:
        """The stored resolved-scenario dict of one point (None if absent)."""
        row = self._conn.execute(
            "SELECT scenario FROM points WHERE id = ?", (point_id,)
        ).fetchone()
        if row is None or row["scenario"] is None:
            return None
        return json.loads(row["scenario"])
