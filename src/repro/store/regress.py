"""Regression gating: compare candidate results against a baseline snapshot.

For every ``(resolved point, metric)`` the baseline holds, the harness looks
up the candidate's latest recording of the same content-hashed point and
checks the delta against a *tolerance band*:

``allowed = max(abs_tol, rel_tol * |baseline|) + baseline CI + candidate CI``

Confidence half-widths (recorded by multi-seed ingests) widen the band —
a difference inside overlapping confidence intervals is never a failure.
Metrics are *directional*: a success-rate drop beyond the band FAILs while
an equally large rise is merely flagged IMPROVED; cost/delay metrics point
the other way; unknown metrics are two-sided.

The output is a machine-readable :class:`RegressionVerdict` — CI jobs dump
it as a JSON artifact and exit non-zero on ``FAIL``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.store.db import ExperimentDB, PointRow
from repro.store.query import PointFilter, latest_per_point

__all__ = [
    "DEFAULT_TOLERANCE",
    "DEFAULT_TOLERANCES",
    "METRIC_DIRECTIONS",
    "RegressionCheck",
    "RegressionVerdict",
    "Tolerance",
    "compare_points",
    "regress",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute + relative tolerance for one metric (band = max of both)."""

    abs_tol: float = 0.0
    rel_tol: float = 0.0

    def allowed(self, baseline: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(baseline))


#: per-metric default bands: tight on rates, proportional on costs/delays
DEFAULT_TOLERANCES: Dict[str, Tolerance] = {
    "success_rate": Tolerance(abs_tol=0.02),
    "avg_delay": Tolerance(rel_tol=0.10),
    "overall_avg_delay": Tolerance(rel_tol=0.10),
    "avg_hops": Tolerance(abs_tol=0.25, rel_tol=0.10),
    "forwarding_ops": Tolerance(rel_tol=0.10),
    "maintenance_ops": Tolerance(rel_tol=0.10),
    "total_cost": Tolerance(rel_tol=0.10),
    "generated": Tolerance(),  # workload identity: must match exactly
    "delivered": Tolerance(rel_tol=0.10),
    "dropped_ttl": Tolerance(rel_tol=0.25, abs_tol=2.0),
}

#: the band of a metric the table does not name
DEFAULT_TOLERANCE = Tolerance(rel_tol=0.10)

#: +1 = higher is better (regression when it falls), -1 = lower is better,
#: 0 = two-sided (any move beyond the band fails)
METRIC_DIRECTIONS: Dict[str, int] = {
    "success_rate": +1,
    "delivered": +1,
    "avg_delay": -1,
    "overall_avg_delay": -1,
    "forwarding_ops": -1,
    "maintenance_ops": -1,
    "total_cost": -1,
    "dropped_ttl": -1,
    "generated": 0,
    "avg_hops": 0,
}


@dataclass(frozen=True)
class RegressionCheck:
    """One ``(point, metric)`` comparison."""

    scenario_hash: str
    protocol: str
    trace: str
    metric: str
    baseline: float
    candidate: float
    allowed: float
    status: str  # "PASS" | "FAIL" | "IMPROVED"

    @property
    def delta(self) -> float:
        return self.candidate - self.baseline

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario_hash": self.scenario_hash,
            "protocol": self.protocol,
            "trace": self.trace,
            "metric": self.metric,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "delta": self.delta,
            "allowed": self.allowed,
            "status": self.status,
        }

    def describe(self) -> str:
        return (
            f"{self.status}: {self.protocol}/{self.trace} "
            f"[{self.scenario_hash[:12]}] {self.metric}: "
            f"{self.baseline:g} -> {self.candidate:g} "
            f"(delta {self.delta:+g}, allowed ±{self.allowed:g})"
        )


@dataclass
class RegressionVerdict:
    """The machine-readable outcome of one regression comparison."""

    baseline_name: str
    checks: List[RegressionCheck] = field(default_factory=list)
    #: baseline (point, metric) pairs with no candidate recording
    missing: List[Dict[str, str]] = field(default_factory=list)
    fail_on_missing: bool = False

    @property
    def failures(self) -> List[RegressionCheck]:
        return [c for c in self.checks if c.status == "FAIL"]

    @property
    def improvements(self) -> List[RegressionCheck]:
        return [c for c in self.checks if c.status == "IMPROVED"]

    @property
    def verdict(self) -> str:
        if self.failures or (self.fail_on_missing and self.missing):
            return "FAIL"
        return "PASS"

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "baseline": self.baseline_name,
            "verdict": self.verdict,
            "checked": len(self.checks),
            "failed": len(self.failures),
            "improved": len(self.improvements),
            "missing": list(self.missing),
            "fail_on_missing": self.fail_on_missing,
            "checks": [c.as_dict() for c in self.checks],
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        parts = [
            f"{self.verdict}: {len(self.checks)} metric check(s), "
            f"{len(self.failures)} failed, {len(self.improvements)} improved, "
            f"{len(self.missing)} missing"
        ]
        parts.extend(c.describe() for c in self.failures)
        parts.extend(c.describe() for c in self.improvements)
        return "\n".join(parts)


def _check_one(
    row: Mapping[str, Any], candidate: PointRow, tol: Tolerance
) -> RegressionCheck:
    metric = str(row["metric"])
    base_value = float(row["value"])
    cand_value = float(candidate.metrics[metric])
    allowed = tol.allowed(base_value)
    base_hw = row.get("half_width")
    if base_hw:
        allowed += float(base_hw)
    cand_hw = candidate.half_widths.get(metric)
    if cand_hw:
        allowed += float(cand_hw)
    delta = cand_value - base_value
    direction = METRIC_DIRECTIONS.get(metric, 0)
    if direction > 0:
        status = "FAIL" if delta < -allowed else (
            "IMPROVED" if delta > allowed else "PASS"
        )
    elif direction < 0:
        status = "FAIL" if delta > allowed else (
            "IMPROVED" if delta < -allowed else "PASS"
        )
    else:
        status = "FAIL" if abs(delta) > allowed else "PASS"
    return RegressionCheck(
        scenario_hash=str(row["scenario_hash"]),
        protocol=str(row.get("protocol", "")),
        trace=str(row.get("trace", "")),
        metric=metric,
        baseline=base_value,
        candidate=cand_value,
        allowed=allowed,
        status=status,
    )


def compare_points(
    baseline_name: str,
    baseline_rows: Sequence[Mapping[str, Any]],
    candidates: Sequence[PointRow],
    *,
    uniform: Optional[Tolerance] = None,
    fail_on_missing: bool = False,
) -> RegressionVerdict:
    """Compare candidate points against baseline snapshot rows.

    Each metric gets its :data:`DEFAULT_TOLERANCES` band (else
    :data:`DEFAULT_TOLERANCE`); ``uniform`` replaces the whole table with
    one band (the CLI's ``--abs/--rel`` flags).
    """
    by_hash = {c.scenario_hash: c for c in candidates}
    verdict = RegressionVerdict(
        baseline_name=baseline_name, fail_on_missing=fail_on_missing
    )
    for row in baseline_rows:
        scenario_hash = str(row["scenario_hash"])
        metric = str(row["metric"])
        candidate = by_hash.get(scenario_hash)
        if candidate is None or metric not in candidate.metrics:
            verdict.missing.append(
                {
                    "scenario_hash": scenario_hash,
                    "protocol": str(row.get("protocol", "")),
                    "trace": str(row.get("trace", "")),
                    "metric": metric,
                }
            )
            continue
        tol = (
            uniform if uniform is not None
            else DEFAULT_TOLERANCES.get(metric, DEFAULT_TOLERANCE)
        )
        verdict.checks.append(_check_one(row, candidate, tol))
    return verdict


def regress(
    db: ExperimentDB,
    baseline_rows: Sequence[Mapping[str, Any]],
    *,
    baseline_name: str = "snapshot",
    filter: Optional[PointFilter] = None,
    uniform: Optional[Tolerance] = None,
    fail_on_missing: bool = False,
) -> RegressionVerdict:
    """Gate the database's latest-per-point results against baseline rows
    (what :func:`repro.store.baselines.snapshot_rows` returns for a
    snapshot file)."""
    candidates = latest_per_point(db, filter=filter or PointFilter())
    return compare_points(
        baseline_name,
        baseline_rows,
        candidates,
        uniform=uniform,
        fail_on_missing=fail_on_missing,
    )
