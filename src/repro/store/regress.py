"""Regression gating: compare candidate results against a baseline snapshot.

The simulator is deterministic per seed, so the gate has one rule: for
every ``(resolved point, metric)`` row of the baseline, the candidate's
latest recording of the same content-hashed point must hold an identical
value.  A baseline row with no candidate recording fails too.  Confidence
half-widths (recorded by multi-seed ingests) are kept for display only;
the gate never reads them.

The output is a machine-readable :class:`RegressionVerdict` — CI jobs dump
it as a JSON artifact and exit non-zero on ``FAIL``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Sequence

from repro.store.db import ExperimentDB, PointRow
from repro.store.query import latest_per_point

__all__ = [
    "RegressionCheck",
    "RegressionVerdict",
    "compare_points",
    "regress",
]


@dataclass(frozen=True)
class RegressionCheck:
    """One ``(point, metric)`` comparison."""

    scenario_hash: str
    protocol: str
    trace: str
    metric: str
    baseline: float
    candidate: float
    status: str  # "PASS" | "FAIL"

    def describe(self) -> str:
        # repr, not :g — a one-ulp change must show in the message
        return (
            f"{self.status}: {self.protocol}/{self.trace} "
            f"[{self.scenario_hash[:12]}] {self.metric}: "
            f"{self.baseline!r} -> {self.candidate!r}"
        )


@dataclass
class RegressionVerdict:
    """The machine-readable outcome of one regression comparison."""

    baseline_name: str
    checks: List[RegressionCheck] = field(default_factory=list)
    #: baseline (point, metric) pairs with no candidate recording
    missing: List[Dict[str, str]] = field(default_factory=list)

    @property
    def failures(self) -> List[RegressionCheck]:
        return [c for c in self.checks if c.status == "FAIL"]

    @property
    def verdict(self) -> str:
        return "FAIL" if self.failures or self.missing else "PASS"

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "baseline": self.baseline_name,
            "verdict": self.verdict,
            "checked": len(self.checks),
            "failed": len(self.failures),
            "missing": list(self.missing),
            "checks": [asdict(c) for c in self.checks],
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        parts = [
            f"{self.verdict}: {len(self.checks)} metric check(s), "
            f"{len(self.failures)} failed, {len(self.missing)} missing"
        ]
        parts.extend(c.describe() for c in self.failures)
        return "\n".join(parts)


def compare_points(
    baseline_name: str,
    baseline_rows: Sequence[Mapping[str, Any]],
    candidates: Sequence[PointRow],
) -> RegressionVerdict:
    """Compare candidate points against baseline snapshot rows: a row
    passes only when its point's candidate holds an identical value."""
    by_hash = {c.scenario_hash: c for c in candidates}
    verdict = RegressionVerdict(baseline_name=baseline_name)
    for row in baseline_rows:
        scenario_hash = str(row["scenario_hash"])
        protocol = str(row.get("protocol", ""))
        trace = str(row.get("trace", ""))
        metric = str(row["metric"])
        candidate = by_hash.get(scenario_hash)
        if candidate is None or metric not in candidate.metrics:
            verdict.missing.append({
                "scenario_hash": scenario_hash,
                "protocol": protocol,
                "trace": trace,
                "metric": metric,
            })
            continue
        base_value = float(row["value"])
        cand_value = candidate.metrics[metric]
        verdict.checks.append(RegressionCheck(
            scenario_hash=scenario_hash,
            protocol=protocol,
            trace=trace,
            metric=metric,
            baseline=base_value,
            candidate=cand_value,
            status="PASS" if cand_value == base_value else "FAIL",
        ))
    return verdict


def regress(
    db: ExperimentDB,
    baseline_rows: Sequence[Mapping[str, Any]],
    *,
    baseline_name: str = "snapshot",
) -> RegressionVerdict:
    """Gate the database's latest-per-point results against baseline rows
    (what :func:`repro.store.baselines.snapshot_rows` returns for a
    snapshot file)."""
    return compare_points(baseline_name, baseline_rows, latest_per_point(db))
