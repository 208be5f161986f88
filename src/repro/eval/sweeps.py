"""Sweep results: the data behind the paper's Figs. 11-14.

A :class:`SweepResult` holds per-protocol series of the four metrics
(success rate, average delay, forwarding cost, total cost) across the
swept parameter — exactly the data behind the paper's four-panel figures.
A sweep is a :class:`~repro.eval.scenario.ScenarioSpec` with a ``sweep``
block; :meth:`~repro.eval.scenario.ScenarioResult.sweep_result` folds its
run into a :class:`SweepResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.utils.tables import format_table


@dataclass
class SweepResult:
    """Results of sweeping one parameter over several protocols."""

    trace: str
    parameter: str  # "memory_kb" | "rate"
    values: Tuple[float, ...]
    #: protocol -> metric -> series aligned with ``values``
    series: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)

    METRICS = ("success_rate", "avg_delay", "forwarding_cost", "total_cost")

    def add(self, protocol: str, summary) -> None:
        """Append one point's summary to its protocol's series."""
        rec = self.series.setdefault(
            protocol, {m: [] for m in self.METRICS}
        )
        rec["success_rate"].append(summary.success_rate)
        rec["avg_delay"].append(summary.avg_delay)
        rec["forwarding_cost"].append(float(summary.forwarding_ops))
        rec["total_cost"].append(float(summary.total_cost))

    def metric_table(self, metric: str) -> str:
        """Render one metric panel as an ASCII table (a paper sub-figure)."""
        if metric not in self.METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        headers = [self.parameter] + list(self.series)
        rows = []
        for i, v in enumerate(self.values):
            row = [v] + [self.series[p][metric][i] for p in self.series]
            rows.append(row)
        return format_table(headers, rows, title=f"{self.trace}: {metric}")

    def _metric_series(self, protocol: str, metric: str) -> List[float]:
        if metric not in self.METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        series = self.series[protocol][metric]
        if not series:
            raise ValueError(
                f"no values recorded for protocol {protocol!r}, "
                f"metric {metric!r} — was the sweep run?"
            )
        return series

    def _require_series(self) -> None:
        if not self.series:
            raise ValueError(
                "sweep result is empty (no points were added) — "
                "run the sweep before querying it"
            )

    def final_values(self, metric: str) -> Dict[str, float]:
        """Metric value at the last sweep point, per protocol."""
        self._require_series()
        return {p: self._metric_series(p, metric)[-1] for p in self.series}

    def mean_values(self, metric: str) -> Dict[str, float]:
        """Metric averaged over the sweep, per protocol (for shape checks)."""
        self._require_series()
        out: Dict[str, float] = {}
        for p in self.series:
            series = self._metric_series(p, metric)
            out[p] = sum(series) / len(series)
        return out
