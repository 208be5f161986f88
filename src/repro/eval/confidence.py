"""Multi-seed experiment statistics with 95 % confidence intervals.

The paper sets "the confidence interval to 95 %" for its experiments.  A
scenario run over several workload seeds reports, per metric, the mean ±
half-width of the Student-t confidence interval
(:meth:`~repro.eval.scenario.ScenarioResult.confidence`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.validation import require_in_range


@dataclass(frozen=True)
class MetricCI:
    """Mean and symmetric confidence half-width of one metric."""

    mean: float
    half_width: float
    n: int
    level: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g}"


def confidence_interval(
    samples: Sequence[float], level: float = 0.95
) -> MetricCI:
    """Student-t confidence interval for the mean of ``samples``."""
    require_in_range("level", level, 0.0, 1.0, inclusive_low=False, inclusive_high=False)
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("no samples")
    mean = float(arr.mean())
    if arr.size == 1:
        return MetricCI(mean=mean, half_width=0.0, n=1, level=level)
    from scipy import stats as sp_stats  # slow to import; only this call needs it

    sem = float(arr.std(ddof=1)) / np.sqrt(arr.size)
    t = float(sp_stats.t.ppf(0.5 + level / 2.0, df=arr.size - 1))
    return MetricCI(mean=mean, half_width=t * sem, n=int(arr.size), level=level)


METRICS = ("success_rate", "avg_delay", "forwarding_ops", "total_cost")

