"""Multi-seed experiment statistics with 95 % confidence intervals.

The paper sets "the confidence interval to 95 %" for its experiments.  This
module runs an experiment point across several workload seeds and reports
mean ± half-width of the Student-t confidence interval for each metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.eval.config import TraceProfile
from repro.eval.runner import PointSpec, TraceSpec, run_points
from repro.mobility.trace import Trace
from repro.utils.validation import require_in_range, require_positive


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


def run_with_confidence(
    trace: Trace,
    profile: TraceProfile,
    protocol_name: str,
    *,
    seeds: Sequence[int] = (1, 2, 3),
    memory_kb: float = 2000.0,
    rate: float = 500.0,
    level: float = 0.95,
    jobs: Union[int, str, None] = 1,
    trace_spec: Optional[TraceSpec] = None,
) -> Dict[str, MetricCI]:
    """Run one experiment point over ``seeds``; CI per metric.

    Only the workload seed varies (the trace is fixed), matching the paper's
    repeated-runs methodology.  ``jobs > 1`` fans the seeds out over worker
    processes; the per-seed results (and hence the intervals) are
    bit-identical to a serial run.
    """
    require_positive("n seeds", len(seeds))
    points = [
        PointSpec(protocol=protocol_name, memory_kb=memory_kb, rate=rate, seed=seed)
        for seed in seeds
    ]
    results = run_points(trace, profile, points, jobs=jobs, trace_spec=trace_spec)
    samples: Dict[str, List[float]] = {m: [] for m in METRICS}
    for outcome in results:
        res = outcome.metrics
        samples["success_rate"].append(res.success_rate)
        samples["avg_delay"].append(res.avg_delay)
        samples["forwarding_ops"].append(float(res.forwarding_ops))
        samples["total_cost"].append(float(res.total_cost))
    return {m: confidence_interval(vals, level=level) for m, vals in samples.items()}
