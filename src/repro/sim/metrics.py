"""Experiment metrics (Section V-A.1 of the paper).

The four reported metrics:

* **success rate** — fraction of generated packets that reach their
  destination landmark within TTL;
* **average delay** — mean delivery latency of *successful* packets;
* **forwarding cost** — number of packet forwarding operations;
* **total cost** — forwarding cost plus routing-information (maintenance)
  operations, where shipping a routing/meeting-probability table with ``n``
  entries counts as ``ceil(n / table_entry_unit)`` operations.  (The paper's
  exact weighting is garbled in the available text; the divisor is
  configurable and defaults to 10 — see DESIGN.md.)

``overall_avg_delay`` implements the Table VII convention: unsuccessful
packets are charged the full experiment duration.

The collector counts in plain ints, on every run.  A traced run's event
log (:class:`~repro.obs.events.EventLog`) counts the same packet fates
again as ``generated``/``delivered``/``dropped_ttl`` events, and the two
agree exactly (``tests/test_obs_integration.py``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.provenance import RunProvenance
from repro.utils.quantiles import FiveNumberSummary, five_number_summary
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class MetricsSummary:
    """Immutable result of one experiment run."""

    protocol: str
    trace: str
    generated: int
    delivered: int
    dropped_ttl: int
    forwarding_ops: int
    maintenance_ops: int
    success_rate: float
    avg_delay: float
    overall_avg_delay: float
    total_cost: int
    #: mean hop count of successful packets (0.0 when nothing delivered);
    #: the per-protocol resilience curves plot this against fault intensity
    avg_hops: float = 0.0
    delay_summary: Optional[FiveNumberSummary] = None
    #: config/seed/version stamp making the row self-describing (run
    #: provenance); None for hand-built summaries
    provenance: Optional[RunProvenance] = None
    #: wall-clock seconds per engine phase for this run, set only when
    #: the run was given a span recorder (``Observability(spans=...)``);
    #: excluded from equality — identical runs differ in wall-clock
    phase_timings: Optional[Dict[str, Dict[str, float]]] = field(
        default=None, compare=False
    )

    def as_row(self) -> tuple:
        return (
            self.protocol,
            self.generated,
            self.delivered,
            round(self.success_rate, 4),
            round(self.avg_delay, 1),
            self.forwarding_ops,
            self.total_cost,
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-shaped dict of every metric plus provenance."""
        out: Dict[str, Any] = {
            "protocol": self.protocol,
            "trace": self.trace,
            "generated": self.generated,
            "delivered": self.delivered,
            "dropped_ttl": self.dropped_ttl,
            "forwarding_ops": self.forwarding_ops,
            "maintenance_ops": self.maintenance_ops,
            "success_rate": self.success_rate,
            "avg_delay": self.avg_delay,
            "overall_avg_delay": self.overall_avg_delay,
            "total_cost": self.total_cost,
            "avg_hops": self.avg_hops,
        }
        if self.delay_summary is not None:
            s = self.delay_summary
            out["delay_summary"] = {
                "min": s.minimum, "q1": s.q1, "mean": s.mean,
                "q3": s.q3, "max": s.maximum,
            }
        if self.provenance is not None:
            out["provenance"] = self.provenance.as_dict()
        if self.phase_timings is not None:
            out["phase_timings"] = self.phase_timings
        return out


class MetricsCollector:
    """Mutable counters updated by the simulation world.

    Parameters
    ----------
    table_entry_unit:
        Divisor for table-exchange maintenance cost.
    experiment_duration:
        Span failures are charged in :attr:`overall_avg_delay` (Table VII).
        Leaving it at 0.0 while failures exist makes that metric charge
        failures *nothing* — a warning is issued when that happens.
    """

    def __init__(
        self,
        *,
        table_entry_unit: int = 10,
        experiment_duration: float = 0.0,
    ) -> None:
        require_positive("table_entry_unit", table_entry_unit)
        self.table_entry_unit = int(table_entry_unit)
        self.experiment_duration = float(experiment_duration)
        self.generated = 0
        self.delivered = 0
        self.dropped_ttl = 0
        self.forwarding_ops = 0
        self.maintenance_ops = 0
        self.delays: List[float] = []
        self.hops: List[int] = []
        #: per-landmark delivered counts (used by the deployment analysis)
        self.delivered_by_dst: Dict[int, int] = {}
        self._warned_zero_duration = False

    # -- event hooks ------------------------------------------------------------
    def on_generated(self) -> None:
        self.generated += 1

    def on_forward(self, n: int = 1) -> None:
        self.forwarding_ops += n

    def on_table_exchange(self, n_entries: int) -> None:
        """Count the cost of shipping a table with ``n_entries`` rows."""
        if n_entries <= 0:
            return
        self.maintenance_ops += math.ceil(n_entries / self.table_entry_unit)

    def on_delivered(self, delay: float, dst: int, hops: int = 0) -> None:
        self.delivered += 1
        self.delays.append(delay)
        self.hops.append(int(hops))
        self.delivered_by_dst[dst] = self.delivered_by_dst.get(dst, 0) + 1

    def on_dropped_ttl(self, n: int = 1) -> None:
        self.dropped_ttl += n

    # -- summary -------------------------------------------------------------------
    @property
    def success_rate(self) -> float:
        return self.delivered / self.generated if self.generated else 0.0

    @property
    def avg_delay(self) -> float:
        return sum(self.delays) / len(self.delays) if self.delays else 0.0

    @property
    def overall_avg_delay(self) -> float:
        """Average over *all* packets, failures charged the experiment time.

        With ``experiment_duration`` unset (0.0) the charge for a failed
        packet is zero, which silently *understates* the metric; that
        condition warns once.
        """
        if not self.generated:
            return 0.0
        failed = self.generated - self.delivered
        if failed > 0 and self.experiment_duration <= 0.0:
            if not self._warned_zero_duration:
                self._warned_zero_duration = True
                warnings.warn(
                    f"overall_avg_delay: {failed} failed packet(s) charged a "
                    "zero experiment_duration — the metric understates delay; "
                    "pass experiment_duration to MetricsCollector",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return (sum(self.delays) + failed * self.experiment_duration) / self.generated

    @property
    def avg_hops(self) -> float:
        return sum(self.hops) / len(self.hops) if self.hops else 0.0

    @property
    def total_cost(self) -> int:
        return self.forwarding_ops + self.maintenance_ops

    def summary(
        self,
        protocol: str,
        trace: str,
        *,
        provenance: Optional[RunProvenance] = None,
        phase_timings: Optional[Dict[str, Dict[str, float]]] = None,
    ) -> MetricsSummary:
        return MetricsSummary(
            protocol=protocol,
            trace=trace,
            generated=self.generated,
            delivered=self.delivered,
            dropped_ttl=self.dropped_ttl,
            forwarding_ops=self.forwarding_ops,
            maintenance_ops=self.maintenance_ops,
            success_rate=self.success_rate,
            avg_delay=self.avg_delay,
            overall_avg_delay=self.overall_avg_delay,
            total_cost=self.total_cost,
            avg_hops=self.avg_hops,
            delay_summary=five_number_summary(self.delays) if self.delays else None,
            provenance=provenance,
            phase_timings=phase_timings,
        )
