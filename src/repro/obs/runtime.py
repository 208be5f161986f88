"""The observability context threaded through a simulation run.

One :class:`Observability` object bundles the run's instruments — an
:class:`~repro.obs.events.EventLog`, a
:class:`~repro.obs.registry.MetricsRegistry` and, when the run asks for
phase timing, a :class:`~repro.obs.spans.SpanRecorder`:

* ``enabled=False`` (the default): no events are recorded and the detailed
  per-entity registry metrics (queue-depth gauges, bandwidth gauges,
  predictor counters, buffer-occupancy histograms) are skipped entirely.
  Core experiment counters (via :class:`~repro.sim.metrics.MetricsCollector`)
  stay on.
* ``enabled=True``: the full event taxonomy is traced into the ring buffer
  and protocols feed the detailed registry metrics.
* ``spans=None`` (the default): nothing reads a clock.  Pass a recorder
  to time the engine's phases; its flat report becomes the run's
  ``MetricsSummary.phase_timings``.

The engine caches ``obs.enabled`` on the :class:`~repro.sim.engine.World`
(as ``world.obs_enabled``) so hot paths pay one attribute check, not an
object graph walk, when observability is off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs.events import EventLog
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanRecorder


@dataclass
class ObsConfig:
    """Observability knobs for one simulation run."""

    #: master switch: event tracing + detailed registry metrics
    enabled: bool = False
    #: event ring-buffer capacity (oldest events evicted beyond this)
    event_capacity: int = 200_000

    def __post_init__(self) -> None:
        if self.event_capacity <= 0:
            raise ValueError(
                f"event_capacity must be positive, got {self.event_capacity}"
            )


class Observability:
    """Event log + metrics registry (+ optional span recorder) for one run."""

    __slots__ = ("config", "events", "registry", "spans")

    def __init__(
        self,
        config: Optional[ObsConfig] = None,
        *,
        spans: Optional[SpanRecorder] = None,
    ) -> None:
        self.config = config or ObsConfig()
        self.events = EventLog(
            capacity=self.config.event_capacity, enabled=self.config.enabled
        )
        self.registry = MetricsRegistry()
        #: phase timing, on only when a recorder is given; runs may share one
        self.spans = spans

    @property
    def enabled(self) -> bool:
        """Whether detailed tracing/metrics are on (the master switch)."""
        return self.config.enabled

    @classmethod
    def tracing(cls, *, event_capacity: int = 200_000) -> "Observability":
        """Convenience constructor with tracing fully enabled."""
        return cls(ObsConfig(enabled=True, event_capacity=event_capacity))

    def stats_dict(self) -> Dict[str, object]:
        """Registry metrics + phase timings + event counts, JSON-shaped."""
        return {
            "metrics": self.registry.as_dict(),
            "phase_timings": self.spans.flat() if self.spans is not None else {},
            "events": {
                "recorded": len(self.events),
                "emitted": self.events.n_emitted,
                "evicted": self.events.n_evicted,
                "capacity": self.events.capacity,
                "by_type": self.events.counts_by_type(),
            },
        }
