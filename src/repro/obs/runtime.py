"""The observability context threaded through a simulation run.

One :class:`Observability` object bundles the run's two instruments: an
:class:`~repro.obs.events.EventLog` and, when the run asks for phase
timing, a :class:`~repro.obs.spans.SpanRecorder`:

* ``enabled=False`` (the default): no events are recorded.  The paper's
  metrics (:class:`~repro.sim.metrics.MetricsCollector`) are counted
  either way.
* ``enabled=True``: the full event taxonomy is traced into the ring
  buffer, whose per-type counts stay exact past ``event_capacity``.
* ``spans=None`` (the default): nothing reads a clock.  Pass a recorder
  to time the engine's phases; its flat report becomes the run's
  ``MetricsSummary.phase_timings``.

The engine caches ``obs.enabled`` on the :class:`~repro.sim.engine.World`
(as ``world.obs_enabled``) so hot paths pay one attribute check, not an
object graph walk, when observability is off.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.events import EventLog
from repro.obs.spans import SpanRecorder


class Observability:
    """Event log (+ optional span recorder) for one run."""

    __slots__ = ("events", "spans")

    def __init__(
        self,
        *,
        enabled: bool = False,
        event_capacity: int = 200_000,
        spans: Optional[SpanRecorder] = None,
    ) -> None:
        self.events = EventLog(capacity=event_capacity, enabled=enabled)
        #: phase timing, on only when a recorder is given; runs may share one
        self.spans = spans

    @property
    def enabled(self) -> bool:
        """Whether event tracing is on (the master switch)."""
        return self.events.enabled

    def stats_dict(self) -> Dict[str, object]:
        """Phase timings + event counts, JSON-shaped."""
        return {
            "phase_timings": self.spans.flat() if self.spans is not None else {},
            "events": {
                "recorded": len(self.events),
                "emitted": self.events.n_emitted,
                "evicted": self.events.n_evicted,
                "capacity": self.events.capacity,
                "by_type": self.events.counts_by_type(),
            },
        }
