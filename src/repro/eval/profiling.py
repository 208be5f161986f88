"""Deep-profiling runs: one scenario, one span tree, one sampler.

``repro profile <scenario>`` runs every point of a scenario in this
process through :func:`repro.eval.scenario.run_scenario`, whose
``observe`` executor hook opens a ``point[...]`` span on one shared
:class:`~repro.obs.spans.SpanRecorder` around each point, so every
point's engine phases nest under its own span, and a single
:class:`~repro.obs.sampler.SamplingProfiler` can watch the whole run's
call stacks.  Each point still gets a *fresh*
:class:`~repro.obs.runtime.Observability` carrying the shared recorder.

:func:`profile_scenario` returns a :class:`ProfileRun` whose
:meth:`~ProfileRun.payload` is the ingestible profile document.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

from repro.eval.experiment import ExperimentResult
from repro.eval.runner import PointSpec
from repro.eval.scenario import ScenarioSpec, run_scenario
from repro.obs import Observability, SamplingProfiler
from repro.obs.export import profile_payload
from repro.obs.spans import SpanRecorder

__all__ = ["ProfileRun", "point_label", "profile_scenario"]


def point_label(point: PointSpec) -> str:
    """The span name for one scenario point."""
    return (
        f"point[{point.protocol} mem={point.memory_kb:g} "
        f"rate={point.rate:g} seed={point.seed}]"
    )


@dataclass
class ProfileRun:
    """Everything one profiled scenario run produced."""

    spec: ScenarioSpec
    label: str
    recorded_at: str
    wall_seconds: float
    recorder: SpanRecorder
    results: List[ExperimentResult]
    sampler: Optional[SamplingProfiler] = None
    points: List[PointSpec] = field(default_factory=list)

    def span_tree(self) -> Dict[str, Any]:
        return self.recorder.tree()

    def phases(self) -> Dict[str, Dict[str, float]]:
        """Flat per-phase totals aggregated over every profiled point."""
        # per-point wrapper spans duplicate the phase totals they contain;
        # the flat view keeps engine/protocol phases only
        return {
            name: rec
            for name, rec in self.recorder.flat().items()
            if not name.startswith("point[") and name != "profile"
        }

    def payload(self) -> Dict[str, Any]:
        """The ingestible profile document (``kind: "profile"``)."""
        return profile_payload(
            label=self.label,
            scenario=self.spec.as_dict(),
            wall_seconds=self.wall_seconds,
            span_tree=self.span_tree(),
            phases=self.phases(),
            recorded_at=self.recorded_at,
            sampler=self.sampler,
        )


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def profile_scenario(
    spec: ScenarioSpec,
    *,
    hz: float = 97.0,
    sample: bool = True,
    allocations: bool = False,
    label: Optional[str] = None,
) -> ProfileRun:
    """Run every point of ``spec`` in-process under one profiling context.

    The root ``profile`` span brackets the whole grid, so its cumulative
    seconds are the run's wall-clock (the acceptance check for span
    accounting).  ``sample=False`` keeps only the span tree (used when
    measuring span overhead in isolation).
    """
    recorder = SpanRecorder()
    sampler = (
        SamplingProfiler(hz=hz, trace_allocations=allocations) if sample else None
    )

    @contextmanager
    def observe(index: int, point: PointSpec) -> Iterator[Observability]:
        # the span covers protocol and world construction too
        with recorder.span(point_label(point)):
            yield Observability(spans=recorder)

    recorded_at = _utc_now()
    if sampler is not None:
        sampler.start()
    t0 = perf_counter()
    try:
        with recorder.span("profile"):
            res = run_scenario(spec, observe=observe)
    finally:
        wall_seconds = perf_counter() - t0
        if sampler is not None:
            sampler.stop()
    return ProfileRun(
        spec=spec,
        label=label or spec.name or "profile",
        recorded_at=recorded_at,
        wall_seconds=wall_seconds,
        recorder=recorder,
        results=res.results,
        sampler=sampler,
        points=res.points,
    )
