"""Graceful-degradation evaluation on top of the fault-injection plane.

Two measurements the paper only gestures at (Section IV-E motivates the
dead-end/loop/load extensions with degraded conditions but never quantifies
them):

* **degradation curves** — run each protocol under a family of fault plans
  of increasing *intensity* (a scalar in ``[0, 1]`` scaling landmark
  outages, node churn, link degradation and transfer loss together) and
  plot success rate / delay / hops against intensity.  Every protocol sees
  the exact same fault schedule at each intensity (the plan seed is fixed),
  so the curves are directly comparable;
* **re-convergence** — kill a landmark mid-run and measure how long
  DTN-FLOW's distance-vector tables keep routing *toward the corpse*:
  probes sample every station's table and count entries whose next hop is
  the dead landmark; the re-convergence time is when that count first
  returns to zero after the death.

Everything here is deterministic: same trace + same seeds + same intensity
grid ⇒ identical curves, identical fault event sequences (see
docs/resilience.md).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.eval.runner import Entry, PointSpec, TraceSpec, run_point_specs
from repro.mobility.trace import Trace
from repro.sim.engine import SimConfig, Simulation
from repro.sim.faults import FaultPlan
from repro.utils.validation import require_in_range

__all__ = [
    "DEFAULT_INTENSITIES",
    "DegradationCurves",
    "DegradationPoint",
    "ReconvergenceResult",
    "degradation_curves",
    "fault_plan_dict",
    "reconvergence_after_death",
]

#: default fault-intensity grid for degradation curves
DEFAULT_INTENSITIES: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

#: the fraction-of-trace window composed faults occupy (after the paper's
#: 1/4 warm-up, covering the middle of the measurement period)
_FAULT_WINDOW = (0.35, 0.8)


def fault_plan_dict(
    intensity: float,
    *,
    n_landmarks: int,
    seed: int = 0,
    window: Tuple[float, float] = _FAULT_WINDOW,
) -> Dict[str, Any]:
    """The canonical composed fault plan at one scalar ``intensity``.

    Intensity 0 is the empty (healthy) plan.  Rising intensity takes out
    more landmarks (up to ~40% at intensity 1), churns out more nodes (up
    to half), degrades links harder (down to 40% budget) and loses more
    transfers (up to 30%), all inside the same window — a single knob that
    stresses every failure mode the fault plane models.
    """
    require_in_range("intensity", intensity, 0.0, 1.0)
    if n_landmarks < 2:
        raise ValueError(f"need at least two landmarks, got {n_landmarks}")
    t0, t1 = window
    specs: List[Dict[str, Any]] = []
    if intensity > 0.0:
        n_out = max(1, int(round(0.4 * intensity * n_landmarks)))
        # never take out every landmark: routing needs survivors
        n_out = min(n_out, n_landmarks - 1)
        specs.append(
            {"kind": "landmark_outage", "start": t0, "end": t1, "count": n_out}
        )
        churn = round(0.5 * intensity, 6)
        if churn > 0.0:
            specs.append(
                {"kind": "node_churn", "start": t0, "end": t1, "fraction": churn}
            )
        factor = round(1.0 - 0.6 * intensity, 6)
        if factor < 1.0:
            specs.append(
                {"kind": "link_degradation", "start": t0, "end": t1, "factor": factor}
            )
        prob = round(0.3 * intensity, 6)
        if prob > 0.0:
            specs.append(
                {"kind": "transfer_loss", "start": t0, "end": t1, "prob": prob}
            )
    return {"seed": int(seed), "specs": specs}


@dataclass(frozen=True)
class DegradationPoint:
    """One protocol's headline metrics at one fault intensity."""

    intensity: float
    success_rate: float
    avg_delay: float
    avg_hops: float
    generated: int
    delivered: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "intensity": self.intensity,
            "success_rate": self.success_rate,
            "avg_delay": self.avg_delay,
            "avg_hops": self.avg_hops,
            "generated": self.generated,
            "delivered": self.delivered,
        }


@dataclass
class DegradationCurves:
    """Per-protocol degradation curves over one intensity grid."""

    trace: str
    intensities: Tuple[float, ...]
    fault_seed: int
    #: protocol -> one point per intensity, in grid order
    curves: Dict[str, List[DegradationPoint]] = field(default_factory=dict)

    def series(self, protocol: str, metric: str) -> List[float]:
        """One metric of one protocol along the intensity grid."""
        return [getattr(p, metric) for p in self.curves[protocol]]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace": self.trace,
            "intensities": list(self.intensities),
            "fault_seed": self.fault_seed,
            "curves": {
                name: [p.as_dict() for p in points]
                for name, points in sorted(self.curves.items())
            },
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)


def degradation_curves(
    trace: Trace,
    protocols: Sequence[str] = ("DTN-FLOW", "PROPHET", "PGR"),
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    *,
    config: Optional[SimConfig] = None,
    fault_seed: int = 7,
    jobs: Union[int, str, None] = 1,
) -> DegradationCurves:
    """Run every protocol at every intensity and fold the curves.

    ``config`` is the healthy baseline :class:`SimConfig` (its ``faults``
    field, if any, is replaced by the intensity-derived plan).  All runs at
    one intensity share the identical compiled fault schedule, so curve
    differences are protocol differences, not fault-draw noise.
    """
    if not protocols:
        raise ValueError("need at least one protocol")
    from repro.baselines import protocol_names

    unknown = sorted(set(protocols) - set(protocol_names()))
    if unknown:
        raise ValueError(
            f"unknown protocol(s): {', '.join(unknown)}; "
            f"known: {', '.join(protocol_names())}"
        )
    base = config if config is not None else SimConfig()
    grid = tuple(float(x) for x in intensities)
    plans = {
        x: fault_plan_dict(x, n_landmarks=trace.n_landmarks, seed=fault_seed)
        for x in sorted(set(grid))
    }
    spec = TraceSpec.inline(trace)
    entries: List[Entry] = []
    for name in protocols:
        for x in grid:
            plan = plans[x]
            cfg = dataclasses.replace(
                base, faults=plan if plan["specs"] else None
            )
            point = PointSpec(
                protocol=name,
                memory_kb=base.node_memory_kb,
                rate=base.rate_per_landmark_per_day,
                seed=base.seed,
            )
            entries.append((spec, point, cfg))
    results = run_point_specs(entries, jobs=jobs, materialized={spec.key: trace})
    out = DegradationCurves(
        trace=trace.name, intensities=grid, fault_seed=int(fault_seed)
    )
    it = iter(results)
    for name in protocols:
        points: List[DegradationPoint] = []
        for x in grid:
            m = next(it).metrics
            points.append(
                DegradationPoint(
                    intensity=x,
                    success_rate=m.success_rate,
                    avg_delay=m.avg_delay,
                    avg_hops=m.avg_hops,
                    generated=m.generated,
                    delivered=m.delivered,
                )
            )
        out.curves[str(name)] = points
    return out


@dataclass
class ReconvergenceResult:
    """DTN-FLOW routing-table re-convergence after a landmark death.

    ``stale_routes[i]`` is the number of routing-table entries (across all
    surviving stations) that route *through* the dead landmark at
    ``probe_times[i]`` — next hop dead, destination elsewhere.  Entries
    whose destination is the corpse itself are excluded: they are
    undeliverable regardless of their next hop, not mis-routed transit.
    ``reconverged_at`` is the first probe time after the death where the
    count is zero (None = never within the trace).
    """

    dead_landmark: int
    death_time: float
    probe_times: List[float] = field(default_factory=list)
    stale_routes: List[int] = field(default_factory=list)
    reconverged_at: Optional[float] = None

    @property
    def reconvergence_delay(self) -> Optional[float]:
        """Seconds from the death to the first stale-free observation."""
        if self.reconverged_at is None:
            return None
        return self.reconverged_at - self.death_time

    def as_dict(self) -> Dict[str, Any]:
        return {
            "dead_landmark": self.dead_landmark,
            "death_time": self.death_time,
            "probe_times": list(self.probe_times),
            "stale_routes": list(self.stale_routes),
            "reconverged_at": self.reconverged_at,
            "reconvergence_delay": self.reconvergence_delay,
        }


def reconvergence_after_death(
    trace: Trace,
    *,
    landmark: Optional[int] = None,
    death_start: float = 0.5,
    n_probes: int = 16,
    config: Optional[SimConfig] = None,
    protocol_kwargs: Optional[Dict[str, Any]] = None,
    fault_seed: int = 0,
) -> ReconvergenceResult:
    """Kill one landmark and measure DTN-FLOW's table re-convergence.

    ``landmark`` picks the victim explicitly; ``None`` lets the fault seed
    choose one.  ``n_probes`` observation points are spread uniformly over
    the trace; each counts the stale (dead-next-hop) routing entries.
    """
    from repro.baselines import make_protocol

    require_in_range("death_start", death_start, 0.0, 1.0)
    if n_probes < 2:
        raise ValueError(f"need at least two probes, got {n_probes}")
    spec: Dict[str, Any] = {"kind": "landmark_death", "start": death_start}
    if landmark is not None:
        spec["landmark"] = int(landmark)
    else:
        spec["count"] = 1
    plan = {"seed": int(fault_seed), "specs": [spec]}
    schedule = FaultPlan.from_dict(plan).compile(trace)
    dead = schedule.affected_landmarks()[0]
    death_time = trace.start_time + death_start * trace.duration

    base = config if config is not None else SimConfig()
    cfg = dataclasses.replace(base, faults=plan)
    protocol = make_protocol("DTN-FLOW", **(protocol_kwargs or {}))

    result = ReconvergenceResult(dead_landmark=dead, death_time=death_time)

    def make_probe(t: float):
        def probe(world) -> None:
            stale = 0
            for lid, table in protocol.routing_tables().items():
                if lid == dead:
                    continue  # the corpse's own table routes nothing
                stale += sum(
                    1
                    for e in table.entries()
                    if e.next_hop == dead and e.dest != dead
                )
            result.probe_times.append(t)
            result.stale_routes.append(stale)

        return probe

    span = trace.duration
    probes = []
    for i in range(n_probes):
        t = trace.start_time + (i + 1) / (n_probes + 1) * span
        probes.append((t, make_probe(t)))
    Simulation(trace, protocol, cfg, probes=probes).run()

    for t, stale in zip(result.probe_times, result.stale_routes):
        if t >= death_time and stale == 0:
            result.reconverged_at = t
            break
    return result
