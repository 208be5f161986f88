"""Experiment configuration: paper parameters mapped to runnable configs.

The paper's experiment settings (Section V-A.1):

====================  =====================  =====================
parameter             DART                   DNET
====================  =====================  =====================
packet rate           100-1000 /landmark/day (default 500)
TTL                   20 days                4 days
node memory           1200-3000 kB (default 2000 kB)
packet size           1 kB
time unit             3 days                 0.5 day
warm-up               first 1/4 of the trace
====================  =====================  =====================

Scaled-down runs: our synthetic traces are smaller than the originals, so
:data:`TraceProfile.workload_scale` shrinks the packet population and the
node memory together — keeping the *memory-pressure regime* (packets per
buffer slot) comparable to the paper's, which is what the memory sweeps
probe.  Benchmarks print nominal (paper-unit) parameters.

Set the environment variable ``REPRO_FULL_SCALE=1`` to run paper-scale
traces and workloads (slow: minutes per protocol per point).  The flag is
resolved **once per process** (first call to :func:`full_scale`) so a
mid-run environment change can never mix scales within one sweep; callers
that need an explicit scale pass ``full_scale=`` to :func:`trace_profile`
(scenario manifests thread it through their ``trace`` block).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from repro.mobility.trace import Trace, days
from repro.mobility.synthetic import dart_like, dnet_like
from repro.sim.engine import SimConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scenario -> config)
    from repro.eval.scenario import ScenarioSpec

#: process-wide resolution of REPRO_FULL_SCALE; None = not yet read
_FULL_SCALE: Optional[bool] = None


def full_scale() -> bool:
    """Whether paper-scale experiments were requested via REPRO_FULL_SCALE.

    The environment variable is read once per process and cached; later
    environment changes are ignored (a sweep can therefore never mix
    scales).  Tests use :func:`_reset_full_scale_cache` to re-read it.
    """
    global _FULL_SCALE
    if _FULL_SCALE is None:
        _FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "0") not in (
            "",
            "0",
            "false",
            "no",
        )
    return _FULL_SCALE


def _reset_full_scale_cache() -> None:
    """Forget the cached REPRO_FULL_SCALE resolution (test helper)."""
    global _FULL_SCALE
    _FULL_SCALE = None


# alias for functions whose parameters shadow the name
_resolve_full_scale = full_scale


@dataclass(frozen=True)
class TraceProfile:
    """Everything trace-specific an experiment needs.

    A profile is a thin *preset*: it resolves the trace-dependent paper
    parameters (TTL, time unit, workload scale) and can emit a declarative
    :class:`~repro.eval.scenario.ScenarioSpec` via :meth:`scenario` — the
    serializable form every runner consumes.
    """

    name: str
    build: Callable[[int], Trace]  # seed -> trace
    ttl: float
    time_unit: float
    workload_scale: float
    contact_prob: float = 0.2
    #: memory is scaled more aggressively than the packet population so the
    #: default 2000 kB sits in the paper's contention regime (Section V runs
    #: with memory as the binding resource across the whole sweep)
    memory_pressure: float = 0.25
    #: registry key ("DART"/"DNET") when this profile is a built-in preset;
    #: empty for ad-hoc profiles built around an in-memory trace
    key: str = ""
    #: CSV path when this profile wraps an external trace file
    source_path: Optional[str] = None
    #: the scale this profile was resolved at (None = ad-hoc profile)
    full: Optional[bool] = None

    def sim_config(
        self,
        *,
        memory_kb: float = 2000.0,
        rate: float = 500.0,
        seed: int = 0,
    ) -> SimConfig:
        """A :class:`SimConfig` with this profile's fixed parameters."""
        return SimConfig(
            node_memory_kb=memory_kb,
            rate_per_landmark_per_day=rate,
            workload_scale=self.workload_scale,
            memory_scale=self.workload_scale * self.memory_pressure,
            ttl=self.ttl,
            time_unit=self.time_unit,
            contact_prob=self.contact_prob,
            seed=seed,
        )

    def trace_field(self, seed: int) -> Optional[Dict[str, object]]:
        """The scenario ``trace`` block reproducing this profile's trace.

        ``None`` when the profile wraps an in-memory trace that has no
        serializable recipe (runs still work, they just cannot be re-run
        from provenance alone).
        """
        if self.key:
            return {
                "profile": self.key,
                "seed": int(seed),
                "full_scale": bool(self.full if self.full is not None else full_scale()),
            }
        if self.source_path is not None:
            return {"path": str(self.source_path)}
        return None

    def scenario(
        self,
        *,
        protocols: Sequence[object] = ("DTN-FLOW",),
        seeds: Sequence[int] = (1,),
        trace_seed: int = 1,
        memory_kb: float = 2000.0,
        rate: float = 500.0,
        sweep: Optional[Dict[str, object]] = None,
        name: str = "",
    ) -> "ScenarioSpec":
        """Emit a :class:`~repro.eval.scenario.ScenarioSpec` for this preset."""
        from repro.eval.scenario import ScenarioSpec

        trace_block = self.trace_field(trace_seed)
        if trace_block is None:
            raise ValueError(
                f"profile {self.name!r} wraps an in-memory trace and cannot "
                "emit a serializable scenario; load the trace from a CSV path "
                "or use a built-in profile (DART/DNET)"
            )
        return ScenarioSpec.from_dict(
            {
                "name": name,
                "trace": trace_block,
                "sim": {"memory_kb": memory_kb, "rate": rate},
                "protocols": list(protocols),
                "seeds": list(seeds),
                **({"sweep": sweep} if sweep else {}),
            }
        )


def profile_for_trace(trace: Trace, *, path: Optional[str] = None) -> TraceProfile:
    """A generic profile for an external trace: day-scale time unit, 1/5 of
    the trace duration as TTL (the CLI's rule for CSV traces)."""
    return TraceProfile(
        name=trace.name,
        build=lambda s: trace,
        ttl=max(days(0.5), trace.duration / 5.0),
        time_unit=max(days(0.25), trace.duration / 20.0),
        workload_scale=1.0,
        memory_pressure=1.0,
        source_path=str(path) if path is not None else None,
    )


def _dart_profile(full: bool) -> TraceProfile:
    if full:
        return TraceProfile(
            name="DART-like",
            build=lambda seed: dart_like("full", seed=seed),
            ttl=days(20.0),
            time_unit=days(3.0),
            # ~17k packets at rate 500 on the 151-landmark, 119-day trace;
            # memory pressure keeps buffers binding as in the paper
            # (2000 kB -> ~10 packet slots per node)
            workload_scale=0.0025,
            memory_pressure=2.0,
            key="DART",
            full=True,
        )
    return TraceProfile(
        name="DART-like",
        build=lambda seed: dart_like("small", seed=seed),
        ttl=days(7.0),
        time_unit=days(3.0),
        workload_scale=0.01,
        memory_pressure=0.5,
        key="DART",
        full=False,
    )


def _dnet_profile(full: bool) -> TraceProfile:
    if full:
        return TraceProfile(
            name="DNET-like",
            build=lambda seed: dnet_like("full", seed=seed),
            ttl=days(4.0),
            time_unit=days(0.5),
            workload_scale=0.02,
            memory_pressure=0.15,
            key="DNET",
            full=True,
        )
    return TraceProfile(
        name="DNET-like",
        build=lambda seed: dnet_like("small", seed=seed),
        ttl=days(2.0),
        time_unit=days(0.5),
        workload_scale=0.03,
        memory_pressure=0.15,
        key="DNET",
        full=False,
    )


_PROFILES: Dict[str, Callable[[bool], TraceProfile]] = {
    "DART": _dart_profile,
    "DNET": _dnet_profile,
}


def trace_profile(name: str, *, full_scale: Optional[bool] = None) -> TraceProfile:
    """Get the experiment profile for ``"DART"`` or ``"DNET"``.

    ``full_scale`` pins the scale explicitly; ``None`` (default) uses the
    process-wide REPRO_FULL_SCALE resolution.
    """
    try:
        builder = _PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown trace profile {name!r}; options: DART, DNET") from None
    resolved = _resolve_full_scale() if full_scale is None else bool(full_scale)
    return builder(resolved)


#: the paper's memory sweep, in kB (Fig. 11/12 x-axis)
MEMORY_SWEEP_KB: Tuple[float, ...] = tuple(float(m) for m in range(1200, 3001, 200))
#: the paper's packet-rate sweep (Fig. 13/14 x-axis)
RATE_SWEEP: Tuple[float, ...] = tuple(float(r) for r in range(100, 1001, 100))
#: the 5-point grids scaled-down runs sweep instead, keyed by sweep parameter
_SMALL_SWEEPS: Dict[str, Tuple[float, ...]] = {
    "memory_kb": (1200.0, 1600.0, 2000.0, 2400.0, 3000.0),
    "rate": (100.0, 300.0, 500.0, 700.0, 1000.0),
}


def sweep_grid(parameter: str, full: bool) -> Tuple[float, ...]:
    """The values of a ``memory_kb`` or ``rate`` sweep: the paper's 10-point
    axis at full scale, its 5-point subset otherwise."""
    if full:
        return MEMORY_SWEEP_KB if parameter == "memory_kb" else RATE_SWEEP
    return _SMALL_SWEEPS[parameter]


#: overload rates used by the load-balancing tables (Tables VIII/IX)
OVERLOAD_RATES: Tuple[float, ...] = (1100.0, 1200.0, 1300.0, 1400.0, 1500.0)
