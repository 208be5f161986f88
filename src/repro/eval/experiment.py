"""Single-experiment runner tying traces, protocols and configs together."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines import make_protocol
from repro.mobility.trace import Trace
from repro.obs import Observability
from repro.sim.engine import SimConfig, Simulation
from repro.sim.metrics import MetricsSummary


@dataclass(frozen=True)
class ExperimentResult:
    """A labelled metrics summary with the knobs that produced it."""

    protocol: str
    trace: str
    memory_kb: float
    rate: float
    seed: int
    metrics: MetricsSummary


def execute_config(
    trace: Trace,
    protocol_name: str,
    config: SimConfig,
    *,
    memory_kb: float,
    rate: float,
    seed: int,
    protocol_kwargs: Optional[dict] = None,
    scenario: Optional[dict] = None,
    obs: Optional[Observability] = None,
    checkpointer=None,
) -> ExperimentResult:
    """Run one experiment from a fully-resolved :class:`SimConfig`.

    This is the single execution path shared by the serial runners and the
    parallel executor's workers (``repro.eval.runner``): a config resolved
    once in the parent yields bit-identical results wherever it runs.
    ``scenario`` (a resolved-scenario dict) is stamped into the run's
    provenance for exact reruns.  ``obs`` overrides the run's observability
    context (the executor passes the one its ``observe`` hook yields).
    ``checkpointer`` (a :class:`~repro.sim.checkpoint.SerialCheckpointer`)
    switches to the crash-safe loop: restore from the newest complete
    checkpoint, snapshot every N events — bit-identical either way.
    """
    protocol = make_protocol(protocol_name, **(protocol_kwargs or {}))
    sim = Simulation(trace, protocol, config, obs=obs, scenario=scenario)
    if checkpointer is None:
        summary = sim.run()
    else:
        summary = sim.run_checkpointed(checkpointer)
    return ExperimentResult(
        protocol=protocol_name,
        trace=trace.name,
        memory_kb=memory_kb,
        rate=rate,
        seed=seed,
        metrics=summary,
    )

