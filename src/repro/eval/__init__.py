"""Experiment harness: configs, runners, sweeps and extension evaluations."""

from repro.eval.config import (
    MEMORY_SWEEP_KB,
    OVERLOAD_RATES,
    RATE_SWEEP,
    TraceProfile,
    full_scale,
    profile_for_trace,
    trace_profile,
)
from repro.eval.confidence import MetricCI, confidence_interval
from repro.eval.coverage import CoveragePoint, table_coverage_series
from repro.eval.deployment import LIBRARY, DeploymentResult, run_deployment
from repro.eval.experiment import ExperimentResult
from repro.eval.extensions import (
    DeadEndRow,
    LoadBalanceRow,
    LoopRow,
    deadend_experiment,
    deadend_trace,
    loadbalance_experiment,
    loop_experiment,
)
from repro.eval.resilience import (
    DEFAULT_INTENSITIES,
    ReconvergenceResult,
    degradation_curves,
    fault_plan_dict,
    reconvergence_after_death,
)
from repro.eval.runner import (
    PointExecutionError,
    PointSpec,
    TraceSpec,
    parse_jobs,
    run_point_specs,
)
from repro.eval.scenario import (
    ProtocolSpec,
    ScenarioResult,
    ScenarioSpec,
    ScenarioTrace,
    SweepSpec,
    extract_scenarios,
    load_scenario,
    preset_names,
    preset_scenario,
    run_scenario,
)
from repro.eval.sweeps import SweepResult

__all__ = [
    "ProtocolSpec",
    "ScenarioResult",
    "ScenarioSpec",
    "ScenarioTrace",
    "SweepSpec",
    "extract_scenarios",
    "load_scenario",
    "preset_names",
    "preset_scenario",
    "profile_for_trace",
    "run_scenario",
    "PointExecutionError",
    "PointSpec",
    "TraceSpec",
    "parse_jobs",
    "run_point_specs",
    "DEFAULT_INTENSITIES",
    "ReconvergenceResult",
    "degradation_curves",
    "fault_plan_dict",
    "reconvergence_after_death",
    "MEMORY_SWEEP_KB",
    "OVERLOAD_RATES",
    "RATE_SWEEP",
    "TraceProfile",
    "full_scale",
    "trace_profile",
    "MetricCI",
    "confidence_interval",
    "CoveragePoint",
    "table_coverage_series",
    "LIBRARY",
    "DeploymentResult",
    "run_deployment",
    "ExperimentResult",
    "DeadEndRow",
    "LoadBalanceRow",
    "LoopRow",
    "deadend_experiment",
    "deadend_trace",
    "loadbalance_experiment",
    "loop_experiment",
    "SweepResult",
]
