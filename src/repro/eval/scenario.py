"""Declarative, serializable experiment scenarios (`ScenarioSpec`).

The paper's evaluation is a grid of ``(trace, protocol, memory, rate,
seed)`` points (Section V-A.1, Figs. 11-14).  A :class:`ScenarioSpec` is
the single declarative description of such a grid:

.. code-block:: json

    {
      "name": "dart-compare",
      "trace": {"profile": "DART", "seed": 1},
      "sim": {"memory_kb": 2000, "rate": 500},
      "protocols": ["PROPHET", {"name": "DTN-FLOW", "config": {"k": 2}}],
      "seeds": [1, 2, 3],
      "sweep": {"parameter": "memory_kb", "values": [1200, 2000, 3000]}
    }

Specs are validated (unknown keys, types, ranges — ranges via
``SimConfig.__post_init__``/:mod:`repro.utils.validation`), round-trip
through dicts and JSON, and resolve into the picklable
``(TraceSpec, PointSpec, SimConfig)`` entries the parallel executor
consumes — workers materialize everything from the spec, keeping the
per-worker trace cache and bit-identical serial/parallel results.
:func:`run_scenario` is the one way a spec runs: every CLI command,
resumable run directory, ``repro serve`` job and replay, and ``repro
profile`` goes through it (:func:`run_scenarios` runs several specs as
one grid, as a degradation curve does).

Every point run from a spec stamps its fully *resolved* single-point
scenario (:func:`repro.eval.runner.point_scenario_dict`) into the run's
provenance; :func:`extract_scenarios` pulls those back out of any exported
JSON so ``repro rerun`` reproduces a past run bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.baselines import PAPER_PROTOCOLS, make_protocol
from repro.eval.confidence import METRICS as CI_METRICS
from repro.eval.confidence import MetricCI, confidence_interval
from repro.eval.config import (
    TraceProfile,
    profile_for_trace,
    sweep_grid,
    trace_profile,
)
from repro.eval.experiment import ExperimentResult
from repro.eval.runner import (
    Entry,
    PointSpec,
    TraceSpec,
    execute,
    point_scenario_dict,
)
from repro.eval.sweeps import SweepResult
from repro.mobility.trace import Trace
from repro.sim.engine import SimConfig
from repro.sim.faults import FaultPlan
from repro.utils.validation import require_int, require_number

__all__ = [
    "ProtocolSpec",
    "ScenarioResult",
    "ScenarioSpec",
    "ScenarioTrace",
    "SweepSpec",
    "embedded_scenario",
    "extract_scenarios",
    "load_scenario",
    "preset_catalog",
    "preset_names",
    "preset_scenario",
    "run_scenario",
    "run_scenarios",
]


# -- schema helpers -----------------------------------------------------------

#: SimConfig fields a scenario's ``sim`` block may set (seed comes from
#: ``seeds``, the fault plan from the top-level ``faults`` block; friendly
#: aliases map to the canonical field names)
_SIM_FIELDS = tuple(
    sorted(
        f.name
        for f in dataclasses.fields(SimConfig)
        if f.name not in ("seed", "faults")
    )
)
_SIM_ALIASES = {
    "memory_kb": "node_memory_kb",
    "rate": "rate_per_landmark_per_day",
}
#: sweep axes (paper x-axes) -> the SimConfig field they drive
_SWEEP_FIELDS = {
    "memory_kb": "node_memory_kb",
    "rate": "rate_per_landmark_per_day",
}
_LIST_SIM_FIELDS = ("destinations", "sources")
#: SimConfig fields whose default is None, the only ones ``null`` may set
_NULLABLE_SIM_FIELDS = tuple(
    sorted(
        f.name
        for f in dataclasses.fields(SimConfig)
        if f.name in _SIM_FIELDS and f.default is None
    )
)

#: the one line a manifest with the retired ``shards`` key is refused with
_SHARDS_REMOVED = (
    "scenario key 'shards' was removed: sharded execution is gone and every "
    "point runs on the serial engine (see docs/scaling.md)"
)


def _reject_unknown(what: str, given: Mapping[str, Any], allowed: Sequence[str]) -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown key(s) in {what}: {unknown}; allowed: {sorted(allowed)}"
        )


def _require_type(what: str, value: Any, types: tuple, type_name: str) -> Any:
    if isinstance(value, bool) and bool not in types:
        raise ValueError(f"{what} must be {type_name}, got {value!r}")
    if not isinstance(value, types):
        raise ValueError(f"{what} must be {type_name}, got {value!r}")
    return value


# -- spec dataclasses ---------------------------------------------------------


@dataclass(frozen=True)
class ScenarioTrace:
    """The ``trace`` block: a built-in profile or a trace CSV path."""

    profile: Optional[str] = None
    path: Optional[str] = None
    seed: int = 1
    #: pin the scale explicitly; ``None`` = the process-wide REPRO_FULL_SCALE
    full_scale: Optional[bool] = None

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioTrace":
        _require_type("'trace'", data, (Mapping,), "a mapping")
        _reject_unknown("'trace'", data, ["profile", "path", "seed", "full_scale"])
        profile = data.get("profile")
        path = data.get("path")
        if (profile is None) == (path is None):
            raise ValueError(
                "'trace' needs exactly one of 'profile' (DART/DNET) or 'path'"
            )
        if profile is not None:
            profile = str(_require_type("trace.profile", profile, (str,), "a string"))
            profile = profile.upper()
        if path is not None:
            path = str(_require_type("trace.path", path, (str,), "a string"))
        full = data.get("full_scale")
        if full is not None:
            full = bool(_require_type("trace.full_scale", full, (bool,), "a boolean"))
        return cls(
            profile=profile,
            path=path,
            seed=require_int("trace.seed", data.get("seed", 1)),
            full_scale=full,
        )

    def as_dict(self) -> Dict[str, Any]:
        if self.path is not None:
            return {"path": self.path}
        out: Dict[str, Any] = {"profile": self.profile, "seed": self.seed}
        if self.full_scale is not None:
            out["full_scale"] = self.full_scale
        return out


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol under test: registry name plus its config knobs."""

    name: str
    config: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_value(cls, value: Union[str, Mapping[str, Any]]) -> "ProtocolSpec":
        if isinstance(value, str):
            return cls(name=value)
        _require_type("protocol entry", value, (Mapping,), "a name or mapping")
        _reject_unknown("protocol entry", value, ["name", "config"])
        if "name" not in value:
            raise ValueError(f"protocol entry needs a 'name': {dict(value)!r}")
        config = value.get("config") or {}
        _require_type(f"protocol {value['name']!r} config", config, (Mapping,), "a mapping")
        return cls(name=str(value["name"]), config=dict(config))

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "config": dict(self.config)}


@dataclass(frozen=True)
class SweepSpec:
    """A sweep axis: the paper's memory (Fig. 11/12) or rate (Fig. 13/14)."""

    parameter: str
    values: Tuple[float, ...]

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        _require_type("'sweep'", data, (Mapping,), "a mapping")
        _reject_unknown("'sweep'", data, ["parameter", "values"])
        parameter = data.get("parameter")
        if parameter not in _SWEEP_FIELDS:
            raise ValueError(
                f"sweep.parameter must be one of {sorted(_SWEEP_FIELDS)}, "
                f"got {parameter!r}"
            )
        values = data.get("values")
        _require_type("sweep.values", values, (Sequence,), "a list of numbers")
        if isinstance(values, (str, bytes)) or not values:
            raise ValueError(f"sweep.values must be a non-empty list, got {values!r}")
        return cls(
            parameter=parameter,
            values=tuple(
                require_number(f"sweep.values[{i}]", v) for i, v in enumerate(values)
            ),
        )

    def as_dict(self) -> Dict[str, Any]:
        return {"parameter": self.parameter, "values": list(self.values)}


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative experiment manifest; see the module docstring."""

    trace: ScenarioTrace
    name: str = ""
    #: SimConfig overrides by canonical field name (aliases normalized away)
    sim: Dict[str, Any] = field(default_factory=dict)
    protocols: Tuple[ProtocolSpec, ...] = (ProtocolSpec("DTN-FLOW"),)
    seeds: Tuple[int, ...] = (1,)
    sweep: Optional[SweepSpec] = None
    #: deterministic fault plan applied to every grid point (see
    #: :mod:`repro.sim.faults` and docs/resilience.md); None = unfaulted
    faults: Optional[FaultPlan] = None

    # -- construction / serialization ----------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a validated spec from a manifest dict.

        Structural validation happens here (unknown keys, types); range and
        registry checks happen in :meth:`validate` / at resolution.
        """
        _require_type("scenario", data, (Mapping,), "a mapping")
        if "shards" in data:
            raise ValueError(_SHARDS_REMOVED)
        _reject_unknown(
            "scenario",
            data,
            [
                "name", "trace", "sim", "protocol", "protocols", "seed",
                "seeds", "sweep", "faults",
            ],
        )
        if "trace" not in data:
            raise ValueError("scenario needs a 'trace' block")
        if "protocol" in data and "protocols" in data:
            raise ValueError("give either 'protocol' or 'protocols', not both")
        if "seed" in data and "seeds" in data:
            raise ValueError("give either 'seed' or 'seeds', not both")

        name = str(_require_type("name", data.get("name", ""), (str,), "a string"))
        trace = ScenarioTrace.from_dict(data["trace"])

        sim_in = data.get("sim", {})
        _require_type("'sim'", sim_in, (Mapping,), "a mapping")
        sim: Dict[str, Any] = {}
        for key, value in sim_in.items():
            canon = _SIM_ALIASES.get(key, key)
            if canon not in _SIM_FIELDS:
                raise ValueError(
                    f"unknown key in 'sim': {key!r}; allowed: "
                    f"{sorted(set(_SIM_FIELDS) | set(_SIM_ALIASES))}"
                )
            if canon in sim:
                raise ValueError(f"'sim' sets {canon!r} twice (alias collision)")
            if value is None:
                if canon not in _NULLABLE_SIM_FIELDS:
                    raise ValueError(
                        f"sim.{key} must not be null; null is allowed only for "
                        f"{list(_NULLABLE_SIM_FIELDS)}"
                    )
            elif canon in _LIST_SIM_FIELDS:
                _require_type(f"sim.{key}", value, (Sequence,), "a list of ids")
                value = [require_int(f"sim.{key}[{i}]", v) for i, v in enumerate(value)]
            else:
                value = _require_type(
                    f"sim.{key}", value, (int, float), "a number"
                )
            sim[canon] = value

        if "protocols" in data or "protocol" in data:
            raw = data.get("protocols", data.get("protocol"))
            if isinstance(raw, (str, Mapping)):
                raw = [raw]
            _require_type("'protocols'", raw, (Sequence,), "a list")
            if not raw:
                raise ValueError("'protocols' must not be empty")
            protocols = tuple(ProtocolSpec.from_value(v) for v in raw)
        else:
            protocols = (ProtocolSpec("DTN-FLOW"),)
        names = [p.name for p in protocols]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate protocol names in scenario: {names}")

        if "seeds" in data or "seed" in data:
            raw_seeds = data.get("seeds", data.get("seed"))
            if isinstance(raw_seeds, int) and not isinstance(raw_seeds, bool):
                raw_seeds = [raw_seeds]
            _require_type("'seeds'", raw_seeds, (Sequence,), "a list of integers")
            if not raw_seeds:
                raise ValueError("'seeds' must not be empty")
            seeds = tuple(
                require_int(f"seeds[{i}]", s) for i, s in enumerate(raw_seeds)
            )
        else:
            seeds = (1,)

        sweep = SweepSpec.from_dict(data["sweep"]) if data.get("sweep") else None
        faults = (
            FaultPlan.from_dict(data["faults"]) if data.get("faults") else None
        )
        return cls(
            trace=trace, name=name, sim=sim, protocols=protocols, seeds=seeds,
            sweep=sweep, faults=faults,
        )

    def as_dict(self) -> Dict[str, Any]:
        """Canonical JSON-shaped manifest; ``from_dict`` round-trips it."""
        out: Dict[str, Any] = {}
        if self.name:
            out["name"] = self.name
        out["trace"] = self.trace.as_dict()
        out["sim"] = dict(self.sim)
        out["protocols"] = [p.as_dict() for p in self.protocols]
        out["seeds"] = list(self.seeds)
        if self.sweep is not None:
            out["sweep"] = self.sweep.as_dict()
        if self.faults is not None:
            out["faults"] = self.faults.as_dict()
        return out

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    # -- resolution -----------------------------------------------------------
    def point_grid(self) -> List[Tuple[ProtocolSpec, Optional[float], int]]:
        """The deterministic ``(protocol, sweep value, seed)`` grid order."""
        values: Tuple[Optional[float], ...] = (
            self.sweep.values if self.sweep is not None else (None,)
        )
        return [
            (proto, value, seed)
            for proto in self.protocols
            for value in values
            for seed in self.seeds
        ]

    def n_points(self) -> int:
        return len(self.point_grid())

    def resolve_trace(
        self, traces: Optional[Mapping[str, Trace]] = None
    ) -> Tuple[TraceProfile, TraceSpec, Dict[str, Trace]]:
        """Resolve the trace block: profile, picklable recipe, and (for path
        traces) the loaded trace keyed for the serial cache — the one
        ``traces`` already holds under that key, else read from disk."""
        t = self.trace
        if t.profile is not None:
            profile = trace_profile(t.profile, full_scale=t.full_scale)
            tspec = TraceSpec.from_profile(t.profile, t.seed, full_scale=profile.full)
            return profile, tspec, {}
        from repro.mobility import io as trace_io

        tspec = TraceSpec.from_path(t.path)
        trace = traces.get(tspec.key) if traces else None
        if trace is None:
            trace = trace_io.load_trace(t.path)
        profile = profile_for_trace(trace, path=t.path)
        return profile, tspec, {tspec.key: trace}

    def _point_config(
        self, profile: TraceProfile, value: Optional[float], seed: int
    ) -> Tuple[SimConfig, float, float]:
        """The fully-resolved config for one grid point (+ nominal knobs)."""
        overrides = dict(self.sim)
        if self.sweep is not None:
            overrides[_SWEEP_FIELDS[self.sweep.parameter]] = value
        memory_kb = float(overrides.pop("node_memory_kb", 2000.0))
        rate = float(overrides.pop("rate_per_landmark_per_day", 500.0))
        config = profile.sim_config(memory_kb=memory_kb, rate=rate, seed=seed)
        if overrides:
            config = dataclasses.replace(config, **overrides)
        if self.faults is not None:
            config = dataclasses.replace(config, faults=self.faults.as_dict())
        return config, memory_kb, rate

    def entries(
        self, profile: Optional[TraceProfile] = None, tspec: Optional[TraceSpec] = None
    ) -> List[Entry]:
        """The executor entries for the whole grid, in grid order.

        Each point carries its resolved single-point scenario, so any run
        from a spec is re-runnable from its provenance alone.
        """
        if profile is None or tspec is None:
            profile, tspec, _ = self.resolve_trace()
        out: List[Entry] = []
        for proto, value, seed in self.point_grid():
            config, memory_kb, rate = self._point_config(profile, value, seed)
            point = PointSpec(
                protocol=proto.name,
                memory_kb=memory_kb,
                rate=rate,
                seed=seed,
                protocol_kwargs=dict(proto.config) if proto.config else None,
            )
            point = dataclasses.replace(
                point, scenario=point_scenario_dict(tspec, point, config)
            )
            out.append((tspec, point, config))
        return out

    def validate(self) -> "ScenarioSpec":
        """Full validation: registry names, config surfaces, value ranges.

        Range checks reuse ``SimConfig.__post_init__`` (and thus
        :mod:`repro.utils.validation`); protocol configs are checked by
        :func:`repro.baselines.make_protocol`.  Returns ``self`` so callers
        can chain.
        """
        t = self.trace
        if t.profile is not None:
            trace_profile(t.profile, full_scale=t.full_scale)  # raises on unknown
        elif not os.path.exists(t.path):
            raise ValueError(f"trace.path does not exist: {t.path!r}")
        for proto in self.protocols:
            make_protocol(proto.name, **proto.config)
        # a dummy profile is enough to range-check the sim block for path
        # traces without loading the trace file
        if t.profile is not None:
            profile = trace_profile(t.profile, full_scale=t.full_scale)
        else:
            profile = TraceProfile(
                name="validate", build=lambda s: None,  # type: ignore[arg-type]
                ttl=1.0, time_unit=1.0, workload_scale=1.0,
            )
        for _, value, seed in self.point_grid():
            self._point_config(profile, value, seed)
        return self


# -- execution ----------------------------------------------------------------


@dataclass
class ScenarioResult:
    """All results of one scenario run, in grid order."""

    spec: ScenarioSpec
    points: List[PointSpec]
    results: List[ExperimentResult]
    #: each point's executor record (``{"execution": {"mode": ...}}``),
    #: index-aligned; empty for a result assembled by hand
    infos: List[Optional[Dict[str, Any]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.points) != len(self.results):
            raise ValueError("points and results are misaligned")

    def by_protocol(self) -> Dict[str, List[ExperimentResult]]:
        out: Dict[str, List[ExperimentResult]] = {}
        for point, result in zip(self.points, self.results):
            out.setdefault(point.protocol, []).append(result)
        return out

    def sweep_result(self) -> SweepResult:
        """Fold a swept scenario into the Figs. 11-14 :class:`SweepResult`."""
        sweep = self.spec.sweep
        if sweep is None:
            raise ValueError("scenario has no sweep axis")
        if len(self.spec.seeds) != 1:
            raise ValueError(
                "sweep_result() folds single-seed sweeps; use by_protocol() "
                "or confidence() for multi-seed scenarios"
            )
        result = SweepResult(
            trace=self.results[0].trace if self.results else "",
            parameter=sweep.parameter,
            values=sweep.values,
        )
        for point, outcome in zip(self.points, self.results):
            result.add(point.protocol, outcome.metrics)
        return result

    def confidence(self, level: float = 0.95) -> Dict[str, Dict[str, MetricCI]]:
        """Per-protocol confidence intervals over the scenario's seeds."""
        out: Dict[str, Dict[str, MetricCI]] = {}
        for protocol, results in self.by_protocol().items():
            samples: Dict[str, List[float]] = {m: [] for m in CI_METRICS}
            for r in results:
                samples["success_rate"].append(r.metrics.success_rate)
                samples["avg_delay"].append(r.metrics.avg_delay)
                samples["forwarding_ops"].append(float(r.metrics.forwarding_ops))
                samples["total_cost"].append(float(r.metrics.total_cost))
            out[protocol] = {
                m: confidence_interval(vals, level=level)
                for m, vals in samples.items()
            }
        return out

    def as_dict(self) -> Dict[str, Any]:
        """JSON-shaped export: the manifest plus every point's metrics."""
        return {
            "scenario": self.spec.as_dict(),
            "results": [r.metrics.as_dict() for r in self.results],
        }


def run_scenario(
    spec: ScenarioSpec,
    *,
    traces: Optional[Dict[str, Trace]] = None,
    **options: Any,
) -> ScenarioResult:
    """Run every point of ``spec``: the one path from a spec to its results.

    ``traces`` is the executor's trace cache, keyed by trace-spec key: a
    trace already cached under the spec's key is the one the points run
    on, and the cache keeps every trace they ran on, so a caller holding
    it across calls builds each trace once.  ``options`` are
    :func:`repro.eval.runner.execute`'s (``jobs``, ``progress``,
    ``observe``, ``run_dir``, ``every_events``, ``cancel``,
    ``injections``, ``pool``).
    """
    (result,) = run_scenarios([spec], traces=traces, **options)
    return result


def run_scenarios(
    specs: Sequence[ScenarioSpec],
    *,
    traces: Optional[Dict[str, Trace]] = None,
    **options: Any,
) -> List[ScenarioResult]:
    """Run the points of every spec in ``specs`` as one grid; one
    :class:`ScenarioResult` per spec, in order.

    One executor call, so a pool keeps its workers busy across the specs
    instead of draining at the end of each.  ``traces`` and ``options``
    are :func:`run_scenario`'s; a ``run_dir`` holds one spec's grid.
    """
    traces = {} if traces is None else traces
    grids = []
    for spec in specs:
        profile, tspec, materialized = spec.resolve_trace(traces)
        traces.update(materialized)
        grids.append(spec.entries(profile, tspec))
    results, infos = execute(
        [entry for grid in grids for entry in grid], traces=traces, **options
    )
    out, start = [], 0
    for spec, grid in zip(specs, grids):
        end = start + len(grid)
        out.append(ScenarioResult(
            spec, [point for _, point, _ in grid],
            results[start:end], infos[start:end],
        ))
        start = end
    return out


# -- provenance extraction ----------------------------------------------------


def extract_scenarios(payload: Any) -> List[Dict[str, Any]]:
    """Collect every scenario dict embedded in exported JSON.

    Understands all our export shapes: a manifest itself, a provenance dict
    (``{"scenario": ...}``), a metrics dict (``{"provenance": {...}}``),
    ``repro compare --json`` lists, and :meth:`ScenarioResult.as_dict`
    bundles.
    """
    found: List[Dict[str, Any]] = []

    def walk(node: Any) -> None:
        if isinstance(node, Mapping):
            if "trace" in node and "sim" in node and (
                "protocol" in node or "protocols" in node
            ):
                found.append(dict(node))
                return
            for value in node.values():
                walk(value)
        elif isinstance(node, (list, tuple)):
            for value in node:
                walk(value)

    walk(payload)
    return found


def embedded_scenario(payload: Any, *, index: int = 0) -> ScenarioSpec:
    """The ``index``-th scenario embedded in exported JSON, as a spec."""
    scenarios = extract_scenarios(payload)
    if not scenarios:
        raise ValueError(
            "no embedded scenario found — the file predates scenario "
            "provenance or was produced from an in-memory trace"
        )
    if not 0 <= index < len(scenarios):
        raise ValueError(
            f"scenario index {index} out of range (file holds {len(scenarios)})"
        )
    return ScenarioSpec.from_dict(scenarios[index])


# -- presets ------------------------------------------------------------------


def _figure_sweep(name: str, profile_key: str, parameter: str) -> ScenarioSpec:
    profile = trace_profile(profile_key)
    return profile.scenario(
        name=name,
        protocols=PAPER_PROTOCOLS,
        trace_seed=1,
        seeds=(3,),
        sweep={
            "parameter": parameter,
            "values": list(sweep_grid(parameter, bool(profile.full))),
        },
    )


_PRESETS: Dict[str, Callable[[], ScenarioSpec]] = {
    # one-point and compare scenarios
    "dart-run": lambda: trace_profile("DART").scenario(name="dart-run"),
    "dnet-run": lambda: trace_profile("DNET").scenario(name="dnet-run"),
    "dart-compare": lambda: trace_profile("DART").scenario(
        name="dart-compare", protocols=PAPER_PROTOCOLS
    ),
    "dnet-compare": lambda: trace_profile("DNET").scenario(
        name="dnet-compare", protocols=PAPER_PROTOCOLS
    ),
    # the paper's four sweep figures
    "fig11-dart-memory": lambda: _figure_sweep("fig11-dart-memory", "DART", "memory_kb"),
    "fig12-dnet-memory": lambda: _figure_sweep("fig12-dnet-memory", "DNET", "memory_kb"),
    "fig13-dart-rate": lambda: _figure_sweep("fig13-dart-rate", "DART", "rate"),
    "fig14-dnet-rate": lambda: _figure_sweep("fig14-dnet-rate", "DNET", "rate"),
}


def preset_names() -> List[str]:
    """All named preset scenarios."""
    return sorted(_PRESETS)


def preset_catalog() -> List[Dict[str, Any]]:
    """Machine-readable preset descriptions (one dict per preset).

    The single source for ``repro scenario list --json`` and the service's
    ``GET /v1/scenarios`` endpoint: name, grid size, protocols, trace and
    sweep axis, cheap enough to build on every request.
    """
    out: List[Dict[str, Any]] = []
    for name in preset_names():
        spec = preset_scenario(name)
        entry: Dict[str, Any] = {
            "name": name,
            "n_points": spec.n_points(),
            "trace": spec.trace.as_dict(),
            "protocols": [p.name for p in spec.protocols],
            "seeds": list(spec.seeds),
        }
        if spec.sweep is not None:
            entry["sweep"] = spec.sweep.as_dict()
        out.append(entry)
    return out


def preset_scenario(name: str) -> ScenarioSpec:
    """Build a named preset scenario (grids respect REPRO_FULL_SCALE)."""
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset scenario {name!r}; available: {preset_names()}"
        ) from None
    return builder()


def load_scenario(source: str) -> ScenarioSpec:
    """Load a scenario from a JSON manifest path or a preset name."""
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                return ScenarioSpec.from_json(fh.read())
        except OSError as exc:
            raise ValueError(f"cannot read scenario file {source!r}: {exc}") from None
    if source in _PRESETS:
        return preset_scenario(source)
    raise ValueError(
        f"{source!r} is neither a scenario file nor a preset; presets: "
        f"{preset_names()}"
    )
