"""Tests for the declarative scenario plane (repro.eval.scenario).

Covers the ScenarioSpec schema (round-trips, unknown keys, type/range
checks), resolution into executor entries, end-to-end equality between a
spec-driven run and the direct API, exact rerun-from-provenance, and
serial/parallel bit-identity.
"""

import dataclasses
import json

import pytest

from repro.baselines import make_protocol
from repro.eval.config import trace_profile
from repro.eval.scenario import (
    ProtocolSpec,
    ScenarioSpec,
    ScenarioTrace,
    SweepSpec,
    embedded_scenario,
    extract_scenarios,
    load_scenario,
    preset_names,
    preset_scenario,
    run_scenario,
)
from repro.sim.engine import SimConfig


def fast_manifest(**overrides):
    """A DART scenario small enough for unit tests (tiny workload)."""
    base = {
        "name": "test-fast",
        "trace": {"profile": "DART", "seed": 1},
        "sim": {"memory_kb": 2000, "rate": 100, "workload_scale": 0.004},
        "protocols": ["DTN-FLOW"],
        "seeds": [1],
    }
    base.update(overrides)
    return base


class TestSchema:
    def test_round_trip_dict_and_json(self):
        spec = ScenarioSpec.from_dict(fast_manifest(
            protocols=["DTN-FLOW", {"name": "PROPHET", "config": {}}],
            seeds=[1, 2],
            sweep={"parameter": "memory_kb", "values": [1200, 2000]},
        ))
        d = spec.as_dict()
        assert ScenarioSpec.from_dict(d).as_dict() == d
        assert ScenarioSpec.from_json(spec.to_json()).as_dict() == d

    def test_singular_sugar_normalizes(self):
        spec = ScenarioSpec.from_dict({
            "trace": {"profile": "dart"},
            "protocol": "Direct",
            "seed": 7,
        })
        assert spec.trace.profile == "DART"
        assert spec.protocols == (ProtocolSpec("Direct"),)
        assert spec.seeds == (7,)

    def test_sim_aliases_map_to_canonical_fields(self):
        spec = ScenarioSpec.from_dict(fast_manifest())
        assert spec.sim["node_memory_kb"] == 2000
        assert spec.sim["rate_per_landmark_per_day"] == 100

    @pytest.mark.parametrize("bad, match", [
        ({"trace": {"profile": "DART"}, "bogus": 1}, "unknown key"),
        ({"trace": {"profile": "DART", "speed": 2}}, "unknown key"),
        ({"trace": {}}, "exactly one"),
        ({"trace": {"profile": "DART", "path": "x.csv"}}, "exactly one"),
        ({"trace": {"profile": "DART"}, "sim": {"memry": 5}}, "unknown key in 'sim'"),
        ({"trace": {"profile": "DART"},
          "sim": {"memory_kb": 1, "node_memory_kb": 2}}, "alias collision"),
        ({"trace": {"profile": "DART"}, "sim": {"ttl": "long"}}, "must be a number"),
        ({"trace": {"profile": "DART"}, "seeds": []}, "must not be empty"),
        ({"trace": {"profile": "DART"}, "seeds": [1.5]}, "must be an integer"),
        ({"trace": {"profile": "DART"}, "protocols": []}, "must not be empty"),
        ({"trace": {"profile": "DART"},
          "protocols": ["Direct", "Direct"]}, "duplicate protocol"),
        ({"trace": {"profile": "DART"},
          "protocol": "X", "protocols": ["Y"]}, "not both"),
        ({"trace": {"profile": "DART"},
          "sweep": {"parameter": "ttl", "values": [1]}}, "sweep.parameter"),
        ({"trace": {"profile": "DART"},
          "sweep": {"parameter": "rate", "values": []}}, "non-empty"),
        ({"trace": {"profile": "DART"}, "shards": 2}, "'shards' was removed"),
    ])
    def test_structural_rejections(self, bad, match):
        with pytest.raises(ValueError, match=match):
            ScenarioSpec.from_dict(bad)

    def test_validate_rejects_unknown_profile_and_missing_path(self):
        with pytest.raises(ValueError, match="unknown trace profile"):
            ScenarioSpec.from_dict({"trace": {"profile": "NOPE"}}).validate()
        with pytest.raises(ValueError, match="does not exist"):
            ScenarioSpec.from_dict({"trace": {"path": "/no/such.csv"}}).validate()

    def test_validate_rejects_protocol_typo(self):
        spec = ScenarioSpec.from_dict(fast_manifest(
            protocols=[{"name": "DTN-FLOW", "config": {"kk": 3}}]
        ))
        with pytest.raises(ValueError, match="DTN-FLOW.*kk"):
            spec.validate()

    def test_validate_rejects_out_of_range_sim_values(self):
        spec = ScenarioSpec.from_dict(fast_manifest(sim={"ttl_jitter": 1.5}))
        with pytest.raises(ValueError, match="ttl_jitter"):
            spec.validate()

    def test_grid_order_is_protocol_major(self):
        spec = ScenarioSpec.from_dict(fast_manifest(
            protocols=["DTN-FLOW", "Direct"],
            seeds=[1, 2],
            sweep={"parameter": "rate", "values": [100, 200]},
        ))
        grid = spec.point_grid()
        assert [(p.name, v, s) for p, v, s in grid] == [
            ("DTN-FLOW", 100.0, 1), ("DTN-FLOW", 100.0, 2),
            ("DTN-FLOW", 200.0, 1), ("DTN-FLOW", 200.0, 2),
            ("Direct", 100.0, 1), ("Direct", 100.0, 2),
            ("Direct", 200.0, 1), ("Direct", 200.0, 2),
        ]

    def test_presets_all_validate(self):
        assert "fig11-dart-memory" in preset_names()
        for name in preset_names():
            spec = preset_scenario(name).validate()
            assert spec.name == name
        with pytest.raises(ValueError, match="unknown preset"):
            preset_scenario("fig99")

    def test_load_scenario_from_file_and_preset(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(fast_manifest()))
        assert load_scenario(str(path)).name == "test-fast"
        assert load_scenario("dart-run").name == "dart-run"
        with pytest.raises(ValueError, match="neither"):
            load_scenario("no-such-thing")


class TestSimConfigValidation:
    """Satellite: SimConfig.__post_init__ rejects out-of-range fields."""

    def make(self, **kw):
        return SimConfig(**kw)

    @pytest.mark.parametrize("field, value", [
        ("memory_scale", 0.0),
        ("memory_scale", -1.0),
        ("packet_size", 0),
        ("packet_size", -10),
        ("rate_per_landmark_per_day", -1.0),
        ("ttl_jitter", -0.1),
        ("ttl_jitter", 1.0),
        ("link_rate_bytes_per_sec", 0.0),
        ("link_rate_bytes_per_sec", -5.0),
        ("node_memory_kb", 0.0),
        ("workload_scale", 0.0),
    ])
    def test_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            self.make(**{field: value})

    def test_boundary_values_accepted(self):
        self.make(rate_per_landmark_per_day=0.0)
        self.make(ttl_jitter=0.0)
        self.make(ttl_jitter=0.999)
        self.make(memory_scale=None, link_rate_bytes_per_sec=None)


class TestMakeProtocolStrict:
    """Unknown keywords name the protocol and the typo."""

    def test_unknown_kwarg_names_protocol_and_key(self):
        with pytest.raises(ValueError) as exc:
            make_protocol("PROPHET", p_int=0.5)
        msg = str(exc.value)
        assert "PROPHET" in msg and "p_int" in msg and "takes no config" in msg
        with pytest.raises(ValueError) as exc:
            make_protocol("DTN-FLOW", kk=3)
        msg = str(exc.value)
        assert "DTN-FLOW" in msg and "kk" in msg and "accepted" in msg

    def test_dtnflow_nested_scheduler_config(self):
        proto = make_protocol(
            "DTN-FLOW", k=2, scheduler={"priority": "fifo"}
        )
        assert proto.config.k == 2
        assert proto.config.scheduler.priority == "fifo"

    def test_config_plus_fields_rejected(self):
        """A prebuilt config goes to ``DTNFlowProtocol(config)`` directly;
        ``make_protocol`` takes only the fields a manifest can spell."""
        from repro.core.router import DTNFlowConfig
        with pytest.raises(ValueError, match=r"'DTN-FLOW'.*\['config'\]"):
            make_protocol("DTN-FLOW", config=DTNFlowConfig(), k=2)

    def test_out_of_range_value_names_protocol(self):
        with pytest.raises(ValueError, match="'DTN-FLOW'.*k must be > 0"):
            make_protocol("DTN-FLOW", k=0)
        with pytest.raises(ValueError, match="'DTN-FLOW'.*priority"):
            make_protocol("DTN-FLOW", scheduler={"priority": "lifo"})


#: protocol keywords that are module constants, each with the constant's
#: value: a manifest that sets one is rejected
REMOVED_KEYS = [
    ("DTN-FLOW", "rho", {"rho": 0.5}),
    ("DTN-FLOW", "min_carrier_prob", {"min_carrier_prob": 0.0}),
    ("DTN-FLOW", "handover_improvement", {"handover_improvement": 0.8}),
    ("DTN-FLOW", "backup_delay_bound", {"backup_delay_bound": 1.5}),
    ("DTN-FLOW", "scheduler.r_up", {"scheduler": {"r_up": 0.67}}),
    ("DTN-FLOW", "scheduler.r_down", {"scheduler": {"r_down": 1.5}}),
    ("DTN-FLOW", "scheduler.max_upload_batch", {"scheduler": {"max_upload_batch": 50}}),
    ("DTN-FLOW", "scheduler.scan_interval", {"scheduler": {"scan_interval": 60.0}}),
    ("DTN-FLOW", "scheduler.feasibility_check", {"scheduler": {"feasibility_check": True}}),
    ("PROPHET", "p_init", {"p_init": 0.75}),
    ("PROPHET", "gamma", {"gamma": 0.98}),
    ("PROPHET", "beta", {"beta": 0.25}),
    ("PROPHET", "aging_unit", {"aging_unit": 3600.0}),
    ("PROPHET", "transitivity", {"transitivity": False}),
    ("SimBet", "alpha", {"alpha": 0.5}),
    ("SimBet", "recompute_every", {"recompute_every": 10}),
    ("PGR", "horizon", {"horizon": 5}),
    ("GeoComm", "time_unit", {"time_unit": 43200.0}),
    ("PER", "max_steps", {"max_steps": 64}),
    ("PER", "default_step_time", {"default_step_time": 21600.0}),
    ("SprayWait", "n_copies", {"n_copies": 8}),
]

#: nested scheduler configs that must fail validation with a ValueError
BAD_NESTED = [
    ("scheduler.prio", {"scheduler": {"prio": "fifo"}}),
    ("scheduler", {"scheduler": "fifo"}),
]


def _validate_cli(tmp_path, capsys, protocol, config):
    from repro.cli import main

    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(fast_manifest(
        protocols=[{"name": protocol, "config": config}]
    )))
    rc = main(["scenario", "validate", str(path)])
    captured = capsys.readouterr()
    return rc, (captured.out + captured.err).strip().splitlines()


class TestRemovedProtocolKeys:
    @pytest.mark.parametrize("protocol,key,config", REMOVED_KEYS)
    def test_make_protocol_rejects(self, protocol, key, config):
        with pytest.raises(ValueError) as exc:
            make_protocol(protocol, **config)
        msg = str(exc.value)
        assert f"{protocol!r}" in msg and key in msg
        assert "\n" not in msg

    @pytest.mark.parametrize("protocol,key,config", REMOVED_KEYS)
    def test_scenario_validate_exits_2(self, tmp_path, capsys, protocol, key, config):
        rc, lines = _validate_cli(tmp_path, capsys, protocol, config)
        assert rc == 2
        assert len(lines) == 1
        assert "INVALID" in lines[0] and protocol in lines[0] and key in lines[0]


class TestNestedSchedulerConfig:
    @pytest.mark.parametrize("key,config", BAD_NESTED)
    def test_make_protocol_raises_value_error(self, key, config):
        with pytest.raises(ValueError) as exc:
            make_protocol("DTN-FLOW", **config)
        assert "'DTN-FLOW'" in str(exc.value) and key in str(exc.value)

    @pytest.mark.parametrize("key,config", BAD_NESTED)
    def test_scenario_validate_exits_2(self, tmp_path, capsys, key, config):
        rc, lines = _validate_cli(tmp_path, capsys, "DTN-FLOW", config)
        assert rc == 2
        assert len(lines) == 1
        assert "DTN-FLOW" in lines[0] and key in lines[0]


#: DTN-FLOW config values of the wrong type or out of range, each with the
#: key it must be refused with
BAD_DTNFLOW_VALUES = [
    ("use_direct_delivery", {"use_direct_delivery": "false"}),
    ("k", {"k": True}),
    ("k", {"k": "two"}),
    ("deadend_min_history", {"deadend_min_history": 2.5}),
    ("accuracy_up", {"accuracy_up": 0.5}),
    ("accuracy_down", {"accuracy_down": 1.5}),
    ("table_hysteresis", {"table_hysteresis": -3}),
    ("overload_theta", {"overload_theta": 0}),
    ("deadend_gamma", {"deadend_gamma": -1, "enable_deadend": True}),
    ("loop_hold_time", {"loop_hold_time": -1.0}),
]


class TestDTNFlowConfigValues:
    @pytest.mark.parametrize("key,config", BAD_DTNFLOW_VALUES)
    def test_make_protocol_rejects(self, key, config):
        with pytest.raises(ValueError) as exc:
            make_protocol("DTN-FLOW", **config)
        msg = str(exc.value)
        assert "'DTN-FLOW'" in msg and key in msg
        assert "\n" not in msg

    @pytest.mark.parametrize("key,config", BAD_DTNFLOW_VALUES)
    def test_scenario_validate_exits_2(self, tmp_path, capsys, key, config):
        rc, lines = _validate_cli(tmp_path, capsys, "DTN-FLOW", config)
        assert rc == 2
        assert len(lines) == 1
        assert "INVALID" in lines[0] and "DTN-FLOW" in lines[0] and key in lines[0]

    def test_in_range_values_build(self):
        proto = make_protocol(
            "DTN-FLOW", k=2, accuracy_up=1.2, accuracy_down=0.5,
            table_hysteresis=1, overload_theta=3, loop_hold_time=0,
            use_direct_delivery=False,
        )
        assert proto.config.k == 2 and proto.config.use_direct_delivery is False


#: sim fields whose SimConfig default is not None: ``null`` must not set them
NON_NULLABLE_SIM = sorted(
    f.name for f in dataclasses.fields(SimConfig)
    if f.default is not None and f.name not in ("seed", "faults")
)


class TestNullSimValues:
    @pytest.mark.parametrize("key", NON_NULLABLE_SIM + ["memory_kb", "rate"])
    def test_null_is_refused_naming_the_key(self, key):
        with pytest.raises(ValueError, match=rf"sim\.{key} must not be null"):
            ScenarioSpec.from_dict(fast_manifest(sim={key: None}))

    def test_null_keeps_its_meaning_where_the_default_is_none(self):
        nullable = {"memory_scale": None, "link_rate_bytes_per_sec": None,
                    "destinations": None, "sources": None}
        spec = ScenarioSpec.from_dict(fast_manifest(sim=nullable)).validate()
        assert spec.sim == nullable

    def test_scenario_validate_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(fast_manifest(sim={"contact_prob": None})))
        rc = main(["scenario", "validate", str(path)])
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).strip().splitlines()
        assert rc == 2
        assert len(lines) == 1
        assert "INVALID" in lines[0] and "sim.contact_prob" in lines[0]


class TestScenarioExecution:
    @pytest.fixture(scope="class")
    def fast_spec(self):
        return ScenarioSpec.from_dict(fast_manifest()).validate()

    @pytest.fixture(scope="class")
    def fast_result(self, fast_spec):
        return run_scenario(fast_spec, jobs=1)

    def test_json_round_trip_runs_identically(self, fast_spec, fast_result):
        """spec -> JSON -> spec -> run reproduces the direct run exactly."""
        spec2 = ScenarioSpec.from_json(fast_spec.to_json())
        res2 = run_scenario(spec2, jobs=1)
        assert [r.metrics for r in res2.results] == [
            r.metrics for r in fast_result.results
        ]

    def test_spec_run_equals_direct_api_run(self, fast_spec, fast_result):
        """The scenario plane adds no behavior: same result as run_point."""
        from repro.eval.experiment import execute_config

        profile = trace_profile("DART")
        trace = profile.build(1)
        config = profile.sim_config(memory_kb=2000.0, rate=100.0, seed=1)
        config = dataclasses.replace(config, workload_scale=0.004)
        direct = execute_config(
            trace, "DTN-FLOW", config, memory_kb=2000.0, rate=100.0, seed=1
        )
        # identical except for the provenance scenario stamp (the direct API
        # run carries none) and wall-clock phase timings
        d_direct = direct.metrics.as_dict()
        d_spec = fast_result.results[0].metrics.as_dict()
        for d in (d_direct, d_spec):
            d.pop("phase_timings", None)
            d["provenance"].pop("scenario", None)
        assert d_direct == d_spec

    def test_provenance_embeds_resolved_scenario(self, fast_result):
        prov = fast_result.results[0].metrics.provenance
        assert prov is not None and prov.scenario is not None
        embedded = prov.scenario
        assert embedded["trace"] == {"profile": "DART", "seed": 1,
                                     "full_scale": False}
        assert embedded["protocol"] == {"name": "DTN-FLOW", "config": {}}
        assert embedded["seeds"] == [1]
        assert embedded["sim"]["workload_scale"] == 0.004
        # the resolved scenario is itself a valid spec
        ScenarioSpec.from_dict(embedded).validate()

    def test_rerun_from_provenance_is_bit_identical(self, fast_result):
        payload = fast_result.results[0].metrics.as_dict()
        res2 = run_scenario(embedded_scenario(payload))
        assert res2.results[0].metrics == fast_result.results[0].metrics

    def test_a_cached_path_trace_is_read_once(self, tiny_scenario, monkeypatch):
        """A path trace the cache holds is the one the points run on, and
        the CSV is not read again to resolve the spec."""
        from repro.mobility import io as trace_io

        spec = tiny_scenario(protocols=["Direct"]).validate()
        reads = []
        load = trace_io.load_trace
        monkeypatch.setattr(
            trace_io, "load_trace", lambda path: reads.append(path) or load(path)
        )
        cache: dict = {}
        first = run_scenario(spec, traces=cache)
        again = run_scenario(spec, traces=cache)
        assert reads == [spec.trace.path]
        assert list(cache) == [f"path:{spec.trace.path}"]
        assert again.results[0].metrics == first.results[0].metrics

    def test_rerun_without_scenario_errors(self):
        with pytest.raises(ValueError, match="no embedded scenario"):
            embedded_scenario({"some": "payload"})

    def test_serial_parallel_bit_identical(self, fast_spec):
        spec = ScenarioSpec.from_dict(fast_manifest(
            protocols=["DTN-FLOW", "Direct"], seeds=[1, 2]
        ))
        serial = run_scenario(spec, jobs=1)
        parallel = run_scenario(spec, jobs=4)
        assert [r.metrics for r in serial.results] == [
            r.metrics for r in parallel.results
        ]

    def test_sweep_result_folding(self):
        spec = ScenarioSpec.from_dict(fast_manifest(
            protocols=["Direct"],
            sweep={"parameter": "memory_kb", "values": [1200, 2000]},
        ))
        sweep = run_scenario(spec).sweep_result()
        assert sweep.parameter == "memory_kb"
        assert sweep.values == (1200.0, 2000.0)
        assert len(sweep.series["Direct"]["success_rate"]) == 2

    def test_confidence_over_seeds(self):
        spec = ScenarioSpec.from_dict(fast_manifest(
            protocols=["Direct"], seeds=[1, 2, 3]
        ))
        cis = run_scenario(spec).confidence()
        ci = cis["Direct"]["success_rate"]
        assert ci.n == 3 and 0.0 <= ci.mean <= 1.0

    def test_extract_scenarios_from_compare_payload(self, fast_result):
        rows = [r.metrics.as_dict() for r in fast_result.results]
        found = extract_scenarios(rows)
        assert len(found) == 1
        assert found[0]["protocol"]["name"] == "DTN-FLOW"


class TestFullScalePinning:
    """Satellite: the scale is resolved once and pinned into specs."""

    def test_trace_block_pins_both_scales(self):
        small = ScenarioTrace.from_dict(
            {"profile": "DART", "seed": 1, "full_scale": False})
        full = ScenarioTrace.from_dict(
            {"profile": "DART", "seed": 1, "full_scale": True})
        p_small = trace_profile("DART", full_scale=small.full_scale)
        p_full = trace_profile("DART", full_scale=full.full_scale)
        assert p_small.full is False and p_full.full is True
        # the paper's DART parameters only hold at full scale
        assert p_full.ttl > p_small.ttl
        assert p_full.workload_scale != p_small.workload_scale

    def test_spec_resolution_pins_scale_into_trace_spec(self):
        spec = ScenarioSpec.from_dict({
            "trace": {"profile": "DART", "seed": 1, "full_scale": True},
        })
        _, tspec, _ = spec.resolve_trace()
        assert tspec.full is True
        assert "full=1" in tspec.key

    def test_cached_resolution_ignores_env_flip(self, monkeypatch):
        from repro.eval.config import _reset_full_scale_cache, full_scale

        try:
            monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
            _reset_full_scale_cache()
            assert full_scale() is False
            monkeypatch.setenv("REPRO_FULL_SCALE", "1")
            # still False: a mid-run environment change cannot mix scales
            assert full_scale() is False
            assert trace_profile("DART").full is False
        finally:
            _reset_full_scale_cache()

    def test_sweep_spec_from_dict(self):
        sweep = SweepSpec.from_dict({"parameter": "rate", "values": [100, 200]})
        assert sweep.values == (100.0, 200.0)


FAULTS_BLOCK = {
    "seed": 5,
    "specs": [
        {"kind": "landmark_outage", "start": 0.3, "end": 0.7, "count": 2},
        {"kind": "transfer_loss", "start": 0.3, "end": 0.7, "prob": 0.2},
    ],
}


class TestScenarioFaults:
    """The 'faults' block is validated, round-trips, and is stamped into
    provenance so faulted runs replay bit-for-bit."""

    def test_round_trip_dict_and_json(self):
        from repro.sim.faults import FaultPlan

        spec = ScenarioSpec.from_dict(fast_manifest(faults=FAULTS_BLOCK))
        d = spec.as_dict()
        assert d["faults"] == FaultPlan.from_dict(FAULTS_BLOCK).as_dict()
        assert ScenarioSpec.from_dict(d) == spec
        assert ScenarioSpec.from_json(spec.to_json()).as_dict() == d

    def test_invalid_block_names_offending_field(self):
        with pytest.raises(ValueError, match="prob"):
            ScenarioSpec.from_dict(
                fast_manifest(faults={"specs": [{"kind": "transfer_loss"}]})
            )
        with pytest.raises(ValueError, match="unknown key"):
            ScenarioSpec.from_dict(fast_manifest(faults={"chaos": True}))
        with pytest.raises(ValueError, match="kind"):
            ScenarioSpec.from_dict(
                fast_manifest(faults={"specs": [{"kind": "nope"}]})
            )

    @pytest.fixture(scope="class")
    def faulted_result(self):
        spec = ScenarioSpec.from_dict(
            fast_manifest(faults=FAULTS_BLOCK)
        ).validate()
        return run_scenario(spec, jobs=1)

    def test_provenance_embeds_fault_plan(self, faulted_result):
        from repro.sim.faults import FaultPlan

        prov = faulted_result.results[0].metrics.provenance
        embedded = prov.scenario
        assert embedded["faults"] == FaultPlan.from_dict(FAULTS_BLOCK).as_dict()
        # the embedded scenario (faults included) is itself a valid spec
        ScenarioSpec.from_dict(embedded).validate()

    def test_faulted_rerun_is_bit_identical(self, faulted_result):
        payload = faulted_result.results[0].metrics.as_dict()
        res2 = run_scenario(embedded_scenario(payload))
        assert res2.results[0].metrics == faulted_result.results[0].metrics

    def test_faulted_serial_parallel_bit_identical(self):
        spec = ScenarioSpec.from_dict(fast_manifest(
            faults=FAULTS_BLOCK, protocols=["DTN-FLOW", "Direct"]
        ))
        serial = run_scenario(spec, jobs=1)
        parallel = run_scenario(spec, jobs=2)
        assert [r.metrics for r in serial.results] == [
            r.metrics for r in parallel.results
        ]
