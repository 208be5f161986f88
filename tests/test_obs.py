"""Unit tests for the observability layer (repro.obs)."""

import json
import warnings

import pytest

from repro.obs import (
    Event,
    EventLog,
    Observability,
    RunProvenance,
    SpanRecorder,
    event_types as ev,
)
from repro.sim.engine import SimConfig
from repro.sim.metrics import MetricsCollector
from repro.utils.quantiles import five_number_summary


class TestEventLog:
    def test_emit_and_len(self):
        log = EventLog(capacity=10)
        log.emit(1.0, ev.GENERATED, packet=0, landmark=3, dst=7)
        log.emit(2.0, ev.DELIVERED, packet=0, landmark=7, delay=1.0)
        assert len(log) == 2
        assert log.n_emitted == 2
        assert log.n_evicted == 0
        first = next(iter(log))
        assert first.etype == ev.GENERATED
        assert first.data == {"dst": 7}

    def test_disabled_log_records_nothing(self):
        log = EventLog(capacity=10, enabled=False)
        log.emit(1.0, ev.GENERATED, packet=0)
        assert len(log) == 0
        assert log.n_emitted == 0

    def test_ring_buffer_eviction(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit(float(i), ev.FORWARDED, packet=i)
        assert len(log) == 3
        assert log.n_emitted == 5
        assert log.n_evicted == 2
        # the oldest two were evicted
        assert [e.packet for e in log] == [2, 3, 4]

    def test_counts_by_type_survive_eviction(self):
        log = EventLog(capacity=2)
        for i in range(5):
            log.emit(float(i), ev.FORWARDED if i % 2 else ev.GENERATED, packet=i)
        assert [e.etype for e in log] == [ev.FORWARDED, ev.GENERATED]
        assert log.counts_by_type() == {ev.GENERATED: 3, ev.FORWARDED: 2}

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_select_filters_conjunctively(self):
        log = EventLog(capacity=100)
        log.emit(1.0, ev.GENERATED, packet=0, landmark=1)
        log.emit(2.0, ev.FORWARDED, packet=0, node=5, landmark=1)
        log.emit(3.0, ev.FORWARDED, packet=1, node=6, landmark=2)
        log.emit(4.0, ev.DELIVERED, packet=0, landmark=9)
        assert len(log.select(etypes=[ev.FORWARDED])) == 2
        assert len(log.select(etypes=[ev.FORWARDED], packet=0)) == 1
        assert len(log.select(node=6)) == 1
        assert len(log.select(t_min=2.0, t_max=3.0)) == 2
        assert len(log.select(landmark=1)) == 2

    def test_packet_journey_and_delivered(self):
        log = EventLog(capacity=100)
        log.emit(1.0, ev.GENERATED, packet=7, landmark=0)
        log.emit(2.0, ev.TABLE_EXCHANGE, landmark=0, n_entries=4)
        log.emit(3.0, ev.FORWARDED, packet=7, node=1, landmark=0)
        log.emit(4.0, ev.DELIVERED, packet=7, landmark=2)
        journey = log.packet_journey(7)
        assert [e.etype for e in journey] == [ev.GENERATED, ev.FORWARDED, ev.DELIVERED]
        assert log.delivered_packets() == [7]
        assert log.counts_by_type()[ev.FORWARDED] == 1

    def test_jsonl_round_trip(self, tmp_path):
        log = EventLog(capacity=100)
        log.emit(1.5, ev.GENERATED, packet=0, landmark=3, dst=7)
        log.emit(9.0, ev.DROPPED_TTL, packet=0, node=2)
        path = tmp_path / "events.jsonl"
        assert log.to_jsonl(str(path)) == 2
        lines = path.read_text().splitlines()
        recs = [json.loads(line) for line in lines]
        assert recs[0] == {"t": 1.5, "event": "generated", "packet": 0,
                           "landmark": 3, "dst": 7}
        assert recs[1]["event"] == "dropped_ttl"
        assert list(log.jsonl_lines()) == lines

    def test_taxonomy_partitions(self):
        assert ev.RUN_EVENTS == (
            ev.PACKET_EVENTS | ev.CONTROL_EVENTS | ev.FAULT_EVENTS
        )
        assert {ev.FAULT_BLOCKED, ev.FAULT_LOST, ev.FAULT_SKIPPED} < ev.FAULT_EVENTS
        assert not (ev.PACKET_EVENTS & ev.CONTROL_EVENTS)
        assert not (ev.FAULT_EVENTS & (ev.PACKET_EVENTS | ev.CONTROL_EVENTS))
        assert not (ev.EXECUTOR_EVENTS & ev.RUN_EVENTS)
        assert ev.TERMINAL_EVENTS <= ev.PACKET_EVENTS

    def test_event_as_dict_omits_missing_fields(self):
        e = Event(2.0, ev.BW_UPDATE, None, None, 4, None)
        assert e.as_dict() == {"t": 2.0, "event": "bw_update", "landmark": 4}


class TestPhaseReport:
    """A run's ``phase_timings``: the flat report of a span recorder."""

    def test_add_and_report(self):
        spans = SpanRecorder()
        spans.add("hot", 0.5, calls=10)
        spans.add("hot", 0.5, calls=10)
        spans.add("cold", 0.1)
        report = spans.flat()
        assert list(report) == ["hot", "cold"]  # sorted by seconds desc
        assert report["hot"] == {"seconds": 1.0, "calls": 20}
        assert report["cold"] == {"seconds": 0.1, "calls": 1}

    def test_context_manager(self):
        spans = SpanRecorder()
        with spans.span("block"):
            pass
        assert spans.flat()["block"]["calls"] == 1
        assert spans.flat()["block"]["seconds"] >= 0.0


class TestProvenance:
    def test_from_sim_config(self):
        cfg = SimConfig(seed=42)
        prov = RunProvenance.from_run("DTN-FLOW", "dart", cfg)
        assert prov.seed == 42
        assert prov.protocol == "DTN-FLOW"
        assert prov.config["seed"] == 42
        d = prov.as_dict()
        json.dumps(d)  # must be JSON-serialisable
        assert d["package_version"] == prov.package_version != "unknown"

    def test_from_dict_and_opaque_config(self):
        prov = RunProvenance.from_run("p", "t", {"seed": 3, "x": [1, 2]})
        assert prov.seed == 3
        assert prov.config["x"] == [1, 2]
        opaque = RunProvenance.from_run("p", "t", object())
        assert opaque.seed == 0
        assert "repr" in opaque.config


class TestJsonableDeterminism:
    """_jsonable must be deterministic: the experiment store content-hashes
    its output, so equal inputs must always encode identically."""

    def test_sets_are_sorted(self):
        from repro.obs.provenance import _jsonable

        a = _jsonable({"s": {3, 1, 2}})
        b = _jsonable({"s": {2, 3, 1}})
        assert a == b == {"s": [1, 2, 3]}

    def test_mixed_type_sets_are_stable(self):
        from repro.obs.provenance import _jsonable

        a = _jsonable(frozenset(["b", 1, "a"]))
        b = _jsonable(frozenset(["a", "b", 1]))
        assert a == b
        assert json.dumps(a) == json.dumps(b)

    def test_tuples_and_paths_coerce(self):
        from pathlib import Path

        from repro.obs.provenance import _jsonable

        out = _jsonable({"t": (1, 2), "p": Path("/tmp/x.csv")})
        assert out == {"t": [1, 2], "p": "/tmp/x.csv"}
        json.dumps(out)

    def test_numpy_scalars_collapse_to_plain_types(self):
        import numpy as np

        from repro.obs.provenance import _jsonable

        out = _jsonable({"f": np.float64(1.5), "i": np.int32(7),
                         "b": np.bool_(True)})
        assert out == {"f": 1.5, "i": 7, "b": True}
        assert type(out["f"]) is float and type(out["i"]) is int

    def test_hash_stability_across_orderings(self):
        from repro.store import content_hash

        a = {"seeds": {5, 1}, "sim": {"x": 1, "y": (2, 3)}}
        b = {"sim": {"y": (2, 3), "x": 1}, "seeds": {1, 5}}
        assert content_hash(a) == content_hash(b)


class TestObservability:
    def test_default_is_disabled(self):
        obs = Observability()
        assert not obs.enabled
        assert not obs.events.enabled
        assert obs.spans is None  # phase timing is asked for, never default

    def test_tracing_constructor(self):
        obs = Observability(enabled=True, event_capacity=128)
        assert obs.enabled
        assert obs.events.enabled
        assert obs.events.capacity == 128

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Observability(event_capacity=-1)

    def test_stats_dict_shape(self):
        obs = Observability(enabled=True, event_capacity=1, spans=SpanRecorder())
        obs.events.emit(1.0, ev.GENERATED, packet=0)
        obs.events.emit(2.0, ev.GENERATED, packet=1)
        obs.spans.add("p", 0.1)
        d = obs.stats_dict()
        assert set(d) == {"events", "phase_timings"}
        assert d["events"]["recorded"] == 1
        assert d["events"]["evicted"] == 1
        assert d["events"]["by_type"] == {"generated": 2}
        assert "p" in d["phase_timings"]
        json.dumps(d)


class TestMetricsCollectorObs:
    def test_counters_are_plain_ints(self):
        mc = MetricsCollector()
        mc.on_generated()
        mc.on_forward(3)
        mc.on_table_exchange(25)
        mc.on_delivered(10.0, dst=2)
        mc.on_dropped_ttl(2)
        counts = (mc.generated, mc.delivered, mc.dropped_ttl,
                  mc.forwarding_ops, mc.maintenance_ops)
        assert counts == (1, 1, 2, 3, 3)
        assert all(type(c) is int for c in counts)

    def test_zero_duration_failures_warn_once(self):
        mc = MetricsCollector()
        mc.on_generated()
        mc.on_generated()
        mc.on_delivered(5.0, dst=1)
        with pytest.warns(RuntimeWarning, match="zero experiment_duration"):
            value = mc.overall_avg_delay
        assert value == pytest.approx(2.5)  # failure silently charged 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mc.overall_avg_delay  # warned once already; no second warning

    def test_no_warning_with_duration_set(self):
        mc = MetricsCollector(experiment_duration=100.0)
        mc.on_generated()
        mc.on_generated()
        mc.on_delivered(10.0, dst=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mc.overall_avg_delay == pytest.approx(55.0)

    def test_no_warning_without_failures(self):
        mc = MetricsCollector()
        mc.on_generated()
        mc.on_delivered(4.0, dst=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mc.overall_avg_delay == pytest.approx(4.0)


class TestFiveNumberSummarySingleSample:
    def test_single_sample(self):
        s = five_number_summary([7.5])
        assert s.minimum == s.q1 == s.mean == s.q3 == s.maximum == 7.5

    def test_two_samples_still_work(self):
        s = five_number_summary([1.0, 3.0])
        assert s.minimum == 1.0
        assert s.maximum == 3.0
        assert s.mean == 2.0
