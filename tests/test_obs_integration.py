"""Integration tests: observability threaded through real simulation runs."""

import dataclasses

import pytest

from repro.baselines import make_protocol, protocol_names
from repro.eval.resume import create_run, run_resumable
from repro.eval.runner import run_point_specs
from repro.eval.scenario import ScenarioSpec
from repro.mobility import io as trace_io
from repro.mobility.trace import days
from repro.obs import EventLog, Observability, SpanRecorder, event_types as ev
from repro.sim.engine import SimConfig, Simulation
from tests.test_resilience import OUTAGE_PLAN


def _tiny_config() -> SimConfig:
    """Same light workload as the tiny_sim_config fixture (module-scope
    fixtures can't depend on function-scope ones)."""
    return SimConfig(
        ttl=days(5.0),
        rate_per_landmark_per_day=200.0,
        workload_scale=0.02,
        time_unit=days(2.0),
        seed=5,
        contact_prob=0.3,
    )


@pytest.fixture(scope="module")
def traced_run(dart_tiny):
    """One fully traced, phase-timed DTN-FLOW run on the tiny DART trace."""
    config = _tiny_config()
    obs = Observability(enabled=True, spans=SpanRecorder())
    summary = Simulation(dart_tiny, make_protocol("DTN-FLOW"), config,
                         obs=obs).run()
    return dart_tiny, obs, summary


class TestTracedRun:
    def test_events_recorded(self, traced_run):
        _, obs, summary = traced_run
        counts = obs.events.counts_by_type()
        assert counts.get(ev.GENERATED, 0) == summary.generated
        assert counts.get(ev.DELIVERED, 0) == summary.delivered
        assert counts.get(ev.DROPPED_TTL, 0) == summary.dropped_ttl

    def test_delivered_packet_journey_is_causal(self, traced_run):
        _, obs, _ = traced_run
        log = obs.events
        delivered = log.delivered_packets()
        assert delivered, "expected at least one delivery on the tiny trace"
        for pid in delivered[:20]:
            journey = log.packet_journey(pid)
            etypes = [e.etype for e in journey]
            # born exactly once, first
            assert etypes[0] == ev.GENERATED
            assert etypes.count(ev.GENERATED) == 1
            # dies exactly once, last
            assert etypes[-1] == ev.DELIVERED
            assert sum(t in ev.TERMINAL_EVENTS for t in etypes) == 1
            # at least one movement between birth and death
            assert set(etypes[1:-1]) & {ev.FORWARDED, ev.UPLINKED, ev.HANDOVER}
            # nondecreasing simulation time
            times = [e.t for e in journey]
            assert times == sorted(times)

    def test_control_events_recorded(self, traced_run):
        _, obs, _ = traced_run
        counts = obs.events.counts_by_type()
        assert counts.get(ev.PREDICTOR_HIT, 0) + counts.get(ev.PREDICTOR_MISS, 0) > 0
        assert counts.get(ev.BW_UPDATE, 0) > 0
        assert counts.get(ev.TABLE_EXCHANGE, 0) > 0

    def test_phase_timings_cover_the_run(self, traced_run):
        _, obs, _ = traced_run
        report = obs.spans.flat()
        for phase in ("setup", "event_assembly", "dispatch.visit_start",
                      "router.carrier_selection", "finalize"):
            assert phase in report, f"missing phase {phase}"
            assert report[phase]["seconds"] >= 0.0
            assert report[phase]["calls"] >= 1

    def test_summary_carries_provenance_and_timings(self, traced_run):
        trace, _, summary = traced_run
        prov = summary.provenance
        assert prov is not None
        assert prov.trace == trace.name
        assert prov.protocol == "DTN-FLOW"
        assert prov.config["seed"] == prov.seed
        assert summary.phase_timings
        d = summary.as_dict()
        assert d["provenance"]["package_version"] == prov.package_version
        assert "phase_timings" in d


class TestDisabledTracing:
    def test_default_run_never_calls_emit(self, dart_tiny, tiny_sim_config,
                                          monkeypatch):
        """With obs disabled the hot paths must not even *call* emit
        (argument construction would allocate); prove it by making emit
        explode."""

        def boom(self, *a, **k):  # pragma: no cover - must never run
            raise AssertionError("EventLog.emit called on an untraced run")

        monkeypatch.setattr(EventLog, "emit", boom)
        obs = Observability()  # enabled=False
        summary = Simulation(
            dart_tiny, make_protocol("DTN-FLOW"), tiny_sim_config, obs=obs
        ).run()
        assert summary.generated > 0
        assert len(obs.events) == 0

    def test_traced_and_untraced_runs_agree(self, dart_tiny, tiny_sim_config):
        """Tracing must observe, never perturb: metrics are identical."""
        plain = Simulation(dart_tiny, make_protocol("DTN-FLOW"),
                           tiny_sim_config).run()
        traced = Simulation(dart_tiny, make_protocol("DTN-FLOW"),
                            tiny_sim_config,
                            obs=Observability(enabled=True)).run()
        assert plain == traced  # phase_timings excluded from equality

    @pytest.mark.parametrize("path", ["simulation", "jobs=1", "jobs=2", "resumable"])
    def test_default_run_times_nothing(self, path, dart_tiny, tiny_sim_config,
                                       tmp_path, monkeypatch):
        """Without a span recorder no path reads a phase timer: make every
        timing entry point explode, then run."""

        def boom(*a, **k):  # pragma: no cover - must never run
            raise AssertionError("a run given no span recorder timed a phase")

        monkeypatch.setattr(SpanRecorder, "add", boom)
        monkeypatch.setattr(SpanRecorder, "span", boom)
        monkeypatch.setattr(Simulation, "_timed", boom)
        if path == "simulation":
            summary = Simulation(
                dart_tiny, make_protocol("DTN-FLOW"), tiny_sim_config
            ).run()
            assert summary.generated > 0 and summary.phase_timings is None
            return
        csv = tmp_path / "tiny.csv"
        trace_io.dump_trace(dart_tiny, csv)
        spec = ScenarioSpec.from_dict({
            "trace": {"path": str(csv)},
            "sim": {"memory_kb": 2000, "rate": 150, "workload_scale": 0.02},
            "protocols": ["DTN-FLOW", "PROPHET"],
            "seeds": [1],
        }).validate()
        if path == "resumable":
            run_dir = create_run(tmp_path / "run", spec, every_events=400)
            res, _ = run_resumable(spec, run_dir, every_events=400)
            results = res.results
            assert any(
                r["event"] == ev.EXECUTOR_CHECKPOINT
                for r in run_dir.recovery_log().records()
            ), "no checkpoint was saved"
        else:
            results = run_point_specs(spec.entries(), jobs=int(path[-1]))
        assert [r.metrics.phase_timings for r in results] == [None, None]


#: the packet fates a MetricsSummary counts, by the event type that counts them
_FATES = {ev.GENERATED: "generated", ev.DELIVERED: "delivered",
          ev.DROPPED_TTL: "dropped_ttl"}


def _fates(obs: Observability) -> dict:
    counts = obs.events.counts_by_type()
    return {field: counts.get(etype, 0) for etype, field in _FATES.items()}


class TestEventsAgreeWithMetrics:
    """A traced run's event log counts the packet fates its metrics count,
    for every registry protocol, faulted or not."""

    @pytest.mark.parametrize("faulted", [False, True], ids=["plain", "faulted"])
    @pytest.mark.parametrize("protocol", protocol_names())
    def test_event_counts_equal_metrics(self, protocol, faulted, dart_tiny):
        config = _tiny_config()
        if faulted:
            config = dataclasses.replace(config, faults=OUTAGE_PLAN)
        obs = Observability(enabled=True)
        traced = Simulation(dart_tiny, make_protocol(protocol), config, obs=obs).run()
        plain = Simulation(dart_tiny, make_protocol(protocol), config).run()
        assert traced == plain
        assert _fates(obs) == {f: getattr(traced, f) for f in _FATES.values()}
        assert traced.generated > 0
        skipped = obs.events.counts_by_type().get(ev.FAULT_SKIPPED, 0)
        assert (skipped > 0) == faulted

    def test_counts_stay_exact_past_ring_capacity(self, dart_tiny):
        config = dataclasses.replace(_tiny_config(), faults=OUTAGE_PLAN)
        obs = Observability(enabled=True, event_capacity=500)
        summary = Simulation(
            dart_tiny, make_protocol("DTN-FLOW"), config, obs=obs
        ).run()
        # the ring kept only the tail: its window alone undercounts ...
        assert len(obs.events.select(etypes=[ev.GENERATED])) < summary.generated
        # ... while the per-type counts stay exact
        assert _fates(obs) == {f: getattr(summary, f) for f in _FATES.values()}


class TestEventFilters:
    """Filters accept only the kinds a run emits: packet, control and
    fault events, not the executor kinds of ``recovery.jsonl``."""

    def test_trace_etype_rejects_executor_kinds(self, capsys):
        from repro.cli import main

        rc = main(["trace", "--trace", "dart", "--etype", "delivered,executor.resume"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "executor.resume" in err.split(";")[0]
        known = err.split("known types:")[1]
        assert ev.FAULT_SKIPPED in known and ev.PREDICTOR_HIT in known
        assert not any(kind in known for kind in ev.EXECUTOR_EVENTS)

    def test_replay_events_reject_executor_kinds(self):
        from repro.serve.replay import ReplayRequest

        scenario = {"trace": {"profile": "DART", "seed": 1},
                    "sim": {"workload_scale": 0.02}, "protocols": ["Direct"]}
        with pytest.raises(ValueError, match="executor.checkpoint") as exc:
            ReplayRequest.from_payload(
                {"scenario": scenario, "events": [ev.EXECUTOR_CHECKPOINT]}
            )
        assert ev.FAULT_BLOCKED in str(exc.value)
        request = ReplayRequest.from_payload(
            {"scenario": scenario, "events": sorted(ev.RUN_EVENTS)}
        )
        assert set(request.etypes) == ev.RUN_EVENTS
