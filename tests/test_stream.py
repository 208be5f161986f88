"""Streaming trace production: equivalence with the materialized path.

The shard-capable architecture rests on one promise: a trace consumed as
a stream (:class:`~repro.mobility.stream.TraceStream`) is *the same
trace* as its materialized twin — same records, same engine events, same
metrics to the last bit.  These tests pin that promise at every layer:

* the mobility models' ``stream_visits`` generators are deterministic
  and re-iterable: consuming one lazily or materialized into a
  :class:`~repro.mobility.trace.Trace` yields exactly the same records
  (``stream_visits`` deliberately draws from per-node RNG streams, so it
  is a *different sample* than the legacy single-RNG ``generate_visits``
  — equivalence holds within the streaming path, not across samplers);
* the replay of a trace and of its stream interleaves a run's own events
  (births, probes, fault edges) exactly where one sort of all events puts
  them, both reject corrupt timestamps with the same error, and probes
  over a stream see the states they see over the materialized trace;
* the serial engine fed a ``TraceStream`` reproduces the materialized
  run bit-for-bit on both committed ci scenarios (the zero-tolerance
  surface the regression gate gates on).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines import make_protocol
from repro.mobility.stream import TraceStream
from repro.mobility.synthetic import (
    BusConfig,
    BusMobilityModel,
    CampusConfig,
    CampusMobilityModel,
)
from repro.mobility.trace import Trace, VisitRecord, days
from repro.sim.engine import SimConfig, Simulation

REPO = Path(__file__).resolve().parent.parent
CI = REPO / "ci"

SMALL_CAMPUS = CampusConfig(n_nodes=40, days=2)
SMALL_BUS = BusConfig(days=2)


@pytest.mark.parametrize("seed", [0, 3])
def test_campus_stream_matches_materialized(seed):
    model = CampusMobilityModel(SMALL_CAMPUS, seed=seed)
    stream = model.trace_stream()
    trace = stream.materialize()
    assert list(model.stream_visits()) == list(trace.records)
    # same population as the legacy sampler, different draws
    legacy = model.generate_visits()
    assert {r.node for r in trace.records} == {r.node for r in legacy}
    assert {r.landmark for r in trace.records} <= {
        r.landmark for r in legacy
    } | set(range(SMALL_CAMPUS.n_landmarks))


@pytest.mark.parametrize("seed", [0, 3])
def test_bus_stream_matches_materialized(seed):
    model = BusMobilityModel(SMALL_BUS, seed=seed)
    stream = model.trace_stream()
    assert list(model.stream_visits()) == list(stream.materialize().records)


def test_stream_records_are_start_ordered():
    model = CampusMobilityModel(SMALL_CAMPUS, seed=1)
    starts = [rec.start for rec in model.stream_visits()]
    assert starts == sorted(starts)


def test_stream_is_reiterable():
    """A model-backed stream must rebuild identically on every pass."""
    stream = CampusMobilityModel(SMALL_CAMPUS, seed=5).trace_stream()
    assert list(stream.iter_records()) == list(stream.iter_records())


def test_replay_interleaves_extra_events_in_sort_order():
    """Extra events at visit instants, of every kind, land where one sort
    of all events puts them (kinds tie on time, seqs break the ties)."""
    stream = CampusMobilityModel(SMALL_CAMPUS, seed=4).trace_stream()
    trace = stream.materialize()
    visits = list(trace.replay_events(3, 1))
    seq = len(visits)
    extra = []
    for i, (t, _, _, _) in enumerate(visits[::7]):
        extra.append((t, i % 5, seq, f"extra-{i}"))
        seq += 1
    extra.append((trace.start_time - 1.0, 2, seq, "before-all"))
    extra.append((trace.end_time + 1.0, 4, seq + 1, "after-all"))
    extra.sort()
    want = sorted(visits + extra)
    assert list(stream.replay_events(3, 1, extra)) == want
    assert list(trace.replay_events(3, 1, extra)) == want
    assert list(stream.replay_events(3, 1)) == sorted(visits)


@st.composite
def replay_cases(draw):
    """A trace with overlapping, zero-length and same-instant visits, and a
    sorted list of extra events of every kind, many at visit instants."""
    records = [
        VisitRecord(float(start), float(start + length), node, landmark)
        for start, length, node, landmark in draw(st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 5),
                      st.integers(0, 3), st.integers(0, 3)),
            min_size=1, max_size=25,
        ))
    ]
    trace = Trace(records, name="hypo")
    instants = sorted({r.start for r in records} | {r.end for r in records})
    times = draw(st.lists(
        st.one_of(st.sampled_from(instants), st.integers(-1, 20).map(float)),
        max_size=15,
    ))
    seq = 2 * len(trace)
    extra = sorted(
        (t, draw(st.integers(0, 4)), seq + i, f"extra-{i}")
        for i, t in enumerate(times)
    )
    return trace, extra


@settings(max_examples=200, deadline=None)
@given(case=replay_cases(), kinds=st.sampled_from([(3, 1), (2, 0), (4, 1), (1, 0)]))
# two zero-length visits at one instant: the second one's end sorts
# before the first one's start
@example(
    case=(Trace([VisitRecord(0.0, 0.0, 0, 0), VisitRecord(0.0, 0.0, 1, 1)]), []),
    kinds=(3, 1),
)
def test_trace_and_stream_replays_are_one_sort_of_all_events(case, kinds):
    trace, extra = case
    start_kind, end_kind = kinds
    visits = [
        ev
        for i, rec in enumerate(trace)
        for ev in ((rec.start, start_kind, 2 * i, rec),
                   (rec.end, end_kind, 2 * i + 1, rec))
    ]
    want = sorted(visits + extra)
    stream = TraceStream.from_trace(trace)
    assert list(trace.replay_events(start_kind, end_kind, extra)) == want
    assert list(stream.replay_events(start_kind, end_kind, extra)) == want
    assert list(trace.replay_events(start_kind, end_kind)) == sorted(visits)


NAN = float("nan")
#: a NaN start (after a healthy record, and first) and a NaN end
CORRUPT = {
    "nan-start": [VisitRecord(0.0, 10.0, 0, 0), VisitRecord(NAN, 20.0, 1, 1)],
    "nan-first-start": [VisitRecord(NAN, 20.0, 1, 1), VisitRecord(0.0, 10.0, 0, 0)],
    "nan-end": [VisitRecord(0.0, 10.0, 0, 0), VisitRecord(5.0, NAN, 1, 1)],
}


def _replay_errors(trace, start_kind, end_kind):
    """The replay error of ``trace`` and of its stream, as messages."""
    errors = []
    for source in (trace, TraceStream.from_trace(trace)):
        with pytest.raises(ValueError) as exc:
            list(source.replay_events(start_kind, end_kind))
        errors.append(str(exc.value))
    return errors


@pytest.mark.parametrize("case", sorted(CORRUPT))
def test_trace_and_stream_reject_nan_timestamps_alike(case):
    errors = _replay_errors(Trace(CORRUPT[case], name="corrupt"), 3, 1)
    assert errors[0] == errors[1]
    assert "non-monotonic visit times in trace 'corrupt'" in errors[0]


@pytest.mark.parametrize("kinds", [(1, 3), (2, 2)])
def test_trace_and_stream_reject_end_kinds_not_below_start_kinds(kinds):
    trace = Trace([VisitRecord(0.0, 10.0, 0, 0)], name="healthy")
    errors = _replay_errors(trace, *kinds)
    assert errors[0] == errors[1]
    assert "end_kind < start_kind" in errors[0]


def test_runs_over_a_nan_start_raise_for_trace_and_stream():
    trace = Trace(CORRUPT["nan-start"], name="corrupt")
    config = SimConfig(seed=1, rate_per_landmark_per_day=100.0, ttl=days(1.0))
    errors = []
    for source in (trace, TraceStream.from_trace(trace)):
        with pytest.raises(ValueError, match="non-monotonic") as exc:
            Simulation(source, make_protocol("DTN-FLOW"), config).run()
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("faulted", [False, True])
def test_probes_over_a_stream_see_the_materialized_states(faulted):
    """Probes at visit-start instants (so probe, start, end, birth and,
    when faulted, fault-edge kinds tie on time) observe the same world
    states in the same order over a TraceStream as over its Trace."""
    stream = CampusMobilityModel(SMALL_CAMPUS, seed=1).trace_stream()
    trace = stream.materialize()
    records = trace.records
    instants = [records[i].start for i in range(0, len(records), 23)]
    faults = None
    if faulted:  # windows are fractions of the trace span
        faults = {"seed": 3, "specs": [
            {"kind": "node_churn", "start": 0.3, "end": 0.7, "fraction": 0.3},
            {"kind": "landmark_outage", "start": 0.45, "end": 0.8, "count": 2},
        ]}
    config = SimConfig(
        seed=2, rate_per_landmark_per_day=60.0, workload_scale=0.2,
        time_unit=days(0.5), ttl=days(1.0), faults=faults,
    )

    def observed(source):
        seen = []

        def probe_at(t):
            def probe(world):
                seen.append((
                    t, world.now,
                    sorted((n.nid, n.at_landmark) for n in world.nodes.values()
                           if n.at_landmark is not None),
                    sorted((lid, len(s.buffer)) for lid, s in world.stations.items()),
                    len(world._delivered_pids), len(world._dropped_pids),
                ))
            return probe

        probes = [(t, probe_at(t)) for t in instants]
        summary = Simulation(
            source, make_protocol("DTN-FLOW"), config, probes=probes
        ).run()
        return seen, summary

    got, streamed = observed(stream)
    want, base = observed(trace)
    assert len(got) == len(instants)
    assert got == want
    assert dataclasses.replace(
        streamed, trace=base.trace, provenance=base.provenance,
        phase_timings=base.phase_timings,
    ) == base


def _scenario_entries(path):
    from repro.eval.scenario import ScenarioSpec

    spec = ScenarioSpec.from_dict(json.loads(path.read_text())).validate()
    profile, tspec, _ = spec.resolve_trace()
    trace = tspec.materialize()
    return trace, spec.entries(profile, tspec)


@pytest.mark.slow
@pytest.mark.parametrize(
    "scenario",
    ["regression-scenario.json", "regression-faulted-scenario.json"],
)
def test_engine_over_trace_stream_bit_identical_on_ci_scenarios(scenario):
    """Serial runs over a TraceStream replay the materialized runs exactly."""
    trace, entries = _scenario_entries(CI / scenario)
    stream = TraceStream.from_trace(trace)
    for _tspec, point, config in entries:
        protocol = point.protocol
        kwargs = point.protocol_kwargs or {}
        base = Simulation(trace, make_protocol(protocol, **kwargs), config).run()
        streamed = Simulation(
            stream, make_protocol(protocol, **kwargs), config
        ).run()
        # provenance carries the trace/stream name and phase timings differ;
        # every metric field must match bit-for-bit
        assert dataclasses.replace(
            streamed,
            trace=base.trace,
            provenance=base.provenance,
            phase_timings=base.phase_timings,
        ) == base, f"{protocol}: streamed metrics diverge from materialized"
