"""Each cheap per-visit path pinned to the straightforward code it replaced.

The engine keeps station connection lists sorted as nodes come and go,
skips the expiry scan while the heap's earliest deadline is ahead, PGR
walks its predicted route straight off the order-1 counts, PER's
reachability DP reads ``(landmark, p)`` row tuples, and the synthetic
models stream their visits through a per-day sort instead of a heap
merge of per-node generators.  Each test keeps the replaced form as a
reference and requires identical results, so a later change to either
side cannot drift silently.
"""

from __future__ import annotations

import heapq
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import make_protocol
from repro.baselines.per import MAX_STEPS, STEP_QUANTUM, PERProtocol
from repro.baselines.pgr import HORIZON, PGRProtocol
from repro.core.predictor import MarkovPredictor
from repro.mobility.synthetic import (
    BusConfig,
    BusMobilityModel,
    CampusConfig,
    CampusMobilityModel,
)
from repro.mobility.trace import SECONDS_PER_DAY, VisitRecord, hours
from repro.obs import Observability, event_types as ev
from repro.sim.checkpoint import SerialCheckpointer, SimulatedCrash
from repro.sim.engine import Simulation
from repro.sim.entities import MobileNode
from repro.sim.packets import Packet
from tests.test_resilience import OUTAGE_PLAN, _light_config


# -- connected-node lists ------------------------------------------------------


def _lists_agree(world) -> bool:
    return all(
        world.connected_nodes(station) == [world.nodes[n] for n in sorted(station.connected)]
        for station in world.stations.values()
    )


def _check_every_event(sim, verdicts):
    """Make ``sim`` record, after each dispatched event, whether every
    station's connected-node list equals a fresh sort of its set."""
    dispatch = sim._dispatch

    def checked(events):
        def each():
            for event in events:
                yield event
                verdicts.append(_lists_agree(sim.world))

        dispatch(each())

    sim._dispatch = checked


class TestConnectedNodeLists:
    def config(self):
        return _light_config(faults=OUTAGE_PLAN)

    def test_lists_follow_every_event_under_node_churn(self, dart_tiny):
        plain = Simulation(dart_tiny, make_protocol("PROPHET"), self.config()).run()
        sim = Simulation(dart_tiny, make_protocol("PROPHET"), self.config())
        verdicts = []
        _check_every_event(sim, verdicts)
        assert sim.run() == plain
        assert len(verdicts) > 1000 and all(verdicts)

    def test_lists_follow_every_event_after_a_restore(self, dart_tiny, tmp_path):
        plain = Simulation(dart_tiny, make_protocol("PROPHET"), self.config()).run()
        crashing = SerialCheckpointer(tmp_path, every_events=400, crash_after_saves=2)
        with pytest.raises(SimulatedCrash):
            Simulation(dart_tiny, make_protocol("PROPHET"), self.config()).run_checkpointed(
                crashing
            )
        sim = Simulation(dart_tiny, make_protocol("PROPHET"), self.config())
        verdicts = []
        _check_every_event(sim, verdicts)
        assert sim.run_checkpointed(SerialCheckpointer(tmp_path, every_events=400)) == plain
        assert len(verdicts) > 500 and all(verdicts)


# -- expiry check --------------------------------------------------------------


class TestExpiryCheck:
    @settings(max_examples=60, deadline=None)
    @given(
        deadlines=st.lists(st.integers(1, 40), min_size=1, max_size=25),
        removed=st.lists(st.integers(0, 24), unique=True),
        times=st.lists(st.integers(0, 45), min_size=1, max_size=8),
    )
    def test_drops_what_a_full_scan_drops(self, dart_tiny, deadlines, removed, times):
        """Removed packets leave stale entries in the expiry heap; each
        sweep must drop what a scan of the held packets in insertion
        order finds past deadline, in that order."""
        obs = Observability(enabled=True)
        sim = Simulation(dart_tiny, make_protocol("Direct"), _light_config(), obs=obs)
        world = sim.world
        buffer = world.nodes[dart_tiny.nodes[0]].buffer
        held = {}
        for pid, deadline in enumerate(deadlines):
            packet = Packet(pid=pid, src=0, dst=1, created=0.0, ttl=deadline)
            assert buffer.add(packet)
            held[pid] = packet
        for pid in removed:
            if buffer.remove(pid) is not None:
                del held[pid]
                # a removal pops the stale entries it exposes at the top
                assert not buffer._expiry or buffer._expiry[0][1] in buffer
        for now in sorted(times):
            world.now = float(now)
            want = [pid for pid, p in held.items() if now > p.deadline]
            seen = len(obs.events.select(etypes=[ev.DROPPED_TTL]))
            world.drop_expired_in(world.nodes[dart_tiny.nodes[0]])
            got = [e.packet for e in obs.events.select(etypes=[ev.DROPPED_TTL])]
            assert got[seen:] == want
            for pid in want:
                del held[pid]
            assert list(buffer._packets) == list(held)


# -- PGR route walk --------------------------------------------------------------


def _reference_route(pred: MarkovPredictor, here):
    """PGR's route as walked by an order-1 predictor copy without fallback."""
    route = []
    if here is None or not pred.history:
        return route
    sim = MarkovPredictor(1)
    sim._counts = pred._counts
    sim._freq = pred._freq
    sim.fallback = False
    sim.history = list(pred.history)
    if sim.history[-1] != here:
        sim.history = sim.history + [here]
    cum = 1.0
    seen = {here}
    for _ in range(HORIZON):
        guess = sim.predict()
        if guess is None:
            break
        lm, prob = guess
        cum *= prob
        route.append((lm, cum))
        if lm in seen:
            break
        seen.add(lm)
        sim.history = sim.history + [lm]
    return route


class TestPGRRoute:
    @settings(max_examples=200, deadline=None)
    @given(
        # a four-landmark alphabet makes equal transition counts, and so
        # probability ties, common
        history=st.lists(st.integers(0, 3), max_size=30),
        here=st.one_of(st.none(), st.integers(0, 4)),
        moving=st.booleans(),
    )
    def test_route_equals_the_predictor_walk(self, history, here, moving):
        pgr = PGRProtocol()
        pred = pgr._predictor(0)
        pred.extend(history)
        node = MobileNode(0, 10_000.0)
        if moving:
            node.prev_landmark = here
        else:
            node.at_landmark = here
        assert pgr.predicted_route(node) == _reference_route(pred, here)


# -- PER reachability DP -----------------------------------------------------------


class _DictRowPER(PERProtocol):
    """PER with the DP over ``dict`` transition rows it used to run."""

    def visit_probability(self, nid, here, dest, steps):
        if here is None:
            return 0.0
        if here == dest:
            return 1.0
        steps = min(steps, MAX_STEPS)
        if steps <= 0:
            return 0.0
        steps = max(1, (steps // STEP_QUANTUM) * STEP_QUANTUM)
        key = (nid, here, dest, steps)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        model = self._models.get(nid)
        if model is None:
            return 0.0
        seen, stack = {dest}, [dest]
        while stack:
            to = stack.pop()
            for src, row in model.trans.items():
                if to in row and src not in seen:
                    seen.add(src)
                    stack.append(src)
        if here not in seen:
            self._cache[key] = 0.0
            return 0.0
        state_key = (nid, here, dest)
        state = self._dp_state.get(state_key)
        if state is not None and state[0] == model.version and state[1] <= steps:
            _, done, dist, absorbed, terminal = state
            if terminal or done == steps:
                self._cache[key] = absorbed
                return absorbed
        else:
            done, absorbed, dist = 0, 0.0, {here: 1.0}
        terminal = False
        for _ in range(steps - done):
            nxt = {}
            for lm, mass in dist.items():
                counts = model.trans.get(lm)
                if not counts:
                    continue
                total = sum(counts.values())
                row = {to: c / total for to, c in counts.items()}
                for to, p in row.items():
                    m = mass * p
                    if to == dest:
                        absorbed += m
                    else:
                        nxt[to] = nxt.get(to, 0.0) + m
            dist = nxt
            if not dist or absorbed > 0.999:
                terminal = True
                break
        self._dp_state[state_key] = (model.version, steps, dist, absorbed, terminal)
        self._cache[key] = absorbed
        return absorbed


#: four landmarks keep the drawn transit graphs dense, so most queries
#: reach their destination and run the DP; queries are drawn twice as
#: often as visits and pickle round trips
_LANDMARKS = st.integers(0, 3)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("visit"), _LANDMARKS),
        st.tuples(st.just("query"), _LANDMARKS, _LANDMARKS, st.integers(-2, MAX_STEPS + 10)),
        st.tuples(st.just("query"), _LANDMARKS, _LANDMARKS, st.integers(-2, MAX_STEPS + 10)),
        st.tuples(st.just("pickle")),
    ),
    max_size=50,
)


def _state(per: PERProtocol):
    return {
        key: (version, steps, list(dist.items()), absorbed, terminal)
        for key, (version, steps, dist, absorbed, terminal) in per._dp_state.items()
    }


class TestPERDP:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(warmup=st.lists(_LANDMARKS, min_size=4, max_size=30), ops=_OPS)
    def test_values_and_states_equal_the_dict_row_loop(self, warmup, ops):
        """Visits move the model between queries; a pickle round trip (a
        checkpoint) drops the memo tables and must change nothing."""
        per, ref = PERProtocol(), _DictRowPER()
        t = 0.0
        for op in [("visit", lm) for lm in warmup] + ops:
            if op[0] == "visit":
                for proto in (per, ref):
                    model = proto._model(0)
                    model.record_visit(op[1], t)
                    model.record_departure(op[1], t, t + 50.0)
                t += 100.0
            elif op[0] == "query":
                _, here, dest, steps = op
                got = per.visit_probability(0, here, dest, steps)
                want = ref.visit_probability(0, here, dest, steps)
                assert got == want
                assert _state(per) == _state(ref)
            else:
                per = pickle.loads(pickle.dumps(per))
                ref._dp_state.clear()
                assert per._dp_state == {} and per._reach == {} and per._rev == {}
                assert all(m._norm == {} for m in per._models.values())


# -- day-merged synthetic streams --------------------------------------------------


def _node_rng(model, node):
    return np.random.default_rng(np.random.SeedSequence(model.seed, spawn_key=(node,)))


def _released(days, horizon):
    """Release ``(day, record)`` pairs through a heap once no later day
    can start before them: ``horizon(d)`` is the earliest day ``d`` starts."""
    pending = []
    today = 0
    for day, rec in days:
        if day != today:
            while pending and pending[0].start < horizon(day):
                yield heapq.heappop(pending)
            today = day
        heapq.heappush(pending, rec)
    while pending:
        yield heapq.heappop(pending)


def _heap_campus_stream(model):
    """Every node's records as its own heap-released generator, merged
    with ``heapq.merge``: the campus stream before the day merge."""

    def node_stream(node):
        rng = _node_rng(model, node)
        days = (
            (day, rec)
            for day in range(model.config.days)
            for rec in model._node_day_records(node, day, rng)
        )
        return _released(days, lambda d: d * SECONDS_PER_DAY + hours(7.5))

    return heapq.merge(*(node_stream(n) for n in range(model.config.n_nodes)))


def _heap_bus_stream(model):
    """The bus stream before the day merge, built the same way."""
    service_start = hours(model.config.service_start_hour)

    def bus_stream(bus):
        days = (
            (day, VisitRecord(start, end, bus, lm))
            for day, start, end, lm, _ in model._bus_stays(bus, _node_rng(model, bus))
        )
        return _released(days, lambda d: d * SECONDS_PER_DAY + service_start)

    return heapq.merge(*(bus_stream(b) for b in range(model.config.n_buses)))


def _spills(records, day_start):
    """How many ``(day, record)`` pairs start once day ``day + 1`` can
    begin: the records a day's batch carries into the next."""
    return sum(
        rec.start >= (day + 1) * SECONDS_PER_DAY + day_start for day, rec in records
    )


#: campus days from calm to busy: a routine of 30 or more steps often
#: runs past the next morning
_CAMPUS = st.builds(
    CampusConfig,
    n_nodes=st.integers(1, 6),
    days=st.integers(1, 5),
    routine_length=st.integers(2, 45),
    holidays=st.sampled_from([(), ((1, 2),)]),
    weekend_activity=st.floats(0.0, 1.0),
    holiday_activity=st.floats(0.0, 1.0),
)
#: buses that break down and visit the garage most days, with long stops
#: and stalls, and service windows from minutes (days with no stay at all)
#: to over a day (stays that start after the next day's service does)
_BUS = st.builds(
    lambda start, window, **kw: BusConfig(
        n_stops=8, n_routes=3, service_start_hour=start, service_end_hour=start + window, **kw
    ),
    start=st.floats(0.0, 8.0),
    window=st.floats(0.05, 30.0),
    n_buses=st.integers(1, 6),
    days=st.integers(1, 5),
    garage_prob=st.floats(0.5, 1.0),
    breakdown_prob=st.floats(0.5, 1.0),
    shared_garage=st.booleans(),
    dwell_range=st.sampled_from([(120.0, 420.0), (1800.0, 3600.0)]),
    travel_range=st.sampled_from([(420.0, 1200.0), (1800.0, 5400.0)]),
    breakdown_stay_range=st.sampled_from([(hours(4), hours(9)), (hours(10), hours(30))]),
)


class TestDayMerge:
    @settings(max_examples=60, deadline=None)
    @given(config=_CAMPUS, seed=st.integers(0, 2**16))
    def test_campus_stream_equals_the_heap_merge(self, config, seed):
        model = CampusMobilityModel(config, seed=seed)
        assert list(model.stream_visits()) == list(_heap_campus_stream(model))

    @settings(max_examples=60, deadline=None)
    @given(config=_BUS, seed=st.integers(0, 2**16))
    def test_bus_stream_equals_the_heap_merge(self, config, seed):
        model = BusMobilityModel(config, seed=seed)
        assert list(model.stream_visits()) == list(_heap_bus_stream(model))

    def test_spilled_records_come_out_in_order(self):
        """Configs whose days spill into the next one, pinned so the
        carried records are exercised whatever hypothesis draws."""
        campus = CampusMobilityModel(
            CampusConfig(n_nodes=4, days=4, holidays=(), routine_length=30), seed=0
        )
        rngs = [_node_rng(campus, node) for node in range(4)]
        campus_days = [
            (day, rec)
            for day in range(4)
            for node, rng in enumerate(rngs)
            for rec in campus._node_day_records(node, day, rng)
        ]
        assert _spills(campus_days, hours(7.5)) > 0
        assert list(campus.stream_visits()) == list(_heap_campus_stream(campus))

        config = BusConfig(
            n_buses=16, n_stops=8, n_routes=3, days=10, garage_prob=1.0,
            breakdown_prob=1.0, service_start_hour=0.0, service_end_hour=23.9,
            dwell_range=(1800.0, 3600.0), travel_range=(1800.0, 5400.0),
        )
        bus = BusMobilityModel(config, seed=0)
        bus_days = [
            (day, VisitRecord(start, end, b, lm))
            for b in range(16)
            for day, start, end, lm, _ in bus._bus_stays(b, _node_rng(bus, b))
        ]
        assert _spills(bus_days, 0.0) > 0
        assert list(bus.stream_visits()) == list(_heap_bus_stream(bus))


class _EarlyCampus(CampusMobilityModel):
    """Node 1's day-2 visits start at 01:00, before any day can begin."""

    def _node_day_records(self, node, day, rng):
        records = super()._node_day_records(node, day, rng)
        if (node, day) == (1, 2):
            shift = day * SECONDS_PER_DAY + hours(1) - records[0].start
            records = [
                VisitRecord(start + shift, end + shift, n, lm) for start, end, n, lm in records
            ]
        return records


class _EarlyBus(BusMobilityModel):
    """Bus 0's day-1 stays start 7 h early, before day 1's service does."""

    def _bus_stays(self, bus, rng):
        for day, start, end, lm, nxt in super()._bus_stays(bus, rng):
            if (bus, day) == (0, 1):
                start, end = start - hours(7), end - hours(7)
            yield day, start, end, lm, nxt


class TestDayMergeOrderCheck:
    def test_campus_record_before_its_day_raises(self):
        model = _EarlyCampus(CampusConfig(n_nodes=3, days=4, holidays=()), seed=1)
        with pytest.raises(ValueError, match="campus node 1: a day-2 record"):
            list(model.stream_visits())

    def test_bus_record_before_its_day_raises(self):
        model = _EarlyBus(BusConfig(n_buses=2, n_stops=8, n_routes=3, days=3), seed=1)
        with pytest.raises(ValueError, match="bus node 0: a day-1 record"):
            list(model.stream_visits())
