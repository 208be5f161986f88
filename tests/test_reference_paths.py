"""Each cheap per-visit path pinned to the straightforward code it replaced.

The engine keeps station connection lists sorted as nodes come and go,
skips the expiry scan while the heap's earliest deadline is ahead, PGR
walks its predicted route straight off the order-1 counts, and PER's
reachability DP reads ``(landmark, p)`` row tuples.  Each test keeps the
replaced form as a reference and requires identical results, so a later
change to either side cannot drift silently.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import make_protocol
from repro.baselines.per import MAX_STEPS, STEP_QUANTUM, PERProtocol
from repro.baselines.pgr import HORIZON, PGRProtocol
from repro.core.predictor import MarkovPredictor
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
