"""Tests for the baseline protocols (repro.baselines)."""

import copyreg
import pickle

import pytest

from repro.baselines import (
    PAPER_PROTOCOLS,
    DirectDeliveryProtocol,
    EpidemicProtocol,
    GeoCommProtocol,
    PERProtocol,
    PGRProtocol,
    ProphetProtocol,
    SimBetProtocol,
    make_protocol,
    protocol_names,
)
from repro.baselines.geocomm import TIME_UNIT
from repro.baselines.prophet import P_INIT, _Predictability
from repro.baselines.simbet import ego_betweenness
from repro.mobility.trace import Trace, VisitRecord, days
from repro.sim.engine import SimConfig, Simulation, run_simulation


def rec(start, end, node, landmark):
    return VisitRecord(start=start, end=end, node=node, landmark=landmark)


def cfg(**kw):
    defaults = dict(
        ttl=days(1.0), rate_per_landmark_per_day=30.0, time_unit=4000.0,
        seed=0, warmup_fraction=0.1, contact_prob=1.0,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def shuttle2(n_trips=50):
    """Two nodes on overlapping shuttles so contacts happen."""
    recs = []
    for i in range(n_trips):
        t = i * 1000.0
        recs.append(rec(t, t + 600, 0, i % 2))
        recs.append(rec(t + 300, t + 900, 1, (i + 1) % 2))
    return Trace(recs, name="shuttle2")


class TestRegistry:
    def test_all_paper_protocols_registered(self):
        for name in PAPER_PROTOCOLS:
            proto = make_protocol(name)
            assert proto.name == name

    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            make_protocol("flood-o-matic")

    def test_fresh_instances(self):
        assert make_protocol("PROPHET") is not make_protocol("PROPHET")

    def test_protocol_names_sorted(self):
        names = protocol_names()
        assert names == sorted(names)
        assert "Epidemic" in names and "Direct" in names


class TestAllProtocolsRun:
    @pytest.mark.parametrize("name", list(PAPER_PROTOCOLS) + ["Direct", "Epidemic"])
    def test_end_to_end(self, name, dart_tiny, tiny_sim_config):
        s = run_simulation(dart_tiny, make_protocol(name), tiny_sim_config)
        assert s.generated > 0
        assert 0.0 <= s.success_rate <= 1.0
        assert s.delivered + s.dropped_ttl <= s.generated

    @pytest.mark.parametrize("name", PAPER_PROTOCOLS)
    def test_deterministic(self, name, dnet_tiny, tiny_sim_config):
        a = run_simulation(dnet_tiny, make_protocol(name), tiny_sim_config)
        b = run_simulation(dnet_tiny, make_protocol(name), tiny_sim_config)
        assert a == b


class TestProphet:
    def test_encounter_raises_predictability(self):
        p = ProphetProtocol()
        tab = p._lm_table(0)
        tab.encounter(5, t=0.0)
        v1 = tab.get(5, t=0.0)
        tab.encounter(5, t=0.0)
        assert tab.get(5, t=0.0) > v1

    def test_aging_decays(self):
        p = ProphetProtocol()
        tab = p._lm_table(0)
        tab.encounter(5, t=0.0)
        assert tab.get(5, t=days(1.0)) < tab.get(5, t=0.0)

    def test_no_transitivity_by_default(self):
        """The paper's adaptation uses plain visiting records: a node-node
        contact leaves every landmark predictability unchanged."""
        p = ProphetProtocol()

        class FakeNode:
            def __init__(self, nid):
                self.nid = nid

        p._lm_table(1).encounter(7, t=0.0)  # b knows landmark 7
        p.learn_contact(None, FakeNode(0), FakeNode(1), t=0.0)
        assert p._lm_table(0).get(7, t=0.0) == 0.0
        assert p._lm_table(1).get(7, t=0.0) == P_INIT

    def test_restores_checkpoints_of_the_parameterised_layout(self, monkeypatch):
        """Checkpoints written while the PROPHET constants were constructor
        parameters pickle each table with three extra slots."""
        old_state = (None, {
            "p": {7: 0.75}, "last_update": {7: 10.0},
            "p_init": 0.75, "gamma": 0.98, "aging_unit": 3600.0,
        })
        monkeypatch.setattr(
            _Predictability, "__reduce_ex__",
            lambda self, protocol: (copyreg.__newobj__, (_Predictability,), old_state),
        )
        blob = pickle.dumps(_Predictability(), protocol=pickle.HIGHEST_PROTOCOL)
        monkeypatch.undo()
        tab = pickle.loads(blob)
        assert tab.get(7, t=10.0) == 0.75
        tab.encounter(7, t=10.0)
        assert pickle.loads(pickle.dumps(tab)).p == tab.p

    def test_delivers_on_shuttle(self):
        s = run_simulation(shuttle2(), ProphetProtocol(), cfg())
        assert s.success_rate > 0.7

    def test_invalid_params(self):
        """The PROPHET constants are not configurable."""
        for key, value in (("p_init", 0.0), ("gamma", 1.5)):
            with pytest.raises(ValueError, match=f"'PROPHET'.*{key}"):
                make_protocol("PROPHET", **{key: value})


class TestSimBet:
    def test_ego_betweenness_star(self):
        # ego connects 3 mutually-unconnected neighbours: 3 pairs bridged
        assert ego_betweenness({1, 2, 3}, {}) == 3.0

    def test_ego_betweenness_clique(self):
        adj = {1: {2, 3}, 2: {1, 3}, 3: {1, 2}}
        assert ego_betweenness({1, 2, 3}, adj) == 0.0

    def test_similarity_counts_visits(self, dart_tiny, tiny_sim_config):
        proto = SimBetProtocol()
        Simulation(dart_tiny, proto, tiny_sim_config).run()
        node = dart_tiny.nodes[0]
        sims = [proto.similarity(node, lm) for lm in dart_tiny.landmarks]
        assert max(sims) > 0

    def test_pairwise_utility_symmetric_complement(self):
        proto = SimBetProtocol()
        proto._visits.setdefault(0, __import__("collections").Counter())[9] = 4
        proto._visits.setdefault(1, __import__("collections").Counter())[9] = 1
        u01 = proto.pairwise_utility(0, 1, 9)  # utility of 1 vs 0
        u10 = proto.pairwise_utility(1, 0, 9)
        assert u01 + u10 == pytest.approx(1.0)
        assert u10 > u01  # node 0 visits 9 more

    def test_delivers_on_shuttle(self):
        s = run_simulation(shuttle2(), SimBetProtocol(), cfg())
        assert s.success_rate > 0.7


class TestPGR:
    def test_route_prediction_on_cycle(self, shuttle_trace, tiny_sim_config):
        proto = PGRProtocol()
        Simulation(shuttle_trace, proto, tiny_sim_config).run()
        node = list(shuttle_trace.nodes)[0]

        class FakeNode:
            nid = node
            at_landmark = 0
            prev_landmark = 1

        route = proto.predicted_route(FakeNode())
        assert route  # the shuttle's next stop is predictable
        lms = [lm for lm, _ in route]
        assert lms[0] == 1

    def test_cumulative_probabilities_decrease(self, dart_tiny, tiny_sim_config):
        proto = PGRProtocol()
        Simulation(dart_tiny, proto, tiny_sim_config).run()
        for node in dart_tiny.nodes:
            class FakeNode:
                nid = node
                at_landmark = dart_tiny.visit_sequence(node)[-1]
                prev_landmark = None
            route = proto.predicted_route(FakeNode())
            probs = [p for _, p in route]
            assert probs == sorted(probs, reverse=True)

    def test_utility_zero_off_route(self):
        proto = PGRProtocol()

        class FakeNode:
            nid = 0
            at_landmark = None
            prev_landmark = None

        assert proto.utility(None, FakeNode(), 5, 0.0) == 0.0


class TestGeoComm:
    def test_contact_probability_fraction_of_units(self):
        proto = GeoCommProtocol()

        class FakeNode:
            nid = 0

        class FakeStation:
            lid = 7

        # contacts in units 0 and 2 of 0..4
        proto.learn_visit(None, FakeNode(), FakeStation(), t=10.0)
        proto.learn_visit(None, FakeNode(), FakeStation(), t=2 * TIME_UNIT + 10.0)
        assert proto.contact_probability(0, 7, t=5 * TIME_UNIT - 1.0) == pytest.approx(2 / 5)

    def test_unknown_node_zero(self):
        assert GeoCommProtocol().contact_probability(5, 1, 0.0) == 0.0

    def test_probability_capped_at_one(self):
        proto = GeoCommProtocol()

        class FakeNode:
            nid = 0

        class FakeStation:
            lid = 7

        proto.learn_visit(None, FakeNode(), FakeStation(), t=10.0)
        assert proto.contact_probability(0, 7, t=10.0) == 1.0


class TestPER:
    def test_visit_probability_identity(self):
        proto = PERProtocol()
        assert proto.visit_probability(0, here=5, dest=5, steps=1) == 1.0

    def test_visit_probability_no_model(self):
        proto = PERProtocol()
        assert proto.visit_probability(0, here=1, dest=2, steps=5) == 0.0

    def test_learned_chain_reachability(self, shuttle_trace, tiny_sim_config):
        proto = PERProtocol()
        Simulation(shuttle_trace, proto, tiny_sim_config).run()
        node = list(shuttle_trace.nodes)[0]
        # a shuttle node at 0 reaches 1 within one step with high probability
        p1 = proto.visit_probability(node, here=0, dest=1, steps=8)
        assert p1 > 0.9

    def test_probability_monotone_in_steps(self, dart_tiny, tiny_sim_config):
        proto = PERProtocol()
        Simulation(dart_tiny, proto, tiny_sim_config).run()
        node = dart_tiny.nodes[0]
        here = dart_tiny.visit_sequence(node)[-1]
        dest = dart_tiny.landmarks[-1]
        p_short = proto.visit_probability(node, here, dest, steps=8)
        p_long = proto.visit_probability(node, here, dest, steps=64)
        assert p_long >= p_short - 1e-12

    def test_probabilities_in_range(self, dnet_tiny, tiny_sim_config):
        proto = PERProtocol()
        Simulation(dnet_tiny, proto, tiny_sim_config).run()
        for node in dnet_tiny.nodes:
            for dest in dnet_tiny.landmarks:
                p = proto.visit_probability(node, dnet_tiny.visit_sequence(node)[-1], dest, 16)
                assert 0.0 <= p <= 1.0 + 1e-9


class TestExtras:
    def test_direct_delivery_waits_for_visitor(self):
        s = run_simulation(shuttle2(), DirectDeliveryProtocol(), cfg())
        assert s.success_rate > 0.5

    def test_epidemic_delivers_and_does_not_double_count(self):
        s = run_simulation(shuttle2(), EpidemicProtocol(), cfg())
        assert s.delivered <= s.generated
        assert s.success_rate > 0.5

    def test_epidemic_forwarding_cost_highest(self):
        e = run_simulation(shuttle2(), EpidemicProtocol(), cfg())
        d = run_simulation(shuttle2(), DirectDeliveryProtocol(), cfg())
        assert e.forwarding_ops > d.forwarding_ops
