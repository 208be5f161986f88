"""End-to-end engine invariants over hypothesis-generated traces.

For any mobility trace and any protocol, a simulation must conserve
packets (delivered + TTL-dropped + still-held == generated, counting
unique packet ids, a held id only when no copy of it was delivered or
TTL-dropped), never exceed buffer capacities, and never deliver a
packet before it was created or after its deadline.
"""


from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import make_protocol
from repro.mobility.trace import Trace, VisitRecord
from repro.sim.engine import SimConfig, Simulation


@st.composite
def traces(draw):
    """Random small traces: a handful of nodes hopping over a few landmarks."""
    n_nodes = draw(st.integers(1, 4))
    n_landmarks = draw(st.integers(2, 5))
    records = []
    for node in range(n_nodes):
        t = float(draw(st.integers(0, 50)))
        n_visits = draw(st.integers(2, 15))
        for _ in range(n_visits):
            lm = draw(st.integers(0, n_landmarks - 1))
            dwell = float(draw(st.integers(10, 500)))
            records.append(VisitRecord(start=t, end=t + dwell, node=node, landmark=lm))
            t += dwell + float(draw(st.integers(1, 400)))
    return Trace(records, name="hypo")


PROTOCOLS = ["DTN-FLOW", "PROPHET", "SimBet", "PER", "PGR", "GeoComm",
             "Direct", "Epidemic", "SprayWait"]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    trace=traces(),
    proto_idx=st.integers(0, len(PROTOCOLS) - 1),
    ttl=st.integers(200, 5000),
    seed=st.integers(0, 100),
)
def test_conservation_and_deadlines(trace, proto_idx, ttl, seed):
    if trace.n_landmarks < 2:
        return
    name = PROTOCOLS[proto_idx]
    config = SimConfig(
        ttl=float(ttl),
        rate_per_landmark_per_day=5000.0,  # dense relative to tiny horizons
        workload_scale=1.0,
        node_memory_kb=3.0 / 1024.0 * 1024.0,  # 3 packets per node
        packet_size=1024,
        time_unit=max(100.0, trace.duration / 4 or 100.0),
        seed=seed,
        warmup_fraction=0.25,
        contact_prob=0.5,
    )
    sim = Simulation(trace, sim_proto := make_protocol(name), config)
    summary = sim.run()
    world = sim.world

    # unique packet ids still held in some buffer and not yet accounted
    # for: a replica left behind by a delivered or TTL-dropped copy is not
    held = set()
    for holder in list(world.nodes.values()) + list(world.stations.values()):
        for p in holder.buffer:
            if p.in_flight:
                held.add(p.pid)
    held -= world._delivered_pids | world._dropped_pids
    # conservation over unique ids: every generated packet is delivered,
    # TTL-dropped or still held, and exactly one of the three
    assert len(world._delivered_pids) == summary.delivered
    assert len(world._dropped_pids) == summary.dropped_ttl
    assert not world._delivered_pids & world._dropped_pids
    assert summary.delivered + summary.dropped_ttl + len(held) == summary.generated

    # capacity invariant
    for node in world.nodes.values():
        assert node.buffer.used_bytes <= node.buffer.capacity_bytes

    # delays are causal and within TTL (plus jitterless deadline check)
    for d in world.metrics.delays:
        assert 0.0 <= d <= ttl + 1e-6

    # success rate well-formed
    assert 0.0 <= summary.success_rate <= 1.0
