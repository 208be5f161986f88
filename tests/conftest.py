"""Shared fixtures: small cached traces and experiment configs.

Traces are session-scoped — generation plus preprocessing is the expensive
part of most tests, and traces are immutable.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import repro
from repro.mobility import dart_like, deployment_trace, dnet_like
from repro.mobility.trace import Trace, VisitRecord, days
from repro.sim.engine import SimConfig


@pytest.fixture(scope="session")
def child_env() -> dict:
    """The environment for a child interpreter importing this ``repro``."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


@pytest.fixture(scope="session")
def dart_tiny() -> Trace:
    return dart_like("tiny", seed=1)


@pytest.fixture(scope="session")
def dnet_tiny() -> Trace:
    return dnet_like("tiny", seed=1)


@pytest.fixture(scope="session")
def dart_small() -> Trace:
    return dart_like("small", seed=1)


@pytest.fixture(scope="session")
def dnet_small() -> Trace:
    return dnet_like("small", seed=1)


@pytest.fixture(scope="session")
def deployment() -> Trace:
    return deployment_trace(days=3, seed=7)


@pytest.fixture(scope="session")
def tiny_scenario(tmp_path_factory):
    """Build scenarios over the tiny DART trace (seed 1), saved as a CSV.

    The ``sim`` block reproduces the workload of the tests' ad-hoc tiny
    profile (TTL 4 d, time unit 2 d, workload scale 0.02 at the default
    memory pressure 0.25), so a grid declared this way runs exactly what
    the in-memory trace runs.  Keyword arguments are manifest keys;
    ``sim`` entries merge into the block, and the seeds default to [0].
    """
    from repro.eval.scenario import ScenarioSpec
    from repro.mobility.io import dump_trace

    path = tmp_path_factory.mktemp("tiny-trace") / "dart_tiny.csv"
    dump_trace(dart_like("tiny", seed=1), path)

    def make(*, sim=None, **manifest):
        block = {
            "ttl": days(4.0),
            "time_unit": days(2.0),
            "workload_scale": 0.02,
            "memory_scale": 0.02 * 0.25,
            **(sim or {}),
        }
        return ScenarioSpec.from_dict(
            {"trace": {"path": str(path)}, "sim": block, "seeds": [0], **manifest}
        )

    return make


@pytest.fixture(scope="session")
def tiny_sweep(tiny_scenario):
    """Run a single-seed sweep over the tiny trace; returns its SweepResult.

    ``tiny_sweep(parameter, values, protocols, jobs=1, **sim)``.
    """
    from repro.eval.scenario import run_scenario

    def run(parameter, values, protocols, *, jobs=1, **sim):
        spec = tiny_scenario(
            protocols=list(protocols), sim=sim,
            sweep={"parameter": parameter, "values": list(values)},
        )
        return run_scenario(spec, jobs=jobs).sweep_result()

    return run


@pytest.fixture
def tiny_sim_config() -> SimConfig:
    """A light workload suitable for the tiny traces."""
    return SimConfig(
        ttl=days(5.0),
        rate_per_landmark_per_day=200.0,
        workload_scale=0.02,
        time_unit=days(2.0),
        seed=5,
        contact_prob=0.3,
    )


def make_two_landmark_trace() -> Trace:
    """A deterministic two-landmark shuttle trace used by unit tests.

    Node 0 oscillates A(=0) -> B(=1) -> A ... every 2 hours with 1 h visits;
    node 1 does the same in the opposite phase.  20 days long.
    """
    recs = []
    hour = 3600.0
    for day in range(20):
        base = day * 24 * hour
        for k in range(6):
            t = base + k * 4 * hour
            recs.append(VisitRecord(start=t, end=t + hour, node=0, landmark=k % 2))
            recs.append(VisitRecord(start=t + 2 * hour, end=t + 3 * hour, node=1, landmark=(k + 1) % 2))
    return Trace(recs, name="shuttle")


@pytest.fixture(scope="session")
def shuttle_trace() -> Trace:
    return make_two_landmark_trace()
