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
