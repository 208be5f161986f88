"""Golden trace digests: the built traces are pinned byte for byte.

Every figure replays a trace built by a deterministic generator and the
preprocessing pipeline, so a change to the visit records, the generators
or the preprocessing that alters a trace would otherwise surface only in
the slow metric-parity suite and the CI regression gates.  These digests
(sha256 of :func:`~repro.mobility.io.dumps_trace`) fail it in seconds.
Regenerate them only for a deliberate change to the traces, together with
``ci/regression-baseline.json``.

The bus and campus models each have one motion loop that both their
log-or-visits path and their stream consume, so the digests also pin
configurations the DNET profile never draws (breakdowns, per-route
garages), and the campus model's visits before any preprocessing.

The campus model draws a spoke with ``bisect_right`` over
:func:`~repro.mobility.synthetic.choice_cdf` instead of
``Generator.choice(n, p=w)``; ``choice`` stays here as the reference the
draw must match index for index and generator state for state.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

import numpy as np
import pytest

from repro.eval.config import trace_profile
from repro.mobility.io import dumps_trace
from repro.mobility.synthetic import (
    BusConfig,
    BusMobilityModel,
    CampusConfig,
    CampusMobilityModel,
    choice_cdf,
    dart_like,
)

PROFILE_DIGESTS = {
    ("DART", 1): "c7190b2bee3907533272bbfc6b33e90ca100172b82d2a34d7412f2018a4e2762",
    ("DART", 2): "dfd0f2ac8b0e5dba1ad1dd3d25783475acfc6cf41184354befd4d4e916152dde",
    ("DNET", 1): "9dd5f09387a9f50196b913fd17d00fb15fdda1f7c317aee2f75eb60c74ff7634",
    ("DNET", 2): "1b3a29b999922ff773b2f43b9a37d95a9ac54d70c70f42a1341f8d3437d9e3b9",
}
CAMPUS_STREAM_DIGEST = "11ba8e1274784a95f9c48671356ff225efdec5fefc285d2542f3dfc03aa6fa51"
#: the ``campus-stream`` benchmark's map (``bench/workloads.py``), written
#: out here: 500 nodes over 50 landmarks for 5 days, about 16k records
BENCH_CAMPUS = CampusConfig(
    n_nodes=500, n_departments=10, buildings_per_department=3, n_dorms=12,
    n_dining=4, n_misc=3, days=5, holidays=(),
)
BENCH_CAMPUS_STREAM_DIGESTS = {
    1: "8dc0aa539e3494a5a63e6e5b13f43d2dd358f5c8f93c874505af8491c9460ffb",
    2: "292618fefd43be1e14a46c45f50c64b24fbb38914de593bde165f249faefb33a",
}
BUS_STREAM_DIGEST = "2581287dd6c3dd6fd39efc0aa4e0ff0feedcbb765b9ffc2eca46e3658ebabc7f"

#: bus configs the DNET profile never draws: the Table VI dead-end trace's
#: frequent breakdowns (``deadend_trace``), and one garage per route with
#: a garage trip every other day
BUS_CONFIGS = {
    "breakdowns": (
        BusConfig(n_buses=16, n_stops=12, n_routes=4, days=14, breakdown_prob=0.3),
        11,
    ),
    "route-garages": (
        BusConfig(n_buses=8, n_stops=8, n_routes=3, days=10,
                  shared_garage=False, garage_prob=0.5),
        3,
    ),
}
SIGHTINGS_DIGESTS = {
    "breakdowns": "f3d0d1441d8fd040273c65cb8caac1dba58ee16bf6d1d68493859e3c554c1588",
    "route-garages": "090658413434f901f4fe074958e36a1285a7375c8f3477742aff9b0c3d054ce5",
}
BUS_CONFIG_STREAM_DIGESTS = {
    "breakdowns": "4763df9c0ce0481b19cda488f9cc662a04d5cfd9115451c9e5a8fb1a30cdf944",
    "route-garages": "1b52d97615f3fd3d02671f9ec482ab3c91a5653ea1d7b842dd78aff200c76f00",
}
#: ``dart_like("tiny", seed, preprocess=False)``: ``generate_visits`` as is
CAMPUS_VISITS_DIGESTS = {
    0: "2c389c2a3255792ee279f20aad5766e9b75228fe6f87f0e7c9101e70415226a6",
    1: "24ef908573668beb0b7c9be728c2c813e7300b8b152660ba9538e90f81c40c4f",
}


def digest(trace) -> str:
    return hashlib.sha256(dumps_trace(trace).encode()).hexdigest()


def sightings_digest(sightings) -> str:
    """sha256 over one ``repr`` line per sighting (floats round-trip)."""
    lines = "".join(f"{tuple(s)!r}\n" for s in sightings)
    return hashlib.sha256(lines.encode()).hexdigest()


@pytest.mark.parametrize(("name", "seed"), sorted(PROFILE_DIGESTS))
def test_profile_trace_digest(name, seed):
    trace = trace_profile(name, full_scale=False).build(seed)
    assert digest(trace) == PROFILE_DIGESTS[name, seed]


def test_campus_stream_digest():
    model = CampusMobilityModel(CampusConfig(n_nodes=30, days=4), seed=3)
    assert digest(model.trace_stream().materialize()) == CAMPUS_STREAM_DIGEST


@pytest.mark.parametrize("seed", sorted(BENCH_CAMPUS_STREAM_DIGESTS))
def test_bench_campus_stream_digest(seed):
    model = CampusMobilityModel(BENCH_CAMPUS, seed=seed)
    assert digest(model.trace_stream().materialize()) == BENCH_CAMPUS_STREAM_DIGESTS[seed]


def test_bus_stream_digest():
    config = BusConfig(n_buses=8, n_stops=8, n_routes=3, days=4)
    model = BusMobilityModel(config, seed=3)
    assert digest(model.trace_stream().materialize()) == BUS_STREAM_DIGEST


@pytest.mark.parametrize("name", sorted(BUS_CONFIGS))
def test_bus_sightings_digest(name):
    config, seed = BUS_CONFIGS[name]
    sightings = BusMobilityModel(config, seed=seed).generate_sightings()
    assert sightings_digest(sightings) == SIGHTINGS_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(BUS_CONFIGS))
def test_bus_config_stream_digest(name):
    config, seed = BUS_CONFIGS[name]
    stream = BusMobilityModel(config, seed=seed).trace_stream()
    assert digest(stream.materialize()) == BUS_CONFIG_STREAM_DIGESTS[name]


@pytest.mark.parametrize("seed", sorted(CAMPUS_VISITS_DIGESTS))
def test_campus_visits_digest(seed):
    trace = dart_like("tiny", seed=seed, preprocess=False)
    assert digest(trace) == CAMPUS_VISITS_DIGESTS[seed]


@pytest.mark.parametrize("seed", range(0, 300, 10))
def test_cdf_draw_matches_generator_choice(seed):
    for k in range(2, 8):
        # the model's spoke weights: Dirichlet with a small alpha, skewed
        weights = np.random.default_rng(seed).dirichlet(np.full(k, 0.25))
        cdf = choice_cdf(weights)
        reference = np.random.default_rng(seed + 1)
        drawn = np.random.default_rng(seed + 1)
        picks = [int(reference.choice(k, p=weights)) for _ in range(200)]
        assert [bisect_right(cdf, drawn.random()) for _ in range(200)] == picks
        assert drawn.bit_generator.state == reference.bit_generator.state


def test_cdf_draw_matches_choice_with_zero_weights():
    weights = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
    cdf = choice_cdf(weights)
    reference = np.random.default_rng(7)
    drawn = np.random.default_rng(7)
    picks = [int(reference.choice(5, p=weights)) for _ in range(500)]
    assert [bisect_right(cdf, drawn.random()) for _ in range(500)] == picks
    assert set(picks) == {1, 3}
