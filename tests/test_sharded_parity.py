"""The sharded kernel: value-for-value parity with the serial engine.

No ``repro`` command shards a point: measured against one serial process
the sharded engine lost at every size (docs/scaling.md), so the serial
engine is the only way ``repro`` runs one.  The kernel,
:func:`repro.eval.sharded.run_sharded_point`, stays as the comparison the
benchmark's ``campus-stream`` workload runs, and this suite keeps it
honest:

* for both ci grids at 2 and 4 shards, every point either matches the
  serial engine value for value or raises :class:`UnshardableTrace` with
  its reason — contact-based, global-state and faulted points raise;
* a shard worker that dies mid-run makes ``run_sharded_point`` raise an
  error naming the shard within seconds, and leaves no child process;
* the handoff plan's invariants hold on a streamed campus trace.

Marked ``slow`` (every test but the plan check).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.eval import sharded
from repro.eval.runner import run_point_specs
from repro.eval.scenario import ScenarioSpec, load_scenario
from repro.eval.sharded import UnshardableTrace, plan_shards, run_sharded_point
from repro.sim.shard import shard_worker

REPO = Path(__file__).resolve().parent.parent
CI = REPO / "ci"

SCENARIOS = [
    CI / "regression-scenario.json",
    CI / "regression-faulted-scenario.json",
]

#: a global-state configuration: the loop-correction hold-down registry
#: spans landmarks, so it cannot split by subarea
GLOBAL_STATE = {"name": "DTN-FLOW", "config": {"enable_loop_correction": True}}


def values(result) -> dict:
    """Metric values only: provenance and phase timings differ by design."""
    out = result.metrics.as_dict()
    out.pop("provenance", None)
    out.pop("phase_timings", None)
    return out


def _sharded(trace, entry, shards, plan):
    _, point, config = entry
    return run_sharded_point(
        trace, point.protocol, config,
        shards=shards, memory_kb=point.memory_kb, rate=point.rate,
        seed=point.seed, protocol_kwargs=point.protocol_kwargs,
        scenario=point.scenario, plan=plan,
    )


@pytest.fixture(scope="module", params=SCENARIOS, ids=lambda p: p.stem)
def grid(request):
    """A ci grid plus a global-state point, its trace, and serial results."""
    spec = load_scenario(str(request.param)).validate()
    extra = ScenarioSpec.from_dict({**spec.as_dict(), "protocols": [GLOBAL_STATE]})
    profile, tspec, _ = spec.resolve_trace()
    entries = spec.entries(profile, tspec) + extra.validate().entries(profile, tspec)
    trace = tspec.materialize()
    serial = run_point_specs(entries, materialized={tspec.key: trace})
    return spec, trace, entries, serial


@pytest.mark.slow
@pytest.mark.parametrize("shards", [2, 4])
def test_every_point_matches_serial_or_says_why_not(grid, shards):
    spec, trace, entries, serial = grid
    plan = plan_shards(trace, shards)
    sharded_points = []
    for entry, want in zip(entries, serial):
        _, point, config = entry
        try:
            result, info = _sharded(trace, entry, shards, plan)
        except UnshardableTrace as exc:
            reason = str(exc)
            if spec.faults is not None:
                assert "fault plans" in reason, (point.protocol, reason)
            elif point.protocol_kwargs:
                assert "does not decompose" in reason, (point.protocol, reason)
            else:
                assert "node-node contacts" in reason, (point.protocol, reason)
            continue
        assert info["execution"]["mode"] == "sharded"
        assert info["execution"]["shards"] == shards
        assert values(result) == values(want), point.protocol
        sharded_points.append(point.protocol)
    # the two station-only protocols shard whenever the grid is unfaulted
    assert sharded_points == ([] if spec.faults else ["DTN-FLOW", "Direct"])


class _DiesAtEpoch1:
    """A worker's pipe end that kills shard 1 as epoch 1 arrives."""

    def __init__(self, conn, shard_id: int) -> None:
        self._conn = conn
        self._shard_id = shard_id

    def recv(self):
        msg = self._conn.recv()
        if self._shard_id == 1 and msg[0] == "epoch" and msg[1] == 1:
            os._exit(1)  # abrupt death: no reply, no cleanup
        return msg

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _worker_dying_at_epoch_1(conn, init) -> None:
    shard_worker(_DiesAtEpoch1(conn, init.shard_id), init)


@pytest.mark.slow
def test_a_dead_shard_worker_fails_the_point_naming_it(tiny_scenario, monkeypatch):
    spec = tiny_scenario(protocols=["DTN-FLOW"]).validate()
    profile, tspec, materialized = spec.resolve_trace()
    (entry,) = spec.entries(profile, tspec)
    trace = materialized[tspec.key]
    plan = plan_shards(trace, 2)
    assert plan.n_epochs > 2, "the point must reach epoch 1"
    before = set(multiprocessing.active_children())
    monkeypatch.setattr(sharded, "shard_worker", _worker_dying_at_epoch_1)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match=r"^shard 1 worker died"):
        _sharded(trace, entry, 2, plan)
    assert time.monotonic() - t0 < 10.0
    assert set(multiprocessing.active_children()) <= before


def test_plan_invariants_on_campus_stream():
    from repro.eval.sharded import plan_shards
    from repro.mobility.synthetic import CampusConfig, CampusMobilityModel

    stream = CampusMobilityModel(
        CampusConfig(n_nodes=60, days=2), seed=3
    ).trace_stream()
    plan = plan_shards(stream, 2)
    cuts = plan.cuts
    assert all(a < b for a, b in zip(cuts, cuts[1:])), "cuts must increase"
    assert plan.n_epochs == len(cuts) + 1
    scheduled = 0
    per_node_epochs: dict = {}
    for shard, exports in enumerate(plan.exports):
        for epoch, items in exports.items():
            assert 0 <= epoch < len(cuts)
            for nid, to_shard, force in items:
                assert to_shard != shard
                scheduled += 1
                per_node_epochs.setdefault(nid, []).append(epoch)
    assert scheduled == plan.n_cross
    # a node's consecutive handoffs land at strictly increasing barriers,
    # so collected across shards its epoch set has no duplicates
    for nid, epochs in per_node_epochs.items():
        assert len(set(epochs)) == len(epochs), (
            f"node {nid}: two handoffs on one epoch barrier"
        )
