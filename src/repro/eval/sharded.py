"""The sharded-run coordinator: N shard processes, one merged result.

Builds on :mod:`repro.sim.shard` (the per-process engine) to run one
experiment point across processes split by landmark subarea:

1. **partition** — landmarks go to shards by greedy visit-count balancing
   (:func:`repro.mobility.stream.landmark_partition`);
2. **plan** — one streaming pass over the records finds every cross-shard
   transit and places epoch cuts by greedy interval stabbing: a cut is
   emitted at a transit's arrival only when no existing cut already falls
   inside its ``[depart, arrive]`` window, so every transit contains at
   least one barrier, at which its node (and nothing else) crosses; a
   visit overlap-closed from another shard hands off at a barrier placed
   exactly at the closing instant, with the departing shard force-closing
   the visit at export time;
3. **execute** — shard workers run epoch-by-epoch over pipes; the
   coordinator routes :class:`~repro.sim.shard.NodeTransitMsg` /
   :class:`~repro.sim.shard.BandwidthReportMsg` pairs between them in
   deterministic (shard, node-id) order;
4. **merge** — delivery samples are replayed in global event order into a
   fresh collector (bit-identical aggregate metrics, float summation
   order included), counters and per-shard phase timings are summed, and
   the shard topology is stamped into the run's provenance ``execution``
   block.

Points the decomposition cannot carry — contact-based or shard-unsafe
protocols, fault plans, traces where a node hops across three shards at a
single instant — raise :class:`UnshardableTrace`.

No ``repro`` command runs this engine: measured against one serial process
it lost at every size (docs/scaling.md), so the serial engine is the only
way ``repro`` runs a point.  The kernel stays as the comparison the
benchmark's ``campus-stream`` workload runs, with its parity test.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import resource
from bisect import bisect_left
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.baselines import make_protocol
from repro.eval.experiment import ExperimentResult
from repro.mobility.stream import TraceStream, landmark_partition
from repro.mobility.trace import Trace, VisitRecord
from repro.obs.provenance import RunProvenance
from repro.sim.engine import _VISIT_END, _VISIT_START, SimConfig
from repro.sim.metrics import MetricsCollector, MetricsSummary
from repro.sim.packets import generate_workload
from repro.sim.shard import PreparedGen, ShardInit, TraceView, shard_worker

__all__ = [
    "UnshardableTrace",
    "ShardPlan",
    "plan_shards",
    "run_sharded_point",
]


class UnshardableTrace(ValueError):
    """The point cannot be split at epoch barriers (see
    :func:`unshardable_reason` and :func:`plan_shards`)."""


RecordsFactory = Callable[[], Iterable[VisitRecord]]


@dataclass
class ShardPlan:
    """The full handoff schedule for one (trace, shard count) pair.

    Reusable across every point on the same trace: cuts and exports depend
    only on the visit records, never on protocol or workload knobs.
    """

    n_shards: int
    shard_of: Dict[int, int]
    cuts: List[float]
    #: node id -> shard owning it before its first visit
    owner0: Dict[int, int]
    #: per shard: epoch index -> [(nid, destination shard, force)], in
    #: stream order; ``force`` is ``None`` for a between-visits handoff or
    #: the ``(t, seq)`` of the overlap-closing start event when the
    #: departing shard must force-close the node's still-open visit
    exports: List[Dict[int, List[Tuple[int, int, Optional[Tuple[float, int]]]]]]
    n_cross: int = 0
    #: per shard: [(global index, record)] — only kept in materialized mode
    shard_records: Optional[List[List[Tuple[int, VisitRecord]]]] = None

    @property
    def n_epochs(self) -> int:
        return len(self.cuts) + 1


def _records_factory(trace: Union[Trace, TraceStream]) -> RecordsFactory:
    if isinstance(trace, TraceStream):
        return trace.iter_records
    return lambda: iter(trace.records)


def plan_shards(
    trace: Union[Trace, TraceStream],
    n_shards: int,
    *,
    collect_records: bool = True,
) -> ShardPlan:
    """Partition landmarks and schedule every cross-shard handoff.

    Two streaming passes: one to count visits per landmark (the partition
    weight), one replaying the engine's per-node visit state machine over
    the globally-sorted event stream — opens, same-landmark extensions,
    overlap-closes and end-closes, exactly as
    :meth:`~repro.sim.engine.Simulation._handle_visit_start` /
    ``_handle_visit_end`` would resolve them — to find each node's
    *effective* visit segments.  A cross-shard move between consecutive
    segments is a transit; cuts are placed by greedy interval stabbing so
    every transit window ``[depart, arrive]`` contains a barrier.

    An *overlap-close across shards* (a visit at landmark A force-closed
    by a visit starting at landmark B on another shard) is a zero-width
    transit: the cut goes exactly at the closing instant and the handoff
    entry carries the closing event's ``(t, seq)`` so the departing shard
    can run the serial engine's ``_end_visit`` at export time.  The one
    structure that still cannot shard is a node whose consecutive handoffs
    collapse onto a single barrier (an instantaneous hop through an
    intermediate shard); that raises :class:`UnshardableTrace`.
    """
    records = _records_factory(trace)
    counts: Dict[int, int] = {}
    for rec in records():
        counts[rec.landmark] = counts.get(rec.landmark, 0) + 1
    shard_of = landmark_partition(counts, n_shards)

    cuts: List[float] = []
    owner0: Dict[int, int] = {}
    exports: List[Dict[int, List[Tuple[int, int, Optional[Tuple[float, int]]]]]] = [
        {} for _ in range(n_shards)
    ]
    shard_records: Optional[List[List[Tuple[int, VisitRecord]]]] = (
        [[] for _ in range(n_shards)] if collect_records else None
    )
    # nid -> [current landmark or None, visit_until]; mirrors the fields the
    # engine keeps on MobileNode, fed the same events in the same order
    state: Dict[int, list] = {}
    # nid -> (depart time, departing shard) for a closed segment awaiting
    # the node's next open (i.e. the node is currently between landmarks)
    pending: Dict[int, Tuple[float, int]] = {}
    # nid -> epoch index of the node's last scheduled handoff; consecutive
    # handoffs must land at strictly increasing barriers or the node would
    # have to hop through an intermediate shard within a single barrier
    last_handoff: Dict[int, int] = {}
    n_cross = 0

    def _schedule(
        nid: int, from_shard: int, to_shard: int, k: int,
        force: Optional[Tuple[float, int]],
    ) -> None:
        nonlocal n_cross
        prev_k = last_handoff.get(nid)
        if prev_k is not None and k <= prev_k:
            raise UnshardableTrace(
                f"node {nid}: consecutive cross-shard handoffs collapse onto "
                f"one epoch barrier (epoch {k}) — the node would hop through "
                "an intermediate shard within a single barrier"
            )
        last_handoff[nid] = k
        n_cross += 1
        exports[from_shard].setdefault(k, []).append((nid, to_shard, force))
    # TraceStream.replay_events is already globally sorted; Trace's variant
    # emits per-record (start, end) pairs in record order and relies on the
    # consumer to sort — the state machine below needs true time order
    events = trace.replay_events(_VISIT_START, _VISIT_END)
    if not isinstance(trace, TraceStream):
        events = sorted(events, key=lambda ev: ev[:3])
    for t, kind, seq, rec in events:
        nid = rec.node
        if kind == _VISIT_START:
            lm = rec.landmark
            shard = shard_of[lm]
            if shard_records is not None:
                shard_records[shard].append((seq // 2, rec))
            st = state.get(nid)
            if st is None:
                st = state[nid] = [None, -float("inf")]
                owner0[nid] = shard
            cur_lm = st[0]
            if cur_lm is not None:
                if cur_lm == lm:
                    # same-landmark extension
                    if rec.end > st[1]:
                        st[1] = rec.end
                    continue
                if shard_of[cur_lm] != shard:
                    # cross-shard overlap-close: the serial engine force-
                    # closes the stale visit *inside* this very start event,
                    # so the node departs and arrives at the same instant.
                    # The cut goes exactly at t — end events at t run before
                    # the barrier, this start after it — and the departing
                    # shard force-closes at export time with this event's
                    # (t, seq) so protocol hooks and metric tags replay in
                    # serial order.
                    if not cuts or cuts[-1] < t:
                        cuts.append(t)
                    _schedule(
                        nid, shard_of[cur_lm], shard, len(cuts) - 1, (t, seq)
                    )
                    st[0], st[1] = lm, rec.end
                    continue
                # overlap-close + reopen, both on this shard: no handoff
                st[0], st[1] = lm, rec.end
                continue
            move = pending.pop(nid, None)
            if move is not None:
                depart, from_shard = move
                if from_shard != shard:
                    if not cuts or depart > cuts[-1]:
                        cuts.append(t)
                        k = len(cuts) - 1
                    else:
                        # covered: the first cut at or after the departure
                        # is guaranteed to fall inside [depart, arrive]
                        k = bisect_left(cuts, depart)
                    _schedule(nid, from_shard, shard, k, None)
            st[0], st[1] = lm, rec.end
        else:  # _VISIT_END
            st = state.get(nid)
            if st is None or st[0] != rec.landmark or t < st[1]:
                continue  # no-op end, exactly as the engine's gate
            pending[nid] = (t, shard_of[st[0]])
            st[0] = None
    return ShardPlan(
        n_shards=n_shards,
        shard_of=shard_of,
        cuts=cuts,
        owner0=owner0,
        exports=exports,
        n_cross=n_cross,
        shard_records=shard_records,
    )


def _prepared_gens(
    trace: Union[Trace, TraceStream], config: SimConfig
) -> List[PreparedGen]:
    """The serial engine's exact workload, with packet ids/TTLs pinned.

    Replays both RNG streams the serial engine consumes — the workload
    generator (``seed + 982451653``) and the TTL-jitter factory
    (``seed + 424243``) — so packet ``k`` of the sharded run carries the
    id, deadline and sequence number the serial run would mint.
    """
    warmup_end = trace.start_time + config.warmup_fraction * trace.duration
    gen_end = trace.start_time + config.generation_end_fraction * trace.duration
    out: List[PreparedGen] = []
    if gen_end <= warmup_end or config.effective_rate <= 0:
        return out
    gen_rng = np.random.default_rng(config.seed + 982451653)
    sources = (
        tuple(config.sources) if config.sources is not None else trace.landmarks
    )
    jitter_rng = np.random.default_rng(config.seed + 424243)
    jitter = config.ttl_jitter
    seq = 2 * len(trace)
    for k, ev in enumerate(
        generate_workload(
            sources,
            rate_per_landmark_per_day=config.effective_rate,
            start=warmup_end,
            end=gen_end,
            rng=gen_rng,
            destinations=config.destinations,
        )
    ):
        ttl = config.ttl
        if jitter > 0:
            ttl *= float(jitter_rng.uniform(1 - jitter, 1 + jitter))
        out.append(PreparedGen(ev.time, seq + k, ev.src, ev.dst, k, ttl))
    return out


def unshardable_reason(
    protocol_name: str,
    protocol_kwargs: Optional[dict],
    config: SimConfig,
    n_shards: int,
    n_landmarks: int,
) -> Tuple[Optional[str], str]:
    """Why this point cannot be sharded (None = shardable) + display name."""
    protocol = make_protocol(protocol_name, **(protocol_kwargs or {}))
    if n_shards > n_landmarks:
        return (
            f"{n_shards} shards but only {n_landmarks} landmark subareas",
            protocol.name,
        )
    if config.faults is not None:
        return ("fault plans need the global event timeline", protocol.name)
    if protocol.uses_contacts:
        return (
            "node-node contacts draw from the global world RNG",
            protocol.name,
        )
    if not protocol.shard_safe:
        return ("protocol state does not decompose by subarea", protocol.name)
    return None, protocol.name


def _run_sharded(
    trace: Union[Trace, TraceStream],
    protocol_name: str,
    config: SimConfig,
    *,
    plan: ShardPlan,
    protocol_kwargs: Optional[dict] = None,
    source_factory: Optional[RecordsFactory] = None,
) -> Tuple[MetricsCollector, Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
    """Run the shard fleet; returns (merged collector, execution, phases, info).

    A worker that dies (its pipe reaches EOF) or reports an exception makes
    this raise a ``RuntimeError`` naming the shard; every worker still
    alive is then terminated, so a failed point leaves no process behind.
    """
    n_shards = plan.n_shards
    t_plan0 = perf_counter()
    gens = _prepared_gens(trace, config)
    gens_by_shard: List[List[PreparedGen]] = [[] for _ in range(n_shards)]
    for gen in gens:
        gens_by_shard[plan.shard_of[gen.src]].append(gen)
    shard_landmarks: List[List[int]] = [[] for _ in range(n_shards)]
    for lm in trace.landmarks:
        shard_landmarks[plan.shard_of[lm]].append(lm)
    shard_nodes: List[List[int]] = [[] for _ in range(n_shards)]
    for nid, shard in plan.owner0.items():
        shard_nodes[shard].append(nid)
    plan_seconds = perf_counter() - t_plan0

    if source_factory is None and plan.shard_records is None:
        raise ValueError("plan has no shard_records and no source_factory given")
    ctx = multiprocessing.get_context()
    pipes: List[Any] = []
    procs: List[Any] = []
    t_run0 = perf_counter()

    def _send(s: int, msg: tuple) -> None:
        try:
            pipes[s].send(msg)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise RuntimeError(f"shard {s} worker died: {exc!r}") from exc

    def _recv(s: int):
        try:
            msg = pipes[s].recv()
        except (EOFError, ConnectionResetError, OSError) as exc:
            raise RuntimeError(f"shard {s} worker died: {exc!r}") from exc
        if msg[0] == "error":
            raise RuntimeError(f"shard {s} failed:\n{msg[1]}")
        return msg

    try:
        for s in range(n_shards):
            view = TraceView(
                name=trace.name,
                start_time=trace.start_time,
                end_time=trace.end_time,
                nodes=tuple(sorted(shard_nodes[s])),
                landmarks=tuple(shard_landmarks[s]),
                n_records=len(trace),
            )
            init = ShardInit(
                shard_id=s,
                view=view,
                config=config,
                protocol_name=protocol_name,
                protocol_kwargs=protocol_kwargs,
                cuts=plan.cuts,
                exports=plan.exports[s],
                gens=gens_by_shard[s],
                records=(
                    plan.shard_records[s] if source_factory is None else None
                ),
                source=source_factory,
                shard_of=plan.shard_of if source_factory is not None else None,
            )
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=shard_worker, args=(child_conn, init), daemon=True)
            proc.start()
            # the worker holds the only other end, so its death reads as EOF
            child_conn.close()
            pipes.append(parent_conn)
            procs.append(proc)

        pending: List[list] = [[] for _ in range(n_shards)]
        for k in range(plan.n_epochs):
            for s in range(n_shards):
                _send(s, ("epoch", k, pending[s]))
            incoming: List[list] = [[] for _ in range(n_shards)]
            for s in range(n_shards):
                msg = _recv(s)
                if msg[0] != "epoch_done" or msg[1] != k:
                    raise RuntimeError(
                        f"shard {s}: unexpected barrier reply {msg[:2]}"
                    )
                for to_shard, items in msg[2].items():
                    incoming[to_shard].extend(items)
            # deterministic application order regardless of sender shard
            for batch in incoming:
                batch.sort(key=lambda pair: pair[0].nid)
            pending = incoming

        for s in range(n_shards):
            _send(s, ("finish",))
        payloads = [_recv(s)[1] for s in range(n_shards)]
        for proc in procs:
            proc.join()
    finally:
        for pipe in pipes:
            pipe.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
    run_seconds = perf_counter() - t_run0

    # -- merge ---------------------------------------------------------------
    t_merge0 = perf_counter()
    merged = MetricsCollector(
        table_entry_unit=config.table_entry_unit,
        experiment_duration=trace.duration,
    )
    samples: List[tuple] = []
    for payload in payloads:
        samples.extend(payload["samples"])
    # (t, kind, seq, intra) is the serial dispatch order; replaying in that
    # order rebuilds the delay list with identical float summation order
    samples.sort()
    for _t, _kind, _seq, _intra, delay, hops, dst in samples:
        merged.on_delivered(delay, dst, hops=hops)
    merged._generated.inc(sum(p["generated"] for p in payloads))
    merged._forwarding.inc(sum(p["forwarding_ops"] for p in payloads))
    merged._maintenance.inc(sum(p["maintenance_ops"] for p in payloads))
    merged._dropped_ttl.inc(sum(p["dropped_ttl"] for p in payloads))
    merge_seconds = perf_counter() - t_merge0

    # -- flat phase timings -----------------------------------------------------
    phases: Dict[str, Dict[str, float]] = {
        "shard.plan": {"seconds": plan_seconds, "calls": 1},
        "shard.run": {"seconds": run_seconds, "calls": 1},
        "shard.merge": {"seconds": merge_seconds, "calls": 1},
    }
    for payload in payloads:
        for name, info in payload["phase_timings"].items():
            slot = phases.setdefault(name, {"seconds": 0.0, "calls": 0})
            slot["seconds"] += info["seconds"]
            slot["calls"] += int(info["calls"])

    execution: Dict[str, Any] = {
        "mode": "sharded",
        "shards": n_shards,
        "epochs": plan.n_epochs,
        "cross_shard_transits": plan.n_cross,
        "landmarks_per_shard": [len(lms) for lms in shard_landmarks],
    }
    info: Dict[str, Any] = {
        "execution": execution,
        "max_rss_kb": {
            "coordinator": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "shards": [p["max_rss_kb"] for p in payloads],
        },
        "n_events": sum(p["n_events"] for p in payloads),
    }
    return merged, execution, phases, info


def _stamped_summary(
    merged: MetricsCollector,
    display_name: str,
    trace_name: str,
    config: SimConfig,
    scenario: Optional[dict],
    execution: Dict[str, Any],
    phases: Optional[Dict[str, Dict[str, float]]],
) -> MetricsSummary:
    provenance = RunProvenance.from_run(
        display_name, trace_name, config, scenario=scenario
    )
    provenance = dataclasses.replace(provenance, execution=execution)
    return merged.summary(
        display_name, trace_name, provenance=provenance, phase_timings=phases
    )


def run_sharded_point(
    trace: Union[Trace, TraceStream],
    protocol_name: str,
    config: SimConfig,
    *,
    shards: int,
    memory_kb: float,
    rate: float,
    seed: int,
    protocol_kwargs: Optional[dict] = None,
    scenario: Optional[dict] = None,
    plan: Optional[ShardPlan] = None,
    source_factory: Optional[RecordsFactory] = None,
) -> Tuple[ExperimentResult, Dict[str, Any]]:
    """Run one point across ``shards`` processes; raises when unshardable.

    Pass ``source_factory`` (a fresh-record-iterator factory) to run in
    streaming mode: workers regenerate the stream and keep only their own
    subarea's records, so no process ever materializes the full trace.
    A dead shard worker raises a ``RuntimeError`` naming the shard (see
    :func:`_run_sharded`).
    """
    reason, display_name = unshardable_reason(
        protocol_name, protocol_kwargs, config, shards, trace.n_landmarks
    )
    if reason is not None:
        raise UnshardableTrace(reason)
    if plan is None:
        plan = plan_shards(trace, shards, collect_records=source_factory is None)
    merged, execution, phases, info = _run_sharded(
        trace,
        protocol_name,
        config,
        plan=plan,
        protocol_kwargs=protocol_kwargs,
        source_factory=source_factory,
    )
    summary = _stamped_summary(
        merged, display_name, trace.name, config, scenario, execution, phases
    )
    result = ExperimentResult(
        protocol=protocol_name,
        trace=trace.name,
        memory_kb=memory_kb,
        rate=rate,
        seed=seed,
        metrics=summary,
    )
    return result, info
