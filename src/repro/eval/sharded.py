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
   order included), counters are summed, per-shard span trees fold into
   one tree, and the shard topology is stamped into the run's provenance
   ``execution`` block.

Points the decomposition cannot carry — contact-based or shard-unsafe
protocols, fault plans, traces where a node hops across three shards at a
single instant — fall back to the serial engine, marked
``serial-fallback`` in provenance, so a sharded scenario run always
completes with identical metrics.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import resource
import time
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.baselines import make_protocol
from repro.eval.experiment import ExperimentResult, execute_config
from repro.mobility.stream import TraceStream, landmark_partition
from repro.mobility.trace import Trace, VisitRecord
from repro.obs import events as event_types
from repro.obs.provenance import RunProvenance
from repro.obs.spans import SpanRecorder
from repro.sim.checkpoint import (
    CheckpointError,
    RecoveryLog,
    dump_checkpoint,
    read_frame,
    try_load_checkpoint,
)
from repro.sim.engine import _VISIT_END, _VISIT_START, SimConfig
from repro.sim.metrics import MetricsCollector, MetricsSummary
from repro.sim.packets import generate_workload
from repro.sim.shard import PreparedGen, ShardInit, TraceView, shard_worker

if TYPE_CHECKING:
    from repro.eval.runner import PointSpec

__all__ = [
    "UnshardableTrace",
    "ShardRecoveryError",
    "ShardPlan",
    "plan_shards",
    "run_sharded_point",
    "execute_point_sharded",
]

#: supervised restarts of one shard worker before the point falls back to
#: the serial engine
MAX_RESTARTS = 2


class UnshardableTrace(ValueError):
    """The trace's visit structure cannot be split at epoch barriers."""


class ShardRecoveryError(RuntimeError):
    """Supervised recovery of a shard fleet was exhausted or impossible.

    Raised by the coordinator after bounded restarts fail (or when a dead
    worker has no checkpoint to restart from); callers fall back to the
    serial engine exactly like an :class:`UnshardableTrace` point.
    """


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
    intermediate shard); that raises :class:`UnshardableTrace` and callers
    fall back to the serial engine.
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
    """Why this point must run serially (None = shardable) + display name."""
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


class _ShardDead(Exception):
    """Internal: a shard worker died."""

    def __init__(self, shard: int, why: str) -> None:
        super().__init__(f"shard {shard}: {why}")
        self.shard = shard
        self.why = why


def _find_resume_epoch(
    checkpoint_dir: Path, n_shards: int
) -> Optional[Tuple[int, List[list], List[str]]]:
    """Newest barrier whose commit record *and* all shard checkpoints verify.

    Returns ``(epoch, pending imports for epoch+1, shard checkpoint paths)``
    or None for a fresh start.  A truncated/corrupt file (chaos, crash
    mid-write) simply disqualifies that barrier and the previous one is
    tried — the framing makes partial state indistinguishable from absent.
    """
    for record_path in sorted(checkpoint_dir.glob("barrier-*.ckpt"), reverse=True):
        state = try_load_checkpoint(record_path)
        if state is None:
            continue
        epoch = int(state["epoch"])
        paths = [
            checkpoint_dir / f"shard{s}" / f"epoch-{epoch:06d}.ckpt"
            for s in range(n_shards)
        ]
        try:
            for p in paths:
                read_frame(p)
        except CheckpointError:
            continue
        return epoch, state["pending"], [str(p) for p in paths]
    return None


def _run_sharded(
    trace: Union[Trace, TraceStream],
    protocol_name: str,
    config: SimConfig,
    *,
    plan: ShardPlan,
    protocol_kwargs: Optional[dict] = None,
    source_factory: Optional[RecordsFactory] = None,
    checkpoint_dir: Optional["Path | str"] = None,
    recovery: Optional[RecoveryLog] = None,
    restart_backoff: float = 0.5,
    chaos_kill: Optional[Tuple[int, int]] = None,
) -> Tuple[MetricsCollector, Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
    """Run the shard fleet; returns (merged collector, execution, phases, tree).

    With ``checkpoint_dir`` set the fleet is crash-safe: every worker
    commits a framed checkpoint at each epoch barrier (before its
    ``epoch_done`` reply), the coordinator commits a barrier record (the
    routed imports for the next epoch) once all replies are in, and a
    fresh coordinator resumes from the newest fully-verified barrier.
    The supervisor restarts dead workers (pipe EOF) from the previous
    barrier's checkpoint with exponential backoff, at most
    :data:`MAX_RESTARTS` times per shard, then raises
    :class:`ShardRecoveryError` for the caller's serial fallback.
    ``chaos_kill=(shard, epoch)`` arms the worker-side chaos injection
    (stripped on restart so recovery converges).
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

    ckpt_root = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if ckpt_root is not None:
        ckpt_root.mkdir(parents=True, exist_ok=True)

    ctx = multiprocessing.get_context()
    inits: List[ShardInit] = []
    pipes: List[Any] = [None] * n_shards
    procs: List[Any] = [None] * n_shards
    restarts = [0] * n_shards
    t_run0 = perf_counter()

    if source_factory is None and plan.shard_records is None:
        raise ValueError("plan has no shard_records and no source_factory given")
    for s in range(n_shards):
        view = TraceView(
            name=trace.name,
            start_time=trace.start_time,
            end_time=trace.end_time,
            nodes=tuple(sorted(shard_nodes[s])),
            landmarks=tuple(shard_landmarks[s]),
            n_records=len(trace),
        )
        inits.append(
            ShardInit(
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
                checkpoint_dir=(
                    str(ckpt_root / f"shard{s}") if ckpt_root is not None else None
                ),
                chaos_exit_epoch=(
                    chaos_kill[1] if chaos_kill is not None and chaos_kill[0] == s
                    else None
                ),
            )
        )

    def _spawn(s: int, *, start_epoch: int = 0,
               resume_from: Optional[str] = None, strip_chaos: bool = False) -> None:
        init = inits[s]
        if start_epoch or resume_from or strip_chaos:
            init = dataclasses.replace(
                init,
                start_epoch=start_epoch,
                resume_from=resume_from,
                chaos_exit_epoch=None if strip_chaos else init.chaos_exit_epoch,
            )
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=shard_worker, args=(child_conn, init), daemon=True)
        proc.start()
        child_conn.close()
        pipes[s] = parent_conn
        procs[s] = proc

    def _send(s: int, msg: tuple) -> None:
        try:
            pipes[s].send(msg)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise _ShardDead(s, f"send failed: {exc!r}") from exc

    def _recv(s: int):
        try:
            msg = pipes[s].recv()
        except (EOFError, ConnectionResetError, OSError) as exc:
            raise _ShardDead(s, f"worker died: {exc!r}") from exc
        if msg[0] == "error":
            raise RuntimeError(f"shard {s} failed:\n{msg[1]}")
        return msg

    def _restart(s: int, epoch: int, why: str) -> None:
        """Replace a dead worker, restored to the state before ``epoch``."""
        if recovery is not None:
            recovery.emit(event_types.EXECUTOR_WORKER_DEAD,
                          shard=s, epoch=epoch, reason=why)
        restarts[s] += 1
        if restarts[s] > MAX_RESTARTS:
            raise ShardRecoveryError(
                f"shard {s} died {restarts[s]} times (epoch {epoch}: {why}); "
                f"giving up after {MAX_RESTARTS} restarts"
            )
        resume_from: Optional[str] = None
        if epoch > 0:
            if ckpt_root is None:
                raise ShardRecoveryError(
                    f"shard {s} died at epoch {epoch} ({why}) and "
                    "checkpointing is off — nothing to restart from"
                )
            path = ckpt_root / f"shard{s}" / f"epoch-{epoch - 1:06d}.ckpt"
            try:
                read_frame(path)
            except CheckpointError as exc:
                raise ShardRecoveryError(
                    f"shard {s} died at epoch {epoch} ({why}) and its "
                    f"checkpoint is unusable: {exc}"
                ) from exc
            resume_from = str(path)
        proc = procs[s]
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        if pipes[s] is not None:
            pipes[s].close()
        backoff = restart_backoff * (2 ** (restarts[s] - 1))
        time.sleep(backoff)
        _spawn(s, start_epoch=epoch, resume_from=resume_from, strip_chaos=True)
        if recovery is not None:
            recovery.emit(event_types.EXECUTOR_WORKER_RESTART,
                          shard=s, epoch=epoch, attempt=restarts[s],
                          backoff_seconds=backoff)

    try:
        start_epoch = 0
        pending: List[list] = [[] for _ in range(n_shards)]
        resume_ckpts: List[Optional[str]] = [None] * n_shards
        if ckpt_root is not None:
            resumed = _find_resume_epoch(ckpt_root, n_shards)
            if resumed is not None:
                epoch, pending, paths = resumed
                start_epoch = epoch + 1
                resume_ckpts = list(paths)
                if recovery is not None:
                    recovery.emit(event_types.EXECUTOR_RESUME,
                                  epoch=epoch, shards=n_shards)
        for s in range(n_shards):
            _spawn(s, start_epoch=start_epoch, resume_from=resume_ckpts[s])

        for k in range(start_epoch, plan.n_epochs):
            for s in range(n_shards):
                try:
                    _send(s, ("epoch", k, pending[s]))
                except _ShardDead as exc:
                    _restart(s, k, exc.why)
                    _send(s, ("epoch", k, pending[s]))
            incoming: List[list] = [[] for _ in range(n_shards)]
            for s in range(n_shards):
                while True:
                    try:
                        msg = _recv(s)
                        break
                    except _ShardDead as exc:
                        _restart(s, k, exc.why)
                        _send(s, ("epoch", k, pending[s]))
                if msg[0] != "epoch_done" or msg[1] != k:
                    raise RuntimeError(
                        f"shard {s}: unexpected barrier reply {msg[:2]}"
                    )
                for to_shard, items in msg[2].items():
                    incoming[to_shard].extend(items)
            # deterministic application order regardless of sender shard
            for batch in incoming:
                batch.sort(key=lambda pair: pair[0].nid)
            if ckpt_root is not None:
                # barrier commit record: with this + every shard's epoch-k
                # checkpoint on disk, a fresh coordinator restarts at k+1
                dump_checkpoint(
                    ckpt_root / f"barrier-{k:06d}.ckpt",
                    {"epoch": k, "pending": incoming},
                )
                if recovery is not None:
                    recovery.emit(event_types.EXECUTOR_CHECKPOINT,
                                  epoch=k, kind="barrier")
                for old in sorted(ckpt_root.glob("barrier-*.ckpt"))[:-2]:
                    try:
                        old.unlink()
                    except OSError:  # pragma: no cover - best-effort prune
                        pass
            pending = incoming

        payloads: List[Optional[dict]] = [None] * n_shards
        for s in range(n_shards):
            try:
                _send(s, ("finish",))
            except _ShardDead as exc:
                _restart(s, plan.n_epochs, exc.why)
                _send(s, ("finish",))
        for s in range(n_shards):
            while True:
                try:
                    payloads[s] = _recv(s)[1]
                    break
                except _ShardDead as exc:
                    _restart(s, plan.n_epochs, exc.why)
                    _send(s, ("finish",))
        for proc in procs:
            proc.join()
    finally:
        for pipe in pipes:
            if pipe is not None:
                pipe.close()
        for proc in procs:
            if proc is not None and proc.is_alive():
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

    # -- merged span tree and flat phase timings ------------------------------
    recorder = SpanRecorder()
    run_node = recorder.node("sharded_run", recorder.root)
    recorder.fold(run_node, plan_seconds + run_seconds + merge_seconds, 1)
    recorder.fold(run_node.child("plan"), plan_seconds, 1)
    recorder.fold(run_node.child("merge"), merge_seconds, 1)
    phases: Dict[str, Dict[str, float]] = {
        "shard.plan": {"seconds": plan_seconds, "calls": 1},
        "shard.run": {"seconds": run_seconds, "calls": 1},
        "shard.merge": {"seconds": merge_seconds, "calls": 1},
    }
    for payload in payloads:
        shard_node = run_node.child(f"shard{payload['shard']}")
        for name, info in payload["phase_timings"].items():
            recorder.fold(
                shard_node.child(name), info["seconds"], int(info["calls"])
            )
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
    if any(restarts):
        execution["worker_restarts"] = list(restarts)
    if start_epoch:
        execution["resumed_at_epoch"] = start_epoch
    info: Dict[str, Any] = {
        "execution": execution,
        "span_tree": recorder.tree(recorder.root),
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
    checkpoint_dir: Optional["Path | str"] = None,
    recovery: Optional[RecoveryLog] = None,
    restart_backoff: float = 0.5,
    chaos_kill: Optional[Tuple[int, int]] = None,
) -> Tuple[ExperimentResult, Dict[str, Any]]:
    """Run one point across ``shards`` processes; raises when unshardable.

    Pass ``source_factory`` (a fresh-record-iterator factory) to run in
    streaming mode: workers regenerate the stream and keep only their own
    subarea's records, so no process ever materializes the full trace.
    The crash-safety knobs (``checkpoint_dir`` onwards) are documented on
    :func:`_run_sharded`.
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
        checkpoint_dir=checkpoint_dir,
        recovery=recovery,
        restart_backoff=restart_backoff,
        chaos_kill=chaos_kill,
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


def _stamp_execution(
    result: ExperimentResult, execution: Dict[str, Any]
) -> ExperimentResult:
    """Attach an execution block to an already-built serial result."""
    prov = result.metrics.provenance
    if prov is None:  # pragma: no cover - execute_config always stamps one
        return result
    summary = dataclasses.replace(
        result.metrics, provenance=dataclasses.replace(prov, execution=execution)
    )
    return dataclasses.replace(result, metrics=summary)


def execute_point_sharded(
    trace: Trace,
    point: PointSpec,
    config: SimConfig,
    *,
    shards: int,
    plan_cache: Optional[Dict[int, Any]] = None,
    checkpoint_dir: Optional["Path | str"] = None,
    recovery: Optional[RecoveryLog] = None,
    restart_backoff: float = 0.5,
    chaos_kill: Optional[Tuple[int, int]] = None,
    serial_checkpointer=None,
) -> Tuple[ExperimentResult, Dict[str, Any]]:
    """One scenario point, sharded when possible, serial otherwise.

    ``plan_cache`` (keyed by shard count) reuses the handoff schedule and
    record buckets across every point of one scenario — the plan depends
    only on the trace.  Serial fallbacks are marked in the provenance
    ``execution`` block but produce byte-identical metric values, so
    regression baselines hold either way.  The crash-safety knobs are
    documented on :func:`_run_sharded`; ``serial_checkpointer`` makes the
    serial path (fallback or unshardable) crash-safe too.  Exhausted
    shard-worker recovery (:class:`ShardRecoveryError`) falls back to the
    serial engine like any unshardable point.
    """
    reason, _ = unshardable_reason(
        point.protocol, point.protocol_kwargs, config, shards, trace.n_landmarks
    )
    if reason is None:
        plan: Optional[ShardPlan] = None
        cache_hit = plan_cache is not None and shards in plan_cache
        if cache_hit:
            plan = plan_cache[shards]
        try:
            if plan is None:
                plan = plan_shards(trace, shards)
                if plan_cache is not None:
                    plan_cache[shards] = plan
            if isinstance(plan, UnshardableTrace):
                raise plan
            return run_sharded_point(
                trace,
                point.protocol,
                config,
                shards=shards,
                memory_kb=point.memory_kb,
                rate=point.rate,
                seed=point.seed,
                protocol_kwargs=point.protocol_kwargs,
                scenario=point.scenario,
                plan=plan,
                checkpoint_dir=checkpoint_dir,
                recovery=recovery,
                restart_backoff=restart_backoff,
                chaos_kill=chaos_kill,
            )
        except UnshardableTrace as exc:
            reason = str(exc)
            if plan_cache is not None and shards not in plan_cache:
                plan_cache[shards] = exc  # don't re-plan a hopeless trace
        except ShardRecoveryError as exc:
            reason = str(exc)
            if recovery is not None:
                recovery.emit(event_types.EXECUTOR_FALLBACK, reason=reason)
    result = execute_config(
        trace,
        point.protocol,
        config,
        memory_kb=point.memory_kb,
        rate=point.rate,
        seed=point.seed,
        protocol_kwargs=point.protocol_kwargs,
        scenario=point.scenario,
        checkpointer=serial_checkpointer,
    )
    execution = {"mode": "serial-fallback", "shards": shards, "reason": reason}
    return _stamp_execution(result, execution), {
        "execution": execution,
        "span_tree": None,
        "max_rss_kb": None,
    }
