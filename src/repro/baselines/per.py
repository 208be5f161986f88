"""PER — Predict and Relay (Yuan, Cardei & Wu, MobiHoc 2009), landmark form.

PER models each node's mobility as a time-homogeneous semi-Markov process
over landmarks: a transit probability matrix plus sojourn-time statistics.
The utility of a node for destination landmark ``L`` is the probability that
the node *visits L before the packet's deadline*, computed by dynamic
programming over the node's transition matrix with the destination made
absorbing; the number of steps available is the remaining TTL divided by the
node's mean step time (mean sojourn + mean travel).

Because this probability changes every time the node moves (its current
state changes), carriers are re-ranked constantly — the behaviour behind
PER's highest forwarding cost in the paper's experiments.
"""

from __future__ import annotations

from math import inf
from typing import Dict, Optional, Tuple

from repro.baselines.base import UtilityProtocol
from repro.mobility.trace import days
from repro.sim.engine import World
from repro.sim.entities import LandmarkStation, MobileNode

#: longest horizon, in transits, the reachability DP looks ahead
MAX_STEPS = 64
#: step time assumed for a node with no observed sojourn or travel yet
DEFAULT_STEP_TIME = days(0.25)
#: horizons are quantised to this many steps so deadline jitter doesn't
#: defeat the DP cache
STEP_QUANTUM = max(1, MAX_STEPS // 8)


class _SemiMarkov:
    """Per-node semi-Markov mobility statistics.

    Normalized transition rows and the mean step time are memoized and
    invalidated *at the mutation site* (``record_visit`` touches exactly one
    row; both recorders move the timing sums), so reads always see the same
    values the historical recompute-per-call code produced — this pair of
    computations dominated whole-run CPU time before the caches.  The rows
    are left out of a pickle (a checkpoint) and rebuilt on demand after it
    loads.
    """

    __slots__ = (
        "trans",
        "sojourn_total",
        "sojourn_n",
        "step_total",
        "step_n",
        "last",
        "version",
        "edge_epoch",
        "_norm",
        "_mean_step",
    )

    def __init__(self) -> None:
        self.trans: Dict[int, Dict[int, int]] = {}
        self.sojourn_total = 0.0
        self.sojourn_n = 0
        self.step_total = 0.0
        self.step_n = 0
        self.last: Optional[Tuple[int, float]] = None  # (landmark, depart time)
        #: bumped on every transition-matrix mutation.  While a node sits at
        #: a station its model is frozen, so DP state computed during the
        #: visit can be resumed by every later query of the same visit.
        self.version = 0
        #: bumped only when a transit adds a *new* edge to the graph.
        #: Counts only ever increment, so the edge set — and with it
        #: landmark-to-landmark reachability — grows monotonically and can
        #: be memoized against this epoch.
        self.edge_epoch = 0
        #: landmark -> normalized transition row as ``(landmark, p)``
        #: pairs in ``trans`` order (shared, treat as read-only)
        self._norm: Dict[int, Tuple[Tuple[int, float], ...]] = {}
        self._mean_step: Optional[Tuple[float, float]] = None  # (default, value)

    def __getstate__(self) -> Tuple[None, Dict[str, object]]:
        # the slot-state form a slotted class pickles by default, so one
        # ``__setstate__`` reads snapshots written with or without the rows
        return None, {
            name: getattr(self, name) for name in self.__slots__ if name != "_norm"
        }

    def __setstate__(self, state: Tuple[None, Dict[str, object]]) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._norm = {}

    def record_visit(self, landmark: int, start: float) -> None:
        if self.last is not None:
            prev, depart = self.last
            if prev != landmark:
                row = self.trans.setdefault(prev, {})
                if landmark not in row:
                    self.edge_epoch += 1
                row[landmark] = row.get(landmark, 0) + 1
                self.step_total += max(0.0, start - depart)
                self.step_n += 1
                self._norm.pop(prev, None)
                self._mean_step = None
                self.version += 1
        self.last = None  # closed on departure

    def record_departure(self, landmark: int, arrive: float, depart: float) -> None:
        self.sojourn_total += max(0.0, depart - arrive)
        self.sojourn_n += 1
        self.last = (landmark, depart)
        self._mean_step = None

    def mean_step_time(self, default: float) -> float:
        """Mean sojourn + mean travel per transit."""
        cached = self._mean_step
        if cached is not None and cached[0] == default:
            return cached[1]
        sojourn = self.sojourn_total / self.sojourn_n if self.sojourn_n else default
        travel = self.step_total / self.step_n if self.step_n else 0.0
        step = sojourn + travel
        value = step if step > 0 else default
        self._mean_step = (default, value)
        return value

    def transition_row(self, landmark: int) -> Tuple[Tuple[int, float], ...]:
        cached = self._norm.get(landmark)
        if cached is not None:
            return cached
        row = self.trans.get(landmark)
        if not row:
            norm: Tuple[Tuple[int, float], ...] = ()
        else:
            total = sum(row.values())
            norm = tuple([(dst, c / total) for dst, c in row.items()])
        self._norm[landmark] = norm
        return norm


class PERProtocol(UtilityProtocol):
    """PER with landmark destinations and deadline-aware utilities."""

    name = "PER"
    #: the DP cache is deliberately stale (observed behaviour): a smaller
    #: steps-bucket can serve an *older, higher* value after a larger bucket
    #: returned 0.0, so utilities are not monotone in time and the generic
    #: single-packet fast path is unsound.  PER instead uses a sharper
    #: criterion (see ``on_packet_generated``): between generation events a
    #: queued packet's utilities — and the cache keys its evaluation would
    #: touch — can only change when its deadline horizon crosses a
    #: steps-bucket boundary, and each full scan records the earliest such
    #: crossing.
    time_monotone_utilities = False

    def __init__(self) -> None:
        self._models: Dict[int, _SemiMarkov] = {}
        # (node, at_landmark, dest, steps) -> probability
        self._cache: Dict[Tuple[int, Optional[int], int, int], float] = {}
        # (node, here, dest) -> (model version, steps run, dist, absorbed,
        # terminal) — the DP's *state* after `steps run` transits.  A later
        # query over the same *unmutated* model (the common case: every
        # query during one visit, since a node's model only changes when it
        # transits) resumes from here instead of recomputing from step 0;
        # the continued iterations perform the identical operation sequence
        # a from-scratch run would, so results are bit-identical.  Unlike
        # `_cache` (whose deliberate staleness is part of observed behaviour
        # and must not change), entries here are never reused across model
        # mutations.
        self._dp_state: Dict[
            Tuple[int, int, int],
            Tuple[int, int, Dict[int, float], float, bool],
        ] = {}
        # node -> (edge epoch, reverse adjacency of its transit graph)
        self._rev: Dict[int, Tuple[int, Dict[int, list]]] = {}
        # (node, dest) -> (edge epoch, landmarks from which dest is
        # reachable).  When the carrier's position is not in the set, no
        # trajectory ever hits dest and the DP would return exactly 0.0 —
        # the dominant case in practice (most packets are bound for
        # landmarks outside the carrier's roaming area), skipped outright.
        self._reach: Dict[Tuple[int, int], Tuple[int, frozenset]] = {}
        # station lid -> earliest t at which any queued packet's steps
        # bucket (for any connected node) can change; until then a repeat
        # full scan would be a pure cache-hit replay with no transfers and
        # no new cache entries, so generation events skip it
        self._next_recheck: Dict[int, float] = {}

    #: tables that only memoize values derivable from the models, so they
    #: never change a result: a pickle (a checkpoint) leaves them out and
    #: an unpickled protocol starts them empty.  ``_cache`` is not one of
    #: them, because its staleness is part of the observed behaviour.
    _MEMOS = ("_dp_state", "_rev", "_reach")

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        for name in self._MEMOS:
            state.pop(name, None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        for name in self._MEMOS:
            setattr(self, name, {})

    def _model(self, nid: int) -> _SemiMarkov:
        m = self._models.get(nid)
        if m is None:
            m = _SemiMarkov()
            self._models[nid] = m
        return m

    # -- learning ---------------------------------------------------------------
    def learn_visit(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        self._model(node.nid).record_visit(station.lid, t)
        if len(self._cache) > 100_000:
            self._cache.clear()
            # the skip criteria promise "a repeat scan is a pure cache-hit
            # replay"; an emptied cache voids that, so force every station
            # through one full scan (which rebuilds its recheck horizon)
            self._next_recheck.clear()

    def on_visit_end(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        self._model(node.nid).record_departure(station.lid, node.visit_started, t)

    # -- reachability DP --------------------------------------------------------------
    def visit_probability(
        self, nid: int, here: Optional[int], dest: int, steps: int
    ) -> float:
        """P(node starting at ``here`` visits ``dest`` within ``steps`` transits)."""
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
        # reachability gate: if no path from `here` to `dest` exists in the
        # node's transit graph, no trajectory absorbs and the DP's answer is
        # exactly 0.0 — skip the whole iteration.  Edges are only ever
        # added, so the memo stays valid until the next new edge.
        epoch = model.edge_epoch
        rkey = (nid, dest)
        reach_hit = self._reach.get(rkey)
        if reach_hit is not None and reach_hit[0] == epoch:
            reach = reach_hit[1]
        else:
            rev_hit = self._rev.get(nid)
            if rev_hit is not None and rev_hit[0] == epoch:
                rev = rev_hit[1]
            else:
                rev = {}
                for src, row in model.trans.items():
                    for to in row:
                        rev.setdefault(to, []).append(src)
                self._rev[nid] = (epoch, rev)
            seen = {dest}
            stack = [dest]
            rev_get = rev.get
            while stack:
                for p in rev_get(stack.pop(), ()):
                    if p not in seen:
                        seen.add(p)
                        stack.append(p)
            reach = frozenset(seen)
            self._reach[rkey] = (epoch, reach)
        if here not in reach:
            self._cache[key] = 0.0
            return 0.0
        # DP with dest absorbing: dist over current landmark, mass absorbed
        # at dest.  Resume from the memoized DP state while the model is
        # unmutated.
        version = model.version
        state_key = (nid, here, dest)
        state = self._dp_state.get(state_key)
        if state is not None and state[0] == version and state[1] <= steps:
            _, done, dist, absorbed, terminal = state
            if terminal or done == steps:
                # terminal: the run emptied its mass or crossed the 0.999
                # early-exit — any deeper horizon yields the same value
                self._cache[key] = absorbed
                return absorbed
        else:
            done = 0
            absorbed = 0.0
            dist = {here: 1.0}
        norm = model._norm
        norm_get = norm.get
        transition_row = model.transition_row
        terminal = False
        for _ in range(steps - done):
            nxt: Dict[int, float] = {}
            nxt_get = nxt.get
            for lm, mass in dist.items():
                row = norm_get(lm)
                if row is None:
                    row = transition_row(lm)
                if not row:
                    continue
                for to, p in row:
                    m = mass * p
                    if to == dest:
                        absorbed += m
                    else:
                        nxt[to] = nxt_get(to, 0.0) + m
            dist = nxt
            if not dist or absorbed > 0.999:
                terminal = True
                break
        if len(self._dp_state) > 150_000:
            self._dp_state.clear()  # memory bound only; never affects values
        self._dp_state[state_key] = (version, steps, dist, absorbed, terminal)
        self._cache[key] = absorbed
        return absorbed

    # -- forwarding: utilities are per-packet (deadline-dependent) ----------------------
    def utility(self, world: World, node: MobileNode, dest: int, t: float) -> float:
        # generic form used by station pushes: assume a medium horizon
        here = node.at_landmark if node.at_landmark is not None else node.prev_landmark
        return self.visit_probability(node.nid, here, dest, MAX_STEPS // 2)

    def _compare_and_forward(
        self, world: World, holder: MobileNode, peer: MobileNode, t: float
    ) -> None:
        packets = holder.buffer.packets()
        if not packets:
            return
        # step time and position are invariant across the packet loop
        # (utilities never depend on buffer contents, and no learning
        # happens mid-contact) — hoist them out of the per-packet work
        step_h = self._model(holder.nid).mean_step_time(DEFAULT_STEP_TIME)
        step_p = self._model(peer.nid).mean_step_time(DEFAULT_STEP_TIME)
        here_h = holder.at_landmark if holder.at_landmark is not None else holder.prev_landmark
        here_p = peer.at_landmark if peer.at_landmark is not None else peer.prev_landmark
        visit_probability = self.visit_probability
        cache_get = self._cache.get
        max_steps = MAX_STEPS
        quantum = STEP_QUANTUM
        hid, pid = holder.nid, peer.nid
        for p in packets:
            remaining = p.deadline - t
            dst = p.dst
            # visit_probability's trivial and cache-hit tiers, inlined: this
            # pair of lookups runs once per carried packet per contact
            s = int(remaining / step_h)
            if here_h is None or s <= 0:
                u_h = 0.0
            elif here_h == dst:
                u_h = 1.0
            else:
                if s > max_steps:
                    s = max_steps
                q = s // quantum * quantum
                u_h = cache_get((hid, here_h, dst, q if q else 1))
                if u_h is None:
                    u_h = visit_probability(hid, here_h, dst, s)
            s = int(remaining / step_p)
            if here_p is None or s <= 0:
                u_p = 0.0
            elif here_p == dst:
                u_p = 1.0
            else:
                if s > max_steps:
                    s = max_steps
                q = s // quantum * quantum
                u_p = cache_get((pid, here_p, dst, q if q else 1))
                if u_p is None:
                    u_p = visit_probability(pid, here_p, dst, s)
            if u_p > u_h:
                world.node_to_node(holder, peer, p)

    def _station_push(self, world: World, station: LandmarkStation, t: float) -> None:
        self._gen_rescan.discard(station.lid)
        nodes = world.connected_nodes(station)
        if not nodes:
            return
        # per-node mean step time, computed lazily on first use so models are
        # only instantiated for nodes that can actually accept a packet —
        # matching the historical call pattern exactly
        step_of: Dict[int, float] = {}
        step_get = step_of.get
        visit_probability = self.visit_probability
        cache_get = self._cache.get
        max_steps = MAX_STEPS
        quantum = STEP_QUANTUM
        next_t = inf
        for p in station.buffer.packets():
            best = None
            best_util = 0.0
            remaining = p.deadline - t
            deadline = p.deadline
            dst = p.dst
            size = p.size
            pid = p.pid
            pkt_next = inf
            for nd in nodes:
                # can_accept + visit_probability's cache-hit tier, inlined:
                # this is the innermost loop of the whole protocol
                buf = nd.buffer
                if size > buf.capacity_bytes - buf._used or pid in buf._packets:
                    continue
                nid = nd.nid
                step = step_get(nid)
                if step is None:
                    step = self._model(nid).mean_step_time(DEFAULT_STEP_TIME)
                    step_of[nid] = step
                s = int(remaining / step)
                here = nd.at_landmark
                if here is None or s <= 0:
                    u = 0.0
                else:
                    if here == dst:
                        u = 1.0
                    else:
                        if s > max_steps:
                            s = max_steps
                        q = s // quantum * quantum
                        b = q if q else 1
                        u = cache_get((nid, here, dst, b))
                        if u is None:
                            u = visit_probability(nid, here, dst, s)
                        # re-evaluating this pair is a pure cache hit until
                        # the horizon drops below its current bucket
                        boundary = deadline - b * step
                        if boundary < pkt_next:
                            pkt_next = boundary
                if u > best_util:
                    best, best_util = nd, u
            if best is None or not world.station_to_node(station, best, p):
                # the packet stays queued: its next bucket crossing bounds
                # how long repeat scans would replay identical decisions
                if pkt_next < next_t:
                    next_t = pkt_next
        self._next_recheck[station.lid] = next_t

    def _visit_push_eligible(self, world: World, station: LandmarkStation, t: float) -> bool:
        # same structural argument as the base class (incumbent learning
        # only happens in contacts, which mark a rescan; no fault plane, no
        # link budget), with PER's bucket-boundary criterion standing in for
        # time-monotonicity: before the earliest recorded bucket crossing,
        # re-evaluating every incumbent (packet, node) pair replays the last
        # full scan verbatim, so only the arriving node is new
        return (
            not world._faults_active
            and world._rate is None
            and station.lid not in self._gen_rescan
            and t < self._next_recheck.get(station.lid, -inf)
        )

    def _station_push_single_node(
        self, world: World, station: LandmarkStation, node: MobileNode, t: float
    ) -> None:
        nid = node.nid
        step = self._model(nid).mean_step_time(DEFAULT_STEP_TIME)
        here = node.at_landmark
        visit_probability = self.visit_probability
        cache_get = self._cache.get
        max_steps = MAX_STEPS
        quantum = STEP_QUANTUM
        buf = node.buffer
        next_t = inf
        for p in station.buffer.packets():
            if (
                p.size > buf.capacity_bytes - buf._used
                or p.pid in buf._packets
            ):
                continue
            deadline = p.deadline
            dst = p.dst
            s = int((deadline - t) / step)
            if here is None or s <= 0:
                continue
            if here == dst:
                u = 1.0
                boundary = inf
            else:
                if s > max_steps:
                    s = max_steps
                q = s // quantum * quantum
                b = q if q else 1
                u = cache_get((nid, here, dst, b))
                if u is None:
                    u = visit_probability(nid, here, dst, s)
                boundary = deadline - b * step
            if u > 0.0:
                world.station_to_node(station, node, p)
            elif boundary < next_t:
                next_t = boundary
        if next_t < self._next_recheck.get(station.lid, inf):
            self._next_recheck[station.lid] = next_t

    def on_packet_generated(
        self, world: World, station: LandmarkStation, packet: Packet, t: float
    ) -> None:
        lid = station.lid
        if (
            world._faults_active
            or lid in self._gen_rescan
            or t >= self._next_recheck.get(lid, -inf)
        ):
            # something a skipped scan could observe may have changed: a
            # fault plane gates transfers on time, a contact freed carrier
            # space, or some queued packet crossed a steps-bucket boundary
            self._station_push(world, station, t)
            return
        # otherwise a full scan would replay the previous one verbatim for
        # every older packet (same cache keys, same zero/blocked outcomes),
        # so only the new packet needs evaluating
        nodes = world.connected_nodes(station)
        if not nodes:
            return
        step_of: Dict[int, float] = {}
        step_get = step_of.get
        visit_probability = self.visit_probability
        cache_get = self._cache.get
        max_steps = MAX_STEPS
        quantum = STEP_QUANTUM
        best = None
        best_util = 0.0
        remaining = packet.deadline - t
        deadline = packet.deadline
        dst = packet.dst
        size = packet.size
        pid = packet.pid
        pkt_next = inf
        for nd in nodes:
            buf = nd.buffer
            if size > buf.capacity_bytes - buf._used or pid in buf._packets:
                continue
            nid = nd.nid
            step = step_get(nid)
            if step is None:
                step = self._model(nid).mean_step_time(DEFAULT_STEP_TIME)
                step_of[nid] = step
            s = int(remaining / step)
            here = nd.at_landmark
            if here is None or s <= 0:
                u = 0.0
            else:
                if here == dst:
                    u = 1.0
                else:
                    if s > max_steps:
                        s = max_steps
                    q = s // quantum * quantum
                    b = q if q else 1
                    u = cache_get((nid, here, dst, b))
                    if u is None:
                        u = visit_probability(nid, here, dst, s)
                    boundary = deadline - b * step
                    if boundary < pkt_next:
                        pkt_next = boundary
            if u > best_util:
                best, best_util = nd, u
        if best is None or not world.station_to_node(station, best, packet):
            if pkt_next < self._next_recheck.get(lid, inf):
                self._next_recheck[lid] = pkt_next

    def table_size(self, world: World, node: MobileNode) -> int:
        return max(1, len(self._model(node.nid).trans))
