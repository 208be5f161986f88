"""Deterministic fault injection: outages, churn, degradation, loss.

The paper's Section IV-E extensions (dead-end prevention, loop
detection/correction, load balancing) exist to keep DTN-FLOW routing under
*degraded* conditions — yet an unperturbed trace never exercises them at
integration level.  This module defines a declarative fault plane every
protocol experiences identically:

* a :class:`FaultSpec` is one JSON-serializable fault description (a
  landmark station outage window, a permanent landmark death, node
  churn/dropout, transit-link bandwidth degradation, probabilistic
  transfer loss);
* a :class:`FaultPlan` bundles specs with a fault seed and is the shape a
  scenario manifest's ``faults`` block takes (it rides
  :class:`~repro.sim.engine.SimConfig` as its canonical dict form, so it
  is stamped into run provenance and replays bit-for-bit);
* compiling a plan against a concrete trace yields a
  :class:`FaultSchedule` — absolute-time windows plus the
  ``fault.injected``/``fault.cleared`` edge events the engine folds into
  its event queue.

Determinism contract: all schedule-driven faults (outages, deaths, churn,
degradation windows, and any seed-driven entity selection) are resolved at
compile time from the plan's own seed, so **every protocol sees the exact
same failures for the same manifest**.  Probabilistic transfer loss is
decided by a stable hash of ``(fault seed, packet id, time)`` — a given
transfer attempt has the same fate in every run and every process, without
consuming any simulation RNG stream.

Time fields (``start``/``end``) are *fractions of the trace duration* in
``[0, 1]``, so one plan applies to any trace; ``end`` omitted means "until
the end of the trace".
"""

from __future__ import annotations

import json
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import require_in_range, require_int, require_number

__all__ = [
    "FAULT_KINDS",
    "FaultEdge",
    "FaultPlan",
    "FaultSchedule",
    "FaultSpec",
]

#: the supported fault kinds
LANDMARK_OUTAGE = "landmark_outage"
LANDMARK_DEATH = "landmark_death"
NODE_CHURN = "node_churn"
LINK_DEGRADATION = "link_degradation"
TRANSFER_LOSS = "transfer_loss"

FAULT_KINDS = (
    LANDMARK_OUTAGE,
    LANDMARK_DEATH,
    NODE_CHURN,
    LINK_DEGRADATION,
    TRANSFER_LOSS,
)

#: fields each kind accepts beyond ``kind``/``start``/``end``
_KIND_FIELDS: Dict[str, Tuple[str, ...]] = {
    LANDMARK_OUTAGE: ("landmark", "count"),
    LANDMARK_DEATH: ("landmark", "count"),
    NODE_CHURN: ("nodes", "fraction"),
    LINK_DEGRADATION: ("landmark", "factor"),
    TRANSFER_LOSS: ("prob",),
}


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.  See the module docstring for the kinds.

    ``start``/``end`` are fractions of the trace duration; ``end=None``
    means the fault lasts until the end of the trace (always the case for
    ``landmark_death``).  Target selection is either explicit
    (``landmark``/``nodes``) or seed-driven at compile time (``count``
    random landmarks, a ``fraction`` of the nodes).
    """

    kind: str
    start: float = 0.0
    end: Optional[float] = None
    #: explicit landmark target (outage/death/degradation)
    landmark: Optional[int] = None
    #: pick this many random landmarks instead (outage/death)
    count: Optional[int] = None
    #: explicit node targets (churn)
    nodes: Optional[Tuple[int, ...]] = None
    #: pick this fraction of all nodes instead (churn)
    fraction: Optional[float] = None
    #: transfer-budget multiplier during the window (degradation);
    #: 0.0 = link fully down
    factor: Optional[float] = None
    #: per-transfer loss probability during the window (transfer loss)
    prob: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known kinds: {list(FAULT_KINDS)}"
            )
        require_in_range("fault start", self.start, 0.0, 1.0)
        if self.end is not None:
            require_in_range("fault end", self.end, 0.0, 1.0)
            if self.end <= self.start:
                raise ValueError(
                    f"fault window is empty: start={self.start} end={self.end}"
                )
        if self.kind == LANDMARK_DEATH and self.end is not None:
            raise ValueError("landmark_death is permanent; it takes no 'end'")
        if self.kind in (LANDMARK_OUTAGE, LANDMARK_DEATH):
            if (self.landmark is None) == (self.count is None):
                raise ValueError(
                    f"{self.kind} needs exactly one of 'landmark' (an id) "
                    "or 'count' (seed-driven choice)"
                )
            if self.count is not None and self.count <= 0:
                raise ValueError(f"{self.kind} count must be positive, got {self.count}")
        elif self.kind == NODE_CHURN:
            if (self.nodes is None) == (self.fraction is None):
                raise ValueError(
                    "node_churn needs exactly one of 'nodes' (ids) or "
                    "'fraction' (seed-driven choice)"
                )
            if self.fraction is not None:
                require_in_range("node_churn fraction", self.fraction, 0.0, 1.0)
        elif self.kind == LINK_DEGRADATION:
            if self.factor is None:
                raise ValueError("link_degradation needs a 'factor' in [0, 1)")
            require_in_range(
                "link_degradation factor", self.factor, 0.0, 1.0, inclusive_high=False
            )
        elif self.kind == TRANSFER_LOSS:
            if self.prob is None:
                raise ValueError("transfer_loss needs a 'prob' in (0, 1]")
            require_in_range("transfer_loss prob", self.prob, 0.0, 1.0)
            if self.prob <= 0.0:
                raise ValueError("transfer_loss prob must be positive")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        if not isinstance(data, Mapping):
            raise ValueError(f"a fault spec must be a mapping, got {data!r}")
        kind = data.get("kind")
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"fault spec needs a 'kind' out of {list(FAULT_KINDS)}, got {kind!r}"
            )
        allowed = ("kind", "start", "end") + _KIND_FIELDS[kind]
        unknown = sorted(set(data) - set(allowed))
        if unknown:
            raise ValueError(
                f"unknown key(s) in {kind} fault: {unknown}; allowed: {sorted(allowed)}"
            )
        kwargs: Dict[str, Any] = {"kind": kind}
        kwargs["start"] = require_number("fault start", data.get("start", 0.0))
        if data.get("end") is not None:
            kwargs["end"] = require_number("fault end", data["end"])
        if data.get("landmark") is not None:
            kwargs["landmark"] = require_int("fault landmark", data["landmark"])
        if data.get("count") is not None:
            kwargs["count"] = require_int("fault count", data["count"])
        if data.get("nodes") is not None:
            nodes = data["nodes"]
            if isinstance(nodes, (str, bytes)) or not isinstance(nodes, Sequence):
                raise ValueError(f"fault nodes must be a list of ids, got {nodes!r}")
            kwargs["nodes"] = tuple(
                require_int(f"fault nodes[{i}]", n) for i, n in enumerate(nodes)
            )
        for key in ("fraction", "factor", "prob"):
            if data.get(key) is not None:
                kwargs[key] = require_number(f"fault {key}", data[key])
        return cls(**kwargs)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "start": self.start}
        if self.end is not None:
            out["end"] = self.end
        for key in ("landmark", "count", "fraction", "factor", "prob"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.nodes is not None:
            out["nodes"] = list(self.nodes)
        return out


@dataclass(frozen=True)
class FaultPlan:
    """The scenario ``faults`` block: fault specs plus the fault seed.

    The seed drives every seed-based target selection (``count`` landmarks,
    a ``fraction`` of nodes) and the transfer-loss hash, independently of
    the simulation seed — the same plan perturbs every protocol and every
    workload seed identically.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise ValueError(f"'faults' must be a mapping, got {data!r}")
        unknown = sorted(set(data) - {"specs", "seed"})
        if unknown:
            raise ValueError(
                f"unknown key(s) in 'faults': {unknown}; allowed: ['seed', 'specs']"
            )
        raw = data.get("specs", [])
        if isinstance(raw, (str, bytes)) or not isinstance(raw, Sequence):
            raise ValueError(f"faults.specs must be a list, got {raw!r}")
        specs = tuple(FaultSpec.from_dict(s) for s in raw)
        return cls(specs=specs, seed=require_int("faults.seed", data.get("seed", 0)))

    def as_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "specs": [s.as_dict() for s in self.specs]}

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def compile(self, trace) -> "FaultSchedule":
        """Resolve the plan against a concrete trace (absolute times, ids).

        Raises :class:`ValueError` when an explicit landmark/node id does
        not exist in the trace.
        """
        return FaultSchedule(self, trace)


@dataclass(frozen=True)
class FaultEdge:
    """One fault boundary: the moment a fault activates or clears.

    The engine folds these into its event queue and emits the matching
    ``fault.injected`` / ``fault.cleared`` observability events; churn
    activations additionally disconnect the affected nodes.
    """

    t: float
    action: str  # "injected" | "cleared"
    kind: str
    spec_index: int
    #: entity ids the edge applies to (landmark ids or node ids); empty for
    #: entity-free faults (transfer loss)
    targets: Tuple[int, ...] = ()
    data: Dict[str, Any] = field(default_factory=dict)


class _Windows:
    """Per-entity half-open interval sets with bisect lookups."""

    def __init__(self) -> None:
        self._by_entity: Dict[int, List[Tuple[float, float]]] = {}
        self._starts: Dict[int, List[float]] = {}

    def add(self, entity: int, t0: float, t1: float) -> None:
        self._by_entity.setdefault(entity, []).append((t0, t1))

    def seal(self) -> None:
        for entity, wins in self._by_entity.items():
            wins.sort()
            self._starts[entity] = [w[0] for w in wins]

    def active(self, entity: int, t: float) -> bool:
        wins = self._by_entity.get(entity)
        if not wins:
            return False
        i = bisect_right(self._starts[entity], t)
        if i == 0:
            return False
        t0, t1 = wins[i - 1]
        return t0 <= t < t1

    @property
    def entities(self) -> List[int]:
        return sorted(self._by_entity)


class FaultSchedule:
    """A :class:`FaultPlan` compiled against one trace.

    All windows are half-open ``[t0, t1)`` in absolute trace time; a fault
    is *active* at its start instant and *cleared* at its end instant, so
    an event processed exactly at the clearing time already sees the
    healthy system (engine ties put fault edges first).
    """

    def __init__(self, plan: FaultPlan, trace) -> None:
        self.plan = plan
        self.t0 = float(trace.start_time)
        self.t_end = float(trace.end_time)
        span = max(0.0, self.t_end - self.t0)
        landmarks = set(trace.landmarks)
        nodes = tuple(trace.nodes)
        rng = np.random.default_rng(np.random.SeedSequence([plan.seed, 0x5FA17]))

        self._stations = _Windows()
        self._nodes = _Windows()
        #: (t0, t1, landmark-or-None, factor), time-sorted
        self._links: List[Tuple[float, float, Optional[int], float]] = []
        #: (t0, t1, prob), time-sorted
        self._losses: List[Tuple[float, float, float]] = []
        edges: List[Tuple[float, int, FaultEdge]] = []

        def abs_window(spec: FaultSpec) -> Tuple[float, float]:
            t_start = self.t0 + spec.start * span
            t_stop = self.t_end if spec.end is None else self.t0 + spec.end * span
            return t_start, t_stop

        for i, spec in enumerate(plan.specs):
            t_start, t_stop = abs_window(spec)
            data: Dict[str, Any] = {}
            targets: Tuple[int, ...] = ()
            if spec.kind in (LANDMARK_OUTAGE, LANDMARK_DEATH):
                if spec.landmark is not None:
                    if spec.landmark not in landmarks:
                        raise ValueError(
                            f"fault spec #{i} ({spec.kind}) names landmark "
                            f"{spec.landmark}, which does not exist in trace "
                            f"{trace.name!r}"
                        )
                    targets = (spec.landmark,)
                else:
                    k = min(spec.count, len(landmarks))
                    targets = tuple(
                        sorted(
                            int(x)
                            for x in rng.choice(
                                sorted(landmarks), size=k, replace=False
                            )
                        )
                    )
                for lid in targets:
                    self._stations.add(lid, t_start, t_stop)
                data["landmarks"] = list(targets)
            elif spec.kind == NODE_CHURN:
                if spec.nodes is not None:
                    missing = sorted(set(spec.nodes) - set(nodes))
                    if missing:
                        raise ValueError(
                            f"fault spec #{i} (node_churn) names node(s) "
                            f"{missing}, which do not exist in trace "
                            f"{trace.name!r}"
                        )
                    targets = tuple(sorted(spec.nodes))
                else:
                    k = int(round(spec.fraction * len(nodes)))
                    targets = tuple(
                        sorted(
                            int(x)
                            for x in rng.choice(sorted(nodes), size=k, replace=False)
                        )
                    )
                for nid in targets:
                    self._nodes.add(nid, t_start, t_stop)
                data["nodes"] = list(targets)
            elif spec.kind == LINK_DEGRADATION:
                if spec.landmark is not None and spec.landmark not in landmarks:
                    raise ValueError(
                        f"fault spec #{i} (link_degradation) names landmark "
                        f"{spec.landmark}, which does not exist in trace "
                        f"{trace.name!r}"
                    )
                self._links.append((t_start, t_stop, spec.landmark, spec.factor))
                data["factor"] = spec.factor
                if spec.landmark is not None:
                    targets = (spec.landmark,)
                    data["landmarks"] = [spec.landmark]
            elif spec.kind == TRANSFER_LOSS:
                self._losses.append((t_start, t_stop, spec.prob))
                data["prob"] = spec.prob

            edges.append(
                (
                    t_start,
                    1,
                    FaultEdge(
                        t=t_start, action="injected", kind=spec.kind,
                        spec_index=i, targets=targets, data=data,
                    ),
                )
            )
            if t_stop < self.t_end:
                edges.append(
                    (
                        t_stop,
                        0,
                        FaultEdge(
                            t=t_stop, action="cleared", kind=spec.kind,
                            spec_index=i, targets=targets, data=data,
                        ),
                    )
                )

        self._stations.seal()
        self._nodes.seal()
        self._links.sort(key=lambda w: (w[0], w[1]))
        self._losses.sort(key=lambda w: (w[0], w[1]))
        # clearings before injections at the same instant (the cleared fault
        # is inactive at its end time; a same-time injection is active)
        edges.sort(key=lambda e: (e[0], e[1], e[2].spec_index))
        self.edges: Tuple[FaultEdge, ...] = tuple(e for _, _, e in edges)
        #: fast global guards for the hot paths
        self._any_loss = bool(self._losses)
        self._any_link = bool(self._links)
        self._has_station_faults = bool(self._stations.entities)
        self._has_node_faults = bool(self._nodes.entities)

    # -- queries -------------------------------------------------------------
    def station_down(self, lid: int, t: float) -> bool:
        """Whether landmark ``lid``'s station is offline at ``t``."""
        return self._has_station_faults and self._stations.active(lid, t)

    def node_down(self, nid: int, t: float) -> bool:
        """Whether node ``nid`` is churned out at ``t``."""
        return self._has_node_faults and self._nodes.active(nid, t)

    def link_factor(self, lid: int, t: float) -> float:
        """Transfer-budget multiplier for visits at ``lid`` at time ``t``.

        Overlapping degradation windows multiply (two half-rate faults
        quarter the budget).
        """
        if not self._any_link:
            return 1.0
        factor = 1.0
        for t0, t1, target, f in self._links:
            if t0 <= t < t1 and (target is None or target == lid):
                factor *= f
        return factor

    def loss_prob(self, t: float) -> float:
        """The transfer-loss probability in force at ``t`` (0.0 = none).

        Overlapping windows compose as independent loss processes."""
        if not self._any_loss:
            return 0.0
        keep = 1.0
        for t0, t1, prob in self._losses:
            if t0 <= t < t1:
                keep *= 1.0 - prob
        return 1.0 - keep

    def transfer_lost(self, pid: int, t: float) -> bool:
        """Deterministically decide whether this transfer attempt is lost.

        The decision hashes ``(fault seed, packet id, time)`` so the same
        attempt has the same fate in every run and process — no simulation
        RNG stream is consumed, keeping faulted and unfaulted runs on
        identical random sequences.
        """
        prob = self.loss_prob(t)
        if prob <= 0.0:
            return False
        key = f"{self.plan.seed}:{pid}:{t:.6f}".encode()
        return (zlib.crc32(key) & 0xFFFFFFFF) / 4294967296.0 < prob

    def affected_landmarks(self) -> List[int]:
        """Landmarks with at least one outage/death window."""
        return self._stations.entities
