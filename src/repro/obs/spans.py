"""Hierarchical timed spans: where the wall-clock goes, with structure.

A :class:`SpanRecorder` is the one owner of phase timing.  A run asks
for it by passing ``Observability(spans=recorder)``; without one the
engine, the DTN-FLOW router and the utility baselines read no clock.
The recorder keeps cheap accounting (floats folded into nodes, no
per-call object allocation) arranged as a tree:

* every span is a node addressed by its *name path* (``root >
  dispatch.visit_start > router.carrier_selection``); re-entering the
  same name under the same parent folds into one node, so a
  million-event run produces a tree with tens of nodes, not millions;
* **cumulative seconds** are the timed total of a span including its
  children; **self seconds** are cumulative minus the children's
  cumulative — the time spent in the span's own code;
* the engine's hot loop avoids context-manager overhead by parking the
  recorder's cursor on a pre-resolved node (:meth:`SpanRecorder.node`,
  plain attribute assignment per event) and adding the accumulated
  deltas afterwards (:meth:`SpanRecorder.add`, once per dispatch kind).

Two usage styles:

* ``with recorder.span("name"):`` — timed scope, nests automatically;
* ``recorder.add("name", dt)`` — fold a precomputed delta as a child of
  the current span (hot loops: two ``perf_counter`` calls, no ``with``).

Several runs may share one recorder (``repro profile`` nests every point
under its own span).  A run's flat ``phase_timings`` are
:meth:`SpanRecorder.flat` of the span that was current when the run
started, so they cover that run alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["SpanNode", "SpanRecorder"]


class SpanNode:
    """One aggregation node of the span tree.

    ``seconds`` is cumulative (includes children); ``calls`` counts how
    many timed scopes / folded deltas landed here.  Nodes are created
    lazily per ``(parent, name)`` pair and never removed.
    """

    __slots__ = ("name", "parent", "seconds", "calls", "children")

    def __init__(self, name: str, parent: Optional["SpanNode"] = None) -> None:
        self.name = name
        self.parent = parent
        self.seconds = 0.0
        self.calls = 0
        self.children: Dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        """The child node called ``name``, created on first use."""
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name, self)
            self.children[name] = node
        return node

    @property
    def self_seconds(self) -> float:
        """Cumulative seconds minus the children's cumulative seconds.

        Untimed interior nodes (calls == 0, e.g. the root anchor) have no
        own timing; their cumulative *is* the children's sum and their
        self time is 0.
        """
        child_total = sum(c.cumulative_seconds for c in self.children.values())
        if not self.calls:
            return 0.0
        return max(0.0, self.seconds - child_total)

    @property
    def cumulative_seconds(self) -> float:
        """Timed total; untimed anchors report their children's sum."""
        if not self.calls:
            return sum(c.cumulative_seconds for c in self.children.values())
        return self.seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanNode({self.name!r}, seconds={self.seconds:.4f}, "
            f"calls={self.calls}, children={len(self.children)})"
        )


class SpanRecorder:
    """A tree of timed spans with a movable cursor (the current span).

    The cursor (:attr:`current`) is what :meth:`add` and :meth:`span`
    attach to.  Hot loops may park it directly on a pre-resolved node
    (``recorder.current = node``) — one attribute store per event — and
    add their accumulated deltas afterwards via :meth:`add`.
    """

    __slots__ = ("root", "current")

    def __init__(self) -> None:
        self.root = SpanNode("root")
        self.current = self.root

    # -- recording -------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[SpanNode]:
        """Timed scope: a child of the current span, nesting on re-entry."""
        node = self.current.child(name)
        parent = self.current
        self.current = node
        t0 = perf_counter()
        try:
            yield node
        finally:
            node.seconds += perf_counter() - t0
            node.calls += 1
            self.current = parent

    def add(self, name: str, dt: float, calls: int = 1) -> None:
        """Fold a precomputed delta into a child of the current span."""
        # inlined child lookup: this runs a few hundred thousand times per
        # sweep point, so skip the extra method hop of ``child()``
        cur = self.current
        node = cur.children.get(name)
        if node is None:
            node = SpanNode(name, cur)
            cur.children[name] = node
        node.seconds += dt
        node.calls += calls

    def node(self, name: str, parent: Optional[SpanNode] = None) -> SpanNode:
        """Resolve (creating if needed) a child node for cursor parking."""
        return (parent if parent is not None else self.current).child(name)

    # -- queries ---------------------------------------------------------------
    def walk(
        self, anchor: Optional[SpanNode] = None
    ) -> Iterator[Tuple[int, SpanNode]]:
        """Depth-first ``(depth, node)`` pairs under (and including) anchor."""
        stack: List[Tuple[int, SpanNode]] = [
            (0, anchor if anchor is not None else self.root)
        ]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in sorted(
                node.children.values(), key=lambda c: c.cumulative_seconds
            ):
                stack.append((depth + 1, child))

    def flat(
        self, anchor: Optional[SpanNode] = None
    ) -> Dict[str, Dict[str, float]]:
        """Per-name totals over the subtree under ``anchor``: a run's report.

        Returns ``{name: {"seconds": s, "calls": n}}`` summing every node
        with that name, so a phase timed under several parents reports one
        total; float seconds, int calls, sorted by seconds descending.
        """
        out: Dict[str, Dict[str, float]] = {}
        base = anchor if anchor is not None else self.root
        for _, node in self.walk(base):
            if node is base or not node.calls and not node.seconds:
                continue
            slot = out.setdefault(node.name, {"seconds": 0.0, "calls": 0})
            slot["seconds"] += node.seconds
            slot["calls"] += node.calls
        return dict(sorted(out.items(), key=lambda kv: -kv[1]["seconds"]))

    def tree(self, anchor: Optional[SpanNode] = None) -> Dict[str, Any]:
        """JSON-shaped span tree with ids, parent ids and self/cum seconds.

        Ids are depth-first ordinals assigned at export time; children are
        sorted by cumulative seconds descending.  Zero-cost leaf nodes
        (never entered, no timed descendants) are pruned.
        """
        counter = [0]

        def export(node: SpanNode, parent_id: Optional[int]) -> Dict[str, Any]:
            node_id = counter[0]
            counter[0] += 1
            rec: Dict[str, Any] = {
                "id": node_id,
                "parent_id": parent_id,
                "name": node.name,
                "seconds": node.cumulative_seconds,
                "self_seconds": node.self_seconds,
                "calls": node.calls,
            }
            children = [
                c
                for c in sorted(
                    node.children.values(),
                    key=lambda c: -c.cumulative_seconds,
                )
                if c.calls or c.seconds or c.children
            ]
            if children:
                rec["children"] = [export(c, node_id) for c in children]
            return rec

        return export(anchor if anchor is not None else self.root, None)
