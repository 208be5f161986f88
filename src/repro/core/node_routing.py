"""Routing packets to mobile nodes (Section IV-E.4 of the paper).

DTN-FLOW natively routes packets to *landmarks*.  To address a packet to a
mobile node, the paper exploits skewed visiting preferences: every node
summarises its most frequently visited landmarks and registers them in the
network; a sender forwards (or copies) the packet to those landmarks, where
it waits for the destination node's next visit.

:class:`NodeLocationRegistry` is that registry.  The DTN-FLOW protocol
consults it when a packet carries a ``dest_node`` in its metadata: the
packet is routed to the destination node's top frequented landmark(s) and
handed over when the node connects there.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from repro.utils.validation import require_positive


class NodeLocationRegistry:
    """Network-wide registry of each node's frequently visited landmarks."""

    def __init__(self, top_k: int = 2) -> None:
        require_positive("top_k", top_k)
        self.top_k = int(top_k)
        self._visits: Dict[int, Counter] = {}

    # -- learning ---------------------------------------------------------------
    def record_visit(self, node: int, landmark: int) -> None:
        counts = self._visits.get(node)
        if counts is None:
            counts = self._visits[node] = Counter()
        counts[landmark] += 1

    def bulk_load(self, node: int, landmark_counts: Dict[int, int]) -> None:
        """Register a node's self-reported visit summary."""
        self._visits.setdefault(node, Counter()).update(landmark_counts)

    # -- queries --------------------------------------------------------------------
    def frequent_landmarks(self, node: int, k: Optional[int] = None) -> List[int]:
        """The node's ``k`` most visited landmarks, most-visited first."""
        k = self.top_k if k is None else k
        counts = self._visits.get(node)
        if not counts:
            return []
        return [lm for lm, _ in counts.most_common(k)]

    def home_landmark(self, node: int) -> Optional[int]:
        """The single most visited landmark (None when unknown)."""
        tops = self.frequent_landmarks(node, 1)
        return tops[0] if tops else None

    def known_nodes(self) -> List[int]:
        return sorted(self._visits)

    def visit_share(self, node: int, landmark: int) -> float:
        """Fraction of the node's recorded visits going to ``landmark``."""
        counts = self._visits.get(node)
        if not counts:
            return 0.0
        total = sum(counts.values())
        return counts.get(landmark, 0) / total if total else 0.0
