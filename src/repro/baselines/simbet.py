"""SimBet adapted to landmark destinations (Daly & Haahr, MobiHoc 2007).

SimBet ranks carriers by a convex combination of *similarity* to the
destination and *betweenness centrality*.  In the landmark adaptation (the
paper: "the similarity is derived from the frequency that the node visits
the landmark"):

* ``sim(n, L)`` — node ``n``'s visit frequency to landmark ``L``;
* ``bet(n)``   — ego betweenness of ``n`` in the node-contact graph: a node
  bridging contacts that do not meet each other scores high.

As in the original protocol the two components are combined *pairwise*: when
comparing holder ``a`` against candidate ``b`` for destination ``L``,

    SimUtil_b = sim_b / (sim_a + sim_b),   BetUtil_b = bet_b / (bet_a + bet_b)
    SimBetUtil_b = ALPHA * SimUtil_b + (1 - ALPHA) * BetUtil_b

and the packet moves when ``SimBetUtil_b > SimBetUtil_a``.  Because the
pairwise form needs both endpoints, :meth:`utility` (used for station
pushes and generic ranking) blends the node's *absolute* similarity and
normalised centrality; the node-node comparison overrides the base-class
hook with the faithful pairwise rule.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Set

from repro.baselines.base import UtilityProtocol
from repro.sim.engine import World
from repro.sim.entities import LandmarkStation, MobileNode

#: weight of similarity against betweenness (SimBet's equal weighting)
ALPHA = 0.5
#: a node's betweenness is recomputed after this many new contacts
RECOMPUTE_EVERY = 10
#: the visit counts of a node never seen at a landmark (read-only)
_NO_VISITS: Counter = Counter()


def ego_betweenness(neighbors: Set[int], adjacency: Dict[int, Set[int]]) -> float:
    """Ego betweenness: count of neighbour pairs connected only through ego.

    For each unordered pair of ego's neighbours that are not adjacent to
    each other, ego lies on their only known path; the score is the number
    of such pairs (the standard ego-network betweenness used by SimBet,
    with unit weights).
    """
    ns = sorted(neighbors)
    score = 0.0
    for i, u in enumerate(ns):
        for v in ns[i + 1 :]:
            if v not in adjacency.get(u, ()):
                score += 1.0
    return score


class SimBetProtocol(UtilityProtocol):
    """SimBet with landmark destinations."""

    name = "SimBet"

    def __init__(self) -> None:
        self._visits: Dict[int, Counter] = {}
        self._contacts: Dict[int, Set[int]] = {}
        #: each node's view of which of its contacts know each other,
        #: learned by exchanging contact lists at encounters
        self._known_adjacency: Dict[int, Dict[int, Set[int]]] = {}
        self._bet_cache: Dict[int, float] = {}
        self._contacts_since: Dict[int, int] = {}

    # -- learning ---------------------------------------------------------------
    def learn_visit(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        self._visits.setdefault(node.nid, Counter())[station.lid] += 1

    def learn_contact(self, world: World, a: MobileNode, b: MobileNode, t: float) -> None:
        for x, y in ((a.nid, b.nid), (b.nid, a.nid)):
            self._contacts.setdefault(x, set()).add(y)
            # x learns y's contact list (SimBet's exchange step)
            self._known_adjacency.setdefault(x, {})[y] = set(
                self._contacts.get(y, ())
            )
            self._contacts_since[x] = self._contacts_since.get(x, 0) + 1

    # -- components ------------------------------------------------------------------
    def similarity(self, nid: int, dest: int) -> float:
        return float(self._visits.get(nid, _NO_VISITS).get(dest, 0))

    def betweenness(self, nid: int) -> float:
        since = self._contacts_since.get(nid, 0)
        if nid not in self._bet_cache or since >= RECOMPUTE_EVERY:
            self._bet_cache[nid] = ego_betweenness(
                self._contacts.get(nid, set()), self._known_adjacency.get(nid, {})
            )
            self._contacts_since[nid] = 0
        return self._bet_cache[nid]

    def pairwise_utility(self, nid_a: int, nid_b: int, dest: int) -> float:
        """SimBetUtil of ``b`` against ``a`` (the paper's pairwise form)."""
        sim_a, sim_b = self.similarity(nid_a, dest), self.similarity(nid_b, dest)
        bet_a, bet_b = self.betweenness(nid_a), self.betweenness(nid_b)
        sim_util = sim_b / (sim_a + sim_b) if (sim_a + sim_b) > 0 else 0.5
        bet_util = bet_b / (bet_a + bet_b) if (bet_a + bet_b) > 0 else 0.5
        return ALPHA * sim_util + (1.0 - ALPHA) * bet_util

    # -- utility (absolute form, for station pushes) -----------------------------------
    def utility(self, world: World, node: MobileNode, dest: int, t: float) -> float:
        sim = self.similarity(node.nid, dest)
        bet = self.betweenness(node.nid)
        n = max(1, world.trace.n_nodes)
        max_pairs = (n - 1) * (n - 2) / 2.0
        bet_norm = bet / max_pairs if max_pairs > 0 else 0.0
        return ALPHA * sim + (1.0 - ALPHA) * bet_norm

    def _push_skip_sound(self, world: World, station: LandmarkStation) -> bool:
        # betweenness deliberately refreshes only every ``RECOMPUTE_EVERY``
        # contact-increments, and the counter resets *at call time* — so a
        # skipped call can shift a later refresh across a contact-graph
        # change.  Skipping is only sound when every incumbent's betweenness
        # would have been a pure cache hit anyway.
        cache = self._bet_cache
        since = self._contacts_since
        since_get = since.get
        limit = RECOMPUTE_EVERY
        for nd in world.connected_nodes(station):
            nid = nd.nid
            if nid not in cache or since_get(nid, 0) >= limit:
                return False
        return True

    def _compare_and_forward(
        self, world: World, holder: MobileNode, peer: MobileNode, t: float
    ) -> None:
        """Faithful pairwise SimBet exchange."""
        for p in holder.buffer.packets():
            u_peer = self.pairwise_utility(holder.nid, peer.nid, p.dst)
            if u_peer > 0.5:
                world.node_to_node(holder, peer, p)

    def table_size(self, world: World, node: MobileNode) -> int:
        return max(1, len(self._visits.get(node.nid, ())))
