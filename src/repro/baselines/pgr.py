"""PGR — geographical routing by route prediction (Kurhinen & Janatuinen).

PGR "uses observed nodes' mobility pattern to predict nodes' future
movement" — it tries to predict a node's *entire upcoming route* (a sequence
of landmarks) and checks whether the destination lies on it.  The paper
notes this is its weakness: predicting a multi-landmark path compounds the
per-step prediction error, so PGR ends up with the lowest success rate (and,
because nodes look alike under this metric, the lowest forwarding cost).

Implementation: each node feeds an order-1 Markov model; its predicted route
is the argmax chain from its current landmark, up to ``HORIZON`` steps.  The
utility toward destination ``L`` is the probability of the chain prefix that
first reaches ``L`` (product of step probabilities), and 0 when ``L`` is not
on the predicted route.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.baselines.base import UtilityProtocol
from repro.core.predictor import MarkovPredictor
from repro.sim.engine import World
from repro.sim.entities import LandmarkStation, MobileNode

#: landmarks a predicted route looks ahead
HORIZON = 5


class PGRProtocol(UtilityProtocol):
    """PGR with landmark destinations."""

    name = "PGR"

    def __init__(self) -> None:
        self._pred: Dict[int, MarkovPredictor] = {}
        # route cache invalidated whenever the node's location changes:
        # node -> (position, route, first-occurrence dest -> cum prob)
        self._route_cache: Dict[
            int, Tuple[Optional[int], List[Tuple[int, float]], Dict[int, float]]
        ] = {}

    def _predictor(self, nid: int) -> MarkovPredictor:
        p = self._pred.get(nid)
        if p is None:
            p = MarkovPredictor(1)
            self._pred[nid] = p
        return p

    # -- learning ---------------------------------------------------------------
    def learn_visit(
        self, world: World, node: MobileNode, station: LandmarkStation, t: float
    ) -> None:
        self._predictor(node.nid).update(station.lid)
        self._route_cache.pop(node.nid, None)

    # -- route prediction -------------------------------------------------------------
    def predicted_route(self, node: MobileNode) -> List[Tuple[int, float]]:
        """The argmax chain from the node's position: [(landmark, cum_prob)].

        The chain greedily follows the most likely transition at each step,
        multiplying probabilities; it stops at ``HORIZON`` steps or when the
        model has no information, and avoids immediate back-and-forth cycles
        by stopping when a landmark repeats.
        """
        nid = node.nid
        here = node.at_landmark
        if here is None:
            here = node.prev_landmark
        cache = self._route_cache.get(nid)
        if cache is not None and cache[0] == here:
            return cache[1]
        pred = self._predictor(nid)
        route: List[Tuple[int, float]] = []
        if here is None or not pred.history:
            self._route_cache[nid] = (here, route, {})
            return route
        # the chain starts from the node's *current* position, which may be
        # ahead of the learned history (e.g. mid-visit); each step is what
        # an order-1 predictor without fallback predicts from the step
        # before, read straight off the shared counts without mutating them
        counts = pred._counts[0]  # noqa: SLF001 - read-only walk
        cum = 1.0
        seen = {here}
        cur = here
        for _ in range(HORIZON):
            nxt = counts.get((cur,))
            if not nxt:
                break
            total = sum(nxt.values())
            # MarkovPredictor.predict's rule: highest probability, ties to
            # the smallest landmark id
            lm, prob = None, -1.0
            for cand, c in nxt.items():
                p = c / total
                if p > prob or (p == prob and cand < lm):
                    lm, prob = cand, p
            cum *= prob
            route.append((lm, cum))
            if lm in seen:
                break
            seen.add(lm)
            cur = lm
        by_dest: Dict[int, float] = {}
        for lm, cum in route:
            if lm not in by_dest:
                by_dest[lm] = cum
        self._route_cache[nid] = (here, route, by_dest)
        return route

    # -- utility --------------------------------------------------------------------
    def utility(self, world: World, node: MobileNode, dest: int, t: float) -> float:
        # inlined predicted_route cache hit + first-occurrence lookup: this
        # runs once per (carrier, destination) pair at every push/contact
        nid = node.nid
        here = node.at_landmark
        if here is None:
            here = node.prev_landmark
        cache = self._route_cache.get(nid)
        if cache is None or cache[0] != here:
            self.predicted_route(node)
            cache = self._route_cache[nid]
        return cache[2].get(dest, 0.0)

    def table_size(self, world: World, node: MobileNode) -> int:
        return max(1, len(self.predicted_route(node)))
