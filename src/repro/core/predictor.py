"""Order-k Markov transit prediction (Section IV-B of the paper).

Each node keeps its landmark visiting history and predicts the next landmark
it will transit to from the last ``k`` visited landmarks, using counts of
``(k+1)``-grams over the history (Eqs. 1-3).  Key pieces:

* :class:`MarkovPredictor` — the online order-k predictor a node carries;
* :class:`AccuracyTracker` — the per-node prediction-accuracy estimate used
  to refine carrier selection (Section IV-D.4): initialised at 0.5 and
  multiplied by ``up``/``down`` factors on correct/incorrect predictions;
* :func:`evaluate_predictor` — offline accuracy evaluation over a trace
  (regenerates Fig. 6).

Probability convention
----------------------
The paper's Eq. (1)-(3) example divides the ``(k+1)``-gram count by the total
number of ``(k+1)``-grams, i.e. it ranks candidates by *joint* n-gram
frequency.  For a fixed context the argmax is identical to the conditional
probability P(next | context); for *comparing carriers at a landmark* the
conditional form is the meaningful one, so :meth:`MarkovPredictor.predict`
returns conditional probabilities by default and exposes the paper-literal
joint form via ``joint=True``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mobility.trace import Trace
from repro.utils.quantiles import FiveNumberSummary, five_number_summary
from repro.utils.validation import require_in_range, require_positive

#: range checks ``(name, value)`` of the Markov order ``k`` and of the
#: accuracy tracker's factors for a correct / an incorrect prediction; the
#: DTN-FLOW config applies the same ones to its keys
check_order = require_positive
check_up_factor = partial(
    require_in_range, low=1.0, high=math.inf, inclusive_low=False, inclusive_high=False
)
check_down_factor = partial(
    require_in_range, low=0.0, high=1.0, inclusive_low=False, inclusive_high=False
)


class MarkovPredictor:
    """An online order-``k`` Markov predictor over landmark visits.

    Parameters
    ----------
    k:
        Markov order (number of trailing landmarks used as context).  The
        paper evaluates k in {1, 2, 3} and settles on k=1 because missing
        records hurt higher orders (Fig. 6a).
    fallback:
        If True (default), when the current order-k context was never seen,
        progressively shorter contexts are tried (order k-1, ..., 1), and
        finally the overall landmark frequency.  The paper handles unseen
        contexts implicitly (no prediction); fallback keeps the router
        functional early in a trace and can be disabled for paper-literal
        behaviour.

    Notes
    -----
    ``update`` appends a visited landmark; consecutive duplicates are
    collapsed since a "transit" by definition changes landmark.
    """

    def __init__(self, k: int = 1, *, fallback: bool = True) -> None:
        check_order("k", k)
        self.k = int(k)
        self.fallback = fallback
        self.history: List[int] = []
        # context tuple (len 1..k) -> {next_landmark: count}
        self._counts: List[Dict[Tuple[int, ...], Dict[int, int]]] = [
            defaultdict(dict) for _ in range(self.k)
        ]
        self._freq: Dict[int, int] = defaultdict(int)
        # single-entry distribution memo keyed by (joint, history length,
        # trailing-k context): counts/freq only ever change together with a
        # history append, so the key pins the exact state the cached
        # distribution was computed from.  Treat the cached dict as
        # read-only.
        self._dist_cache: Optional[
            Tuple[Tuple[bool, int, Tuple[int, ...]], Dict[int, float]]
        ] = None

    # -- online updates ---------------------------------------------------------
    def update(self, landmark: int) -> None:
        """Record that the node has just connected to ``landmark``."""
        if self.history and self.history[-1] == landmark:
            return
        h = self.history
        h.append(landmark)
        self._freq[landmark] += 1
        n = len(h)
        for order in range(1, self.k + 1):
            if n >= order + 1:
                ctx = tuple(h[n - 1 - order : n - 1])
                nxt = self._counts[order - 1][ctx]
                nxt[landmark] = nxt.get(landmark, 0) + 1

    def extend(self, landmarks: Sequence[int]) -> None:
        """Feed a whole visit sequence."""
        for lm in landmarks:
            self.update(lm)

    # -- queries --------------------------------------------------------------------
    @property
    def n_visits(self) -> int:
        return len(self.history)

    def context(self, order: Optional[int] = None) -> Tuple[int, ...]:
        """The trailing ``order`` landmarks (default: the predictor's k)."""
        order = self.k if order is None else order
        return tuple(self.history[-order:]) if self.history else ()

    def _distribution_for_order(self, order: int) -> Optional[Dict[int, int]]:
        if len(self.history) < order:
            return None
        ctx = tuple(self.history[-order:])
        nxt = self._counts[order - 1].get(ctx)
        if not nxt:
            return None
        return nxt

    def distribution(self, *, joint: bool = False) -> Dict[int, float]:
        """Probability distribution over the next landmark.

        Tries the order-k context first, then (if ``fallback``) shorter
        contexts, finally raw landmark frequency.  Returns ``{}`` when
        nothing is known.
        """
        key = (joint, len(self.history), tuple(self.history[-self.k :]))
        cached = self._dist_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        dist = self._compute_distribution(joint)
        self._dist_cache = (key, dist)
        return dist

    def _compute_distribution(self, joint: bool) -> Dict[int, float]:
        orders = range(self.k, 0, -1) if self.fallback else (self.k,)
        for order in orders:
            nxt = self._distribution_for_order(order)
            if nxt:
                if joint:
                    # paper-literal: divide by total (order+1)-gram count
                    total = sum(
                        sum(d.values()) for d in self._counts[order - 1].values()
                    )
                else:
                    total = sum(nxt.values())
                return {lm: c / total for lm, c in nxt.items()}
        if self.fallback and self._freq:
            cur = self.history[-1] if self.history else None
            freq = {lm: c for lm, c in self._freq.items() if lm != cur}
            total = sum(freq.values())
            if total:
                return {lm: c / total for lm, c in freq.items()}
        return {}

    def predict(self, *, joint: bool = False) -> Optional[Tuple[int, float]]:
        """Most likely next landmark with its probability, or None."""
        dist = self.distribution(joint=joint)
        if not dist:
            return None
        # highest probability; ties go to the smallest landmark id
        best, best_p = None, -1.0
        for lm, p in dist.items():
            if p > best_p or (p == best_p and lm < best):
                best, best_p = lm, p
        return best, best_p

    def probability_of(self, landmark: int, *, joint: bool = False) -> float:
        """P(next transit goes to ``landmark``), 0.0 if unknown."""
        return self.distribution(joint=joint).get(landmark, 0.0)


@dataclass
class AccuracyTracker:
    """Per-node prediction accuracy used for carrier refinement (IV-D.4).

    ``value`` starts at ``initial`` (the paper's "medium value, e.g. 0.5")
    and is multiplied by ``up`` (>1) on a correct prediction and ``down``
    (<1) on an incorrect one, clamped to [floor, 1].
    """

    initial: float = 0.5
    up: float = 1.1
    down: float = 0.9
    floor: float = 0.01
    value: float = field(default=0.5)
    n_correct: int = 0
    n_wrong: int = 0

    def __post_init__(self) -> None:
        require_in_range("initial", self.initial, 0.0, 1.0)
        check_up_factor("up", self.up)
        check_down_factor("down", self.down)
        self.value = self.initial

    def record(self, correct: bool) -> float:
        """Fold one prediction outcome in; returns the new accuracy value."""
        if correct:
            self.n_correct += 1
            self.value = min(1.0, self.value * self.up)
        else:
            self.n_wrong += 1
            self.value = max(self.floor, self.value * self.down)
        return self.value

    @property
    def empirical_rate(self) -> float:
        """Raw fraction of correct predictions (0.0 with no history)."""
        total = self.n_correct + self.n_wrong
        return self.n_correct / total if total else 0.0


@dataclass(frozen=True)
class PredictorEvaluation:
    """Result of evaluating an order-k predictor over a trace (Fig. 6)."""

    k: int
    per_node_accuracy: Dict[int, float]
    n_predictions: int
    n_correct: int

    @property
    def mean_accuracy(self) -> float:
        if not self.per_node_accuracy:
            return 0.0
        return float(np.mean(list(self.per_node_accuracy.values())))

    def summary(self) -> FiveNumberSummary:
        """Min/Q1/mean/Q3/max over per-node accuracies (Fig. 6b)."""
        return five_number_summary(self.per_node_accuracy.values())


def evaluate_predictor(
    trace: Trace,
    k: int,
    *,
    fallback: bool = False,
    min_visits: int = 5,
) -> PredictorEvaluation:
    """Walk every node's visit sequence, predicting each next landmark online.

    Matches the paper's methodology for Fig. 6: the accuracy rate of a node
    is the number of correct predictions over the number of predictions,
    evaluated online (the predictor only ever sees the past).  Nodes with
    fewer than ``min_visits`` visits are skipped (no meaningful rate).

    ``fallback=False`` (default) is paper-literal: an unseen context yields
    no prediction, which counts as neither correct nor incorrect.
    """
    per_node: Dict[int, float] = {}
    total_pred = 0
    total_correct = 0
    for node in trace.nodes:
        seq = trace.visit_sequence(node)
        # collapse consecutive duplicates; transits are landmark changes
        collapsed: List[int] = []
        for lm in seq:
            if not collapsed or collapsed[-1] != lm:
                collapsed.append(lm)
        if len(collapsed) < min_visits:
            continue
        pred = MarkovPredictor(k, fallback=fallback)
        n_pred = 0
        n_corr = 0
        for lm in collapsed:
            guess = pred.predict()
            if guess is not None:
                n_pred += 1
                if guess[0] == lm:
                    n_corr += 1
            pred.update(lm)
        if n_pred:
            per_node[node] = n_corr / n_pred
            total_pred += n_pred
            total_correct += n_corr
    return PredictorEvaluation(
        k=k,
        per_node_accuracy=per_node,
        n_predictions=total_pred,
        n_correct=total_correct,
    )


def best_order(trace: Trace, ks: Sequence[int] = (1, 2, 3)) -> int:
    """Pick the k with the highest mean accuracy over the trace.

    This is the administrator procedure of Section IV-B.2: collect history,
    try several orders, keep the best.
    """
    best_k, best_acc = ks[0], -1.0
    for k in ks:
        acc = evaluate_predictor(trace, k).mean_accuracy
        if acc > best_acc:
            best_k, best_acc = k, acc
    return best_k
