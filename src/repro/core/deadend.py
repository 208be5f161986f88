"""Dead-end prevention (Section IV-E.1 of the paper).

A carrier may end up stuck at a "wrong" landmark (e.g. a bus pulled into the
garage for maintenance) with packets it cannot advance.  Each node tracks its
historical average stay time, overall and per landmark; a *dead end* is
declared at landmark ``L`` when either

* the node has stayed at ``L`` more than ``gamma`` times longer than its
  average stay over *all* landmarks (dead end on its regular route), or
* it has stayed more than ``gamma`` times longer than its average stay *at
  L* (an abrupt dead end, e.g. unexpected maintenance).

On detection the node hands all its packets back to the landmark station so
they can be re-routed through other carriers.  Detection is suppressed until
the node has accumulated ``min_history`` stays (paper: "only when a node has
accumulated enough historical records"), preventing false positives.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.utils.validation import require_positive

#: range checks ``(name, value)`` of the stay-time factor ``gamma`` and of
#: the stays needed before detection; the DTN-FLOW config applies the same
#: ones to its keys
check_gamma = require_positive
check_min_history = require_positive


class DeadEndDetector:
    """Per-node stay-time statistics and dead-end test."""

    def __init__(self, gamma: float = 2.0, min_history: int = 10) -> None:
        check_gamma("gamma", gamma)
        check_min_history("min_history", min_history)
        self.gamma = float(gamma)
        self.min_history = int(min_history)
        self._per_landmark: Dict[int, Tuple[float, int]] = {}  # total, count
        self._total_stay = 0.0
        self._n_stays = 0

    # -- learning ---------------------------------------------------------------
    def record_stay(self, landmark: int, duration: float) -> None:
        """Fold a completed stay of ``duration`` seconds at ``landmark``."""
        if duration < 0:
            raise ValueError(f"negative stay duration {duration}")
        total, count = self._per_landmark.get(landmark, (0.0, 0))
        self._per_landmark[landmark] = (total + duration, count + 1)
        self._total_stay += duration
        self._n_stays += 1

    # -- queries --------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """Whether enough history exists to detect dead ends reliably."""
        return self._n_stays >= self.min_history

    def average_stay(self) -> Optional[float]:
        if self._n_stays == 0:
            return None
        return self._total_stay / self._n_stays

    def average_stay_at(self, landmark: int) -> Optional[float]:
        rec = self._per_landmark.get(landmark)
        if rec is None or rec[1] == 0:
            return None
        return rec[0] / rec[1]

    def is_dead_end(self, landmark: int, stay_so_far: float) -> bool:
        """Test the paper's two dead-end conditions for the current stay."""
        if not self.ready:
            return False
        overall = self.average_stay()
        if overall is not None and stay_so_far > self.gamma * overall:
            return True
        local = self.average_stay_at(landmark)
        if local is not None and stay_so_far > self.gamma * local:
            return True
        return False
