"""Transit-link bandwidth measurement (Section IV-C.1 of the paper).

Each landmark maintains a *bandwidth table*: for every neighbour landmark,
the average number of node transits per time unit, smoothed with Eq. (4)::

    b_new = rho * n_t + (1 - rho) * b_prev

Incoming bandwidth (``b_{j->i}`` at landmark ``i``) is measured directly:
nodes arriving at ``i`` report the landmark they came from.  Outgoing
bandwidth (``b_{i->j}``) cannot be observed by ``i``, so landmark ``j``
tracks it and ships it back in a :class:`BackwardReport` carried by a node
predicted to transit ``j -> i``; reports carry the time-unit sequence number
and stale reports are discarded.  Until a report arrives, the estimator
falls back to the symmetry assumption (observation O3: matching links have
similar bandwidth).

Expected link delay
-------------------
The paper derives the expected delay of pushing data over a transit link
from its bandwidth (the exact formula is garbled in the available text).  We
reconstruct it as the expected wait for carrying capacity::

    delay(i -> j) = time_unit / max(b_ij, eps)

i.e. with ``b`` transiting nodes per time unit, a packet waits on average
``T_u / b`` for a carrier.  This preserves the property the routing layer
needs: delay is inversely proportional to measured bandwidth.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.utils.validation import require_in_range, require_positive

#: bandwidth floor preventing infinite delays on barely-used links
EPSILON_BANDWIDTH = 1e-6


class BackwardReport(NamedTuple):
    """Out-bandwidth feedback carried from landmark ``observer`` to ``target``.

    ``bandwidth`` is the smoothed bandwidth of the link ``target ->
    observer`` as measured at ``observer`` (its incoming bandwidth from
    ``target``), i.e. ``target``'s *outgoing* bandwidth toward
    ``observer``; ``seq`` is the observer's time-unit sequence number.
    """

    observer: int
    target: int
    seq: int
    bandwidth: float

    @property
    def n_entries(self) -> int:
        return 1


class BandwidthEstimator:
    """Per-landmark bandwidth table with EWMA smoothing and time units.

    Parameters
    ----------
    landmark_id:
        Owning landmark.
    time_unit:
        Length of a measurement time unit in seconds (paper: 3 days for
        DART, 0.5 day for DNET).
    rho:
        EWMA weight of the newest time unit's count.
    """

    def __init__(
        self,
        landmark_id: int,
        time_unit: float,
        *,
        rho: float = 0.5,
        start_time: float = 0.0,
    ) -> None:
        require_positive("time_unit", time_unit)
        require_in_range("rho", rho, 0.0, 1.0, inclusive_low=False)
        self.landmark_id = landmark_id
        self.time_unit = float(time_unit)
        self.rho = float(rho)
        self._unit_start = float(start_time)
        self._seq = 0
        # monotone change counter: bumps whenever any estimate can change
        # (a time-unit fold or an accepted backward report) - lets callers
        # cache derived values like link delays
        self._version = 0
        # incoming: src landmark -> (smoothed bandwidth, current-unit count)
        self._in_bw: Dict[int, float] = {}
        self._in_count: Dict[int, int] = {}
        # outgoing: dst landmark -> (bandwidth, seq of the report that set it)
        self._out_bw: Dict[int, Tuple[float, int]] = {}
        #: optional observability hook, invoked as ``observer(kind, **info)``
        #: whenever an estimate changes: ``kind="fold"`` after EWMA time-unit
        #: folds (info: seq, folded, n_links) and ``kind="report"`` after an
        #: accepted backward report (info: seq, observer_id, bandwidth)
        self.observer: Optional[Callable[..., None]] = None

    # -- time-unit handling ------------------------------------------------------
    @property
    def seq(self) -> int:
        """Current time-unit sequence number."""
        return self._seq

    @property
    def version(self) -> int:
        """Bumps whenever any bandwidth estimate may have changed."""
        return self._version

    def advance_to(self, t: float) -> int:
        """Fold completed time units up to time ``t``; returns units folded.

        Each fold applies Eq. (4) to every incoming link (links with no
        arrivals this unit fold a zero sample, decaying their estimate).
        """
        folded = 0
        while t >= self._unit_start + self.time_unit:
            for src in list(self._in_bw.keys() | self._in_count.keys()):
                n_t = self._in_count.get(src, 0)
                prev = self._in_bw.get(src, 0.0)
                self._in_bw[src] = self.rho * n_t + (1.0 - self.rho) * prev
            self._in_count.clear()
            self._unit_start += self.time_unit
            self._seq += 1
            folded += 1
        if folded:
            self._version += 1
            if self.observer is not None:
                self.observer(
                    "fold", seq=self._seq, folded=folded, n_links=len(self._in_bw)
                )
        return folded

    # -- observations ---------------------------------------------------------------
    def record_arrival(self, src_landmark: int, t: float) -> None:
        """A node just arrived from ``src_landmark`` at time ``t``."""
        if src_landmark == self.landmark_id:
            return
        self.advance_to(t)
        self._in_count[src_landmark] = self._in_count.get(src_landmark, 0) + 1

    def apply_backward_report(self, report: BackwardReport) -> bool:
        """Apply an out-bandwidth report; returns False if stale/misrouted.

        Following the paper, a report is accepted only when its time-unit
        sequence number is newer than what we already hold for that link.
        """
        if report.target != self.landmark_id:
            return False
        current = self._out_bw.get(report.observer)
        if current is not None and report.seq <= current[1]:
            return False
        self._out_bw[report.observer] = (report.bandwidth, report.seq)
        self._version += 1
        if self.observer is not None:
            self.observer(
                "report",
                seq=report.seq,
                observer_id=report.observer,
                bandwidth=report.bandwidth,
            )
        return True

    def make_backward_report(self, target: int) -> Optional[BackwardReport]:
        """Build the report this landmark sends back to neighbour ``target``.

        It communicates our *incoming* bandwidth from ``target``, which is
        ``target``'s outgoing bandwidth toward us.
        """
        bw = self._in_bw.get(target)
        if bw is None:
            return None
        return BackwardReport(self.landmark_id, target, self._seq, bw)

    # -- queries --------------------------------------------------------------------
    def incoming_bandwidth(self, src_landmark: int) -> float:
        """Smoothed transits/unit on link ``src_landmark -> here``."""
        return self._in_bw.get(src_landmark, 0.0)

    def outgoing_bandwidth(self, dst_landmark: int) -> float:
        """Smoothed transits/unit on link ``here -> dst_landmark``.

        Uses the freshest backward report when available, otherwise the
        symmetry assumption (O3): our *incoming* bandwidth from ``dst``.
        """
        rep = self._out_bw.get(dst_landmark)
        if rep is not None:
            return rep[0]
        return self._in_bw.get(dst_landmark, 0.0)

    def known_neighbors(self) -> List[int]:
        """Landmarks with any measured bandwidth in either direction."""
        return sorted(set(self._in_bw) | set(self._out_bw) | set(self._in_count))

    def expected_link_delay(self, dst_landmark: int) -> float:
        """Expected delay (seconds) of forwarding a packet over a link."""
        bw = self.outgoing_bandwidth(dst_landmark)
        return self.time_unit / max(bw, EPSILON_BANDWIDTH)

    def bandwidth_table(self) -> Dict[int, float]:
        """Snapshot of outgoing bandwidths (Table III)."""
        return {dst: self.outgoing_bandwidth(dst) for dst in self.known_neighbors()}
