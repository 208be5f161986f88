"""Synthetic mobility models substituting for the paper's proprietary traces.

The paper evaluates on two real traces we cannot redistribute:

* **DART** — Dartmouth campus WLAN logs (320 nodes / 159 landmarks after
  cleaning, ~119 days), students moving between buildings;
* **DNET** — UMass DieselNet bus logs (34 buses / 18 landmarks, ~26 days),
  buses cycling fixed routes past roadside APs.

Per the substitution rule, :class:`CampusMobilityModel` and
:class:`BusMobilityModel` generate traces with the same structural properties
the paper's design rests on:

* **O1** — each landmark is *frequently* visited by only a small node subset
  (community structure: departments, dorms; buses on their own routes);
* **O2** — a few transit links carry most of the flow;
* **O3** — matching transit links (both directions) have symmetric bandwidth
  (routine movement is a closed walk over the day);
* **O4** — per-time-unit link bandwidth is stable around its mean, except
  during holidays (campus model) — reproducing Fig. 4's Thanksgiving and
  Christmas dips.

Both models can emit *raw* logs (with missing records and spurious short
connections) so the full preprocessing pipeline of the paper is exercised;
missing records are also what makes the order-1 Markov predictor beat
order-2/3, as the paper observes in Fig. 6(a).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.mobility.parsers import ApSighting, RawAssociation
from repro.mobility.preprocess import PreprocessPipeline
from repro.mobility.stream import TraceStream
from repro.mobility.trace import SECONDS_PER_DAY, Trace, VisitRecord, hours
from repro.utils.validation import require_positive

__all__ = [
    "CampusConfig",
    "CampusMobilityModel",
    "BusConfig",
    "BusMobilityModel",
    "DeploymentConfig",
    "CampusDeploymentModel",
    "dart_like",
    "dnet_like",
    "deployment_trace",
]


# ---------------------------------------------------------------------------
# Campus (DART-like) model
# ---------------------------------------------------------------------------

#: per-visit draws of the campus generators: a lognormal dwell around a
#: one-hour median, capped at four hours, then a 4-18 minute walk.  The
#: median stays a numpy float: ``Generator.lognormal`` takes it faster
#: than a Python float of the same value.
_LOG_DWELL_MEDIAN = np.log(hours(1.0))
_DWELL_SIGMA = 0.5
_MAX_DWELL = hours(4)
_MIN_TRAVEL, _MAX_TRAVEL = 4 * 60, 18 * 60
#: the earliest a campus day starts: the first visit of an active day
#: (a stay-home day starts later, at 9 h)
_DAY_START = hours(7.5)


def choice_cdf(weights: np.ndarray) -> List[float]:
    """The CDF ``Generator.choice(len(weights), p=weights)`` draws against.

    Built exactly as ``choice`` builds it (``cumsum``, divided by its last
    entry), so ``bisect_right(cdf, rng.random())`` picks the index
    ``choice`` would from the same single draw, leaving the generator in
    the same state, at a fraction of ``choice``'s per-call cost.
    """
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _merge_days(
    model: str, days: int, day_start: float, day_records: Callable[[int], List[VisitRecord]]
) -> Iterator[VisitRecord]:
    """All nodes' records in time order, merged one simulated day at a time.

    ``day_records(d)`` returns every node's day-``d`` records, none starting
    before ``d * SECONDS_PER_DAY + day_start``.  Each day's records are
    sorted with those carried from earlier days; the ones that start before
    day ``d + 1`` can begin are final, the rest carry over.  So one
    simulated day of records is held, and a record that starts before its
    own day can begin raises ValueError instead of coming out of order.
    """

    def batches() -> Iterator[List[VisitRecord]]:
        carry: List[VisitRecord] = []
        for day in range(days):
            batch = day_records(day) + carry
            batch.sort()
            if batch and batch[0].start < day * SECONDS_PER_DAY + day_start:
                raise ValueError(
                    f"{model} node {batch[0].node}: a day-{day} record starts at "
                    f"{batch[0].start!r}, before day {day} can begin"
                )
            cut = bisect_left(batch, ((day + 1) * SECONDS_PER_DAY + day_start,))
            carry = batch[cut:]
            del batch[cut:]
            yield batch
            del batch  # consumed: free it before the next day is drawn
        yield carry

    return chain.from_iterable(batches())


@dataclass
class CampusConfig:
    """Parameters of the campus mobility generator.

    The defaults are the "small" preset used by tests and scaled benchmarks;
    :func:`dart_like` exposes presets, including the paper-scale one.
    """

    n_nodes: int = 60
    n_departments: int = 6
    buildings_per_department: int = 2
    n_dorms: int = 6
    n_dining: int = 2
    n_misc: int = 2  # gyms, auditoriums - visited rarely, by anyone
    days: int = 40
    #: inclusive day ranges with strongly reduced mobility (holidays)
    holidays: Sequence[Tuple[int, int]] = ((18, 21),)
    weekend_activity: float = 0.45
    holiday_activity: float = 0.08
    #: probability a routine step is replaced by a random excursion
    deviation_prob: float = 0.08
    #: fraction of excursions that go to a uniformly random landmark (rather
    #: than a preferred one) - occasional campus-wide wandering
    explore_frac: float = 0.2
    #: probability that a visit is actually logged (device on) - missing
    #: records are what degrade high-order Markov predictors (Fig. 6a)
    log_prob: float = 0.85
    #: rate of spurious short associations per node per day in the raw log
    noise_rate: float = 1.5
    routine_length: int = 6

    @property
    def n_landmarks(self) -> int:
        return (
            1  # library
            + self.n_departments * self.buildings_per_department
            + self.n_dorms
            + self.n_dining
            + self.n_misc
        )


class CampusMobilityModel:
    """Community-structured student mobility over campus buildings.

    Every node belongs to a department and a dorm.  It owns a daily *routine*
    — a canonical sequence of landmarks (dorm -> class -> dining -> class ->
    library -> dorm, individual per node) — and each day replays the routine
    with per-step deviations, weekend/holiday thinning, and missing-record
    noise.  The routine is what gives the order-1 Markov predictor its
    60-80 % accuracy, matching Fig. 6.
    """

    LIBRARY = 0

    def __init__(self, config: Optional[CampusConfig] = None, seed: int = 0) -> None:
        self.config = config or CampusConfig()
        cfg = self.config
        require_positive("n_nodes", cfg.n_nodes)
        require_positive("days", cfg.days)
        self.seed = int(seed)
        self.rng = np.random.default_rng(seed)

        # --- landmark layout ------------------------------------------------
        lm = 1
        self.department_buildings: List[List[int]] = []
        for _ in range(cfg.n_departments):
            self.department_buildings.append(
                list(range(lm, lm + cfg.buildings_per_department))
            )
            lm += cfg.buildings_per_department
        self.dorms = list(range(lm, lm + cfg.n_dorms))
        lm += cfg.n_dorms
        self.dining = list(range(lm, lm + cfg.n_dining))
        lm += cfg.n_dining
        self.misc = list(range(lm, lm + cfg.n_misc))
        lm += cfg.n_misc
        self.n_landmarks = lm

        # --- node membership --------------------------------------------------
        self.node_department = self.rng.integers(0, cfg.n_departments, cfg.n_nodes)
        self.node_dorm = np.array(
            [self.dorms[i % cfg.n_dorms] for i in range(cfg.n_nodes)]
        )
        self.rng.shuffle(self.node_dorm)
        # hub-and-spoke day structure: the hub is the node's main department
        # building; spokes (library, one preferred dining hall, the other
        # department buildings, ...) carry skewed per-node weights.  Returns
        # to the hub make matching transit links symmetric (O3) and keep
        # order-1 transitions predictable; the skewed weights give each
        # landmark a small set of frequent visitors (O1).
        self.node_hub = np.zeros(cfg.n_nodes, dtype=np.int64)
        self.node_spokes: List[List[int]] = []
        #: per-node spoke CDFs (see :func:`choice_cdf`)
        self.node_spoke_cdfs: List[List[float]] = []
        for n in range(cfg.n_nodes):
            dept = self.department_buildings[self.node_department[n]]
            self.node_hub[n] = dept[0]
            spokes = [self.LIBRARY]
            spokes.append(int(self.rng.choice(self.dining)))
            spokes.extend(dept[1:])
            if self.misc:
                spokes.append(int(self.rng.choice(self.misc)))
            self.node_spokes.append(spokes)
            # Dirichlet with small alpha => strongly skewed personal tastes
            w = self.rng.dirichlet(np.full(len(spokes), 0.25))
            self.node_spoke_cdfs.append(choice_cdf(w))

    # -- construction helpers --------------------------------------------------
    def _day_sequence(self, node: int, rng: np.random.Generator) -> List[int]:
        """One day's landmark sequence: dorm -> (hub -> spoke)* -> dorm.

        Spokes are drawn from the node's personal weights; with probability
        ``deviation_prob`` a spoke is replaced by an excursion (usually a
        preferred landmark, sometimes anywhere on campus).  The spoke ->
        hub return keeps order-1 transitions predictable and matching links
        symmetric; missing log records later corrupt longer contexts more,
        reproducing the paper's k=1 superiority (Fig. 6a).
        """
        cfg = self.config
        dorm = int(self.node_dorm[node])
        hub = int(self.node_hub[node])
        spokes = self.node_spokes[node]
        cdf = self.node_spoke_cdfs[node]
        n_excursions = max(1, int(rng.poisson((cfg.routine_length - 2) / 2.0)))
        # mornings sometimes start at a spoke, evenings sometimes end from
        # one: the variation keeps matching links symmetric in aggregate
        # while denying order-2 contexts a reliable day-boundary signal
        seq = [dorm]
        if rng.random() < 0.85:
            seq.append(hub)
        for i in range(n_excursions):
            if rng.random() < cfg.deviation_prob:
                if rng.random() < cfg.explore_frac:
                    spoke = int(rng.integers(0, self.n_landmarks))
                else:
                    spoke = spokes[int(rng.integers(0, len(spokes)))]
            else:
                spoke = spokes[bisect_right(cdf, rng.random())]
            if spoke != seq[-1]:
                seq.append(spoke)
            if i < n_excursions - 1 or rng.random() < 0.55:
                seq.append(hub)
        seq.append(dorm)
        # drop consecutive duplicates (hub == dorm etc.)
        out = [seq[0]]
        for lm in seq[1:]:
            if lm != out[-1]:
                out.append(lm)
        return out

    def _activity(self, day: int) -> float:
        cfg = self.config
        for lo, hi in cfg.holidays:
            if lo <= day <= hi:
                return cfg.holiday_activity
        if day % 7 in (5, 6):  # weekend
            return cfg.weekend_activity
        return 1.0

    # -- generation ----------------------------------------------------------------
    def _node_day_records(
        self, node: int, day: int, rng: np.random.Generator
    ) -> List[VisitRecord]:
        """One node's visit records for one day, drawn from ``rng``.

        The one day generator: :meth:`generate_visits` drives it with the
        model's RNG, node by node and day by day; :meth:`stream_visits`
        with each node's own spawned RNG.
        """
        act = self._activity(day)
        if rng.random() > act and act < 1.0:
            # node stays home: one long dorm visit, maybe unlogged
            t0 = day * SECONDS_PER_DAY + hours(9) + rng.uniform(0, hours(2))
            return [
                VisitRecord(
                    start=t0,
                    end=t0 + hours(10),
                    node=node,
                    landmark=int(self.node_dorm[node]),
                )
            ]
        lognormal, uniform = rng.lognormal, rng.uniform
        records: List[VisitRecord] = []
        t = day * SECONDS_PER_DAY + _DAY_START + uniform(0, hours(1.5))
        for lm in self._day_sequence(node, rng):
            dwell = min(lognormal(_LOG_DWELL_MEDIAN, _DWELL_SIGMA), _MAX_DWELL)
            records.append(VisitRecord(t, t + dwell, node, int(lm)))
            travel = uniform(_MIN_TRAVEL, _MAX_TRAVEL)
            t += dwell + travel
        return records

    def generate_visits(self) -> List[VisitRecord]:
        """Generate clean landmark-level visit records (no logging noise)."""
        cfg, rng = self.config, self.rng
        records: List[VisitRecord] = []
        for node in range(cfg.n_nodes):
            for day in range(cfg.days):
                records += self._node_day_records(node, day, rng)
        return sorted(records)

    # -- streaming generation -------------------------------------------------------
    def stream_visits(self) -> Iterator[VisitRecord]:
        """Clean visit records as one time-ordered generator.

        Streaming counterpart of :meth:`generate_visits`, holding one
        simulated day of records instead of the whole trace
        (:func:`_merge_days`).  Each node draws from its own RNG stream
        (``SeedSequence(seed, spawn_key=(node,))``, the spawned child
        sequence of the model seed), so the records differ from the
        single-RNG :meth:`generate_visits` draw order — same distribution,
        different sample; committed baselines built on ``generate_visits``
        are untouched.  Deterministic in the model seed: same seed, same
        sequence, whether consumed lazily or materialized.
        """
        rngs = [
            np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(node,)))
            for node in range(self.config.n_nodes)
        ]

        def day_records(day: int) -> List[VisitRecord]:
            batch: List[VisitRecord] = []
            for node, rng in enumerate(rngs):
                batch += self._node_day_records(node, day, rng)
            return batch

        return _merge_days("campus", self.config.days, _DAY_START, day_records)

    def trace_stream(self, name: str = "campus-stream") -> TraceStream:
        """The streamed visits as a re-iterable :class:`TraceStream`."""
        return TraceStream.from_source(self.stream_visits, name=name)

    def generate_raw_log(self) -> List[RawAssociation]:
        """Emit a DART-style raw association log with realistic defects.

        Defects: a fraction of visits are never logged (device off), and
        spurious sub-200 s associations appear at random buildings.  The
        preprocessing pipeline must clean both.
        """
        cfg = self.config
        rng = self.rng
        out: List[RawAssociation] = []
        for rec in self.generate_visits():
            if rng.random() > cfg.log_prob:
                continue
            out.append(
                RawAssociation(
                    node=rec.node,
                    ap=f"bldg{rec.landmark:03d}",
                    start=rec.start,
                    end=rec.end,
                )
            )
        n_noise = rng.poisson(cfg.noise_rate * cfg.n_nodes * cfg.days)
        horizon = cfg.days * SECONDS_PER_DAY
        for _ in range(int(n_noise)):
            t0 = rng.uniform(0, horizon - 200)
            out.append(
                RawAssociation(
                    node=int(rng.integers(0, cfg.n_nodes)),
                    ap=f"bldg{int(rng.integers(0, self.n_landmarks)):03d}",
                    start=t0,
                    end=t0 + rng.uniform(5, 180),
                )
            )
        return sorted(out, key=lambda r: (r.start, r.node))


# ---------------------------------------------------------------------------
# Bus (DNET-like) model
# ---------------------------------------------------------------------------


@dataclass
class BusConfig:
    """Parameters of the bus-network mobility generator."""

    n_buses: int = 34
    n_stops: int = 18
    n_routes: int = 6
    days: int = 26
    route_length_range: Tuple[int, int] = (4, 8)
    aps_per_stop_range: Tuple[int, int] = (1, 3)
    dwell_range: Tuple[float, float] = (120.0, 420.0)  # seconds at a stop
    travel_range: Tuple[float, float] = (420.0, 1200.0)  # seconds between stops
    service_start_hour: float = 6.0
    service_end_hour: float = 22.0
    #: probability a stop visit goes unlogged (roadside APs not dedicated)
    miss_prob: float = 0.12
    #: probability a sighting logs an AP of the *next* stop (radio overlap) -
    #: the paper attributes DNET's lower prediction accuracy to exactly this
    #: kind of AP ambiguity
    overlap_prob: float = 0.08
    #: per-bus per-day probability of an unscheduled garage/maintenance trip
    #: (the dead-end scenario of Section IV-E.1); with the default AP-count
    #: filter the rare garage APs are cleaned out of the trace - raise this
    #: (and relax the filter) to study dead ends, as the Table VI bench does
    garage_prob: float = 0.03
    garage_stay_range: Tuple[float, float] = (hours(5), hours(12))
    #: whether the whole fleet shares one depot (typical for a small transit
    #: agency).  A shared garage sees traffic from every route, so packets a
    #: dead-ended bus hands over can leave with the next bus of any route -
    #: the recovery path the dead-end extension (IV-E.1) relies on
    shared_garage: bool = True
    #: per-bus per-day probability of a *breakdown*: the bus stalls for hours
    #: at a regular stop (still within radio range of the stop's APs).  This
    #: is the dead-end scenario the Table VI experiment uses - the stop has
    #: pass-through traffic, so handed-over packets can be re-routed
    breakdown_prob: float = 0.0
    breakdown_stay_range: Tuple[float, float] = (hours(4), hours(9))
    #: probability a bus runs its *main* route on a given day; otherwise it
    #: is rostered onto another route (vehicles rotate in real transit
    #: systems, which spreads every bus's visiting support across stops
    #: while keeping the visiting skew of observation O1)
    main_route_prob: float = 0.9
    #: probability the bus drives its *preferred* direction on a given day.
    #: Half the fleet prefers the forward loop and half the reverse, so the
    #: aggregate flow on matching transit links is symmetric (O3) while each
    #: individual bus stays predictable
    direction_consistency: float = 0.95
    #: grid spacing between stops in km (must exceed the 1.5 km AP-cluster
    #: radius so distinct stops stay distinct landmarks)
    stop_spacing_km: float = 2.2


class BusMobilityModel:
    """Buses cycling fixed routes past roadside APs (DieselNet-like).

    Stops sit on a jittered grid with >1.5 km spacing; each stop hosts 1-3
    APs within ~150 m, so the AP-clustering stage of preprocessing collapses
    them back into one landmark per stop.  Each route also has a *garage*
    stop where buses occasionally disappear for hours — the dead-end case.
    """

    def __init__(self, config: Optional[BusConfig] = None, seed: int = 0) -> None:
        self.config = config or BusConfig()
        cfg = self.config
        require_positive("n_buses", cfg.n_buses)
        self.seed = int(seed)
        self.rng = np.random.default_rng(seed)

        # --- stop geography: jittered grid around Amherst, MA --------------------
        side = int(np.ceil(np.sqrt(cfg.n_stops + cfg.n_routes)))
        base_lat, base_lon = 42.375, -72.52
        km_per_deg_lat = 111.0
        km_per_deg_lon = 111.0 * np.cos(np.radians(base_lat))
        coords: List[Tuple[float, float]] = []
        for i in range(cfg.n_stops + cfg.n_routes):  # extra cells host garages
            r, c = divmod(i, side)
            jitter = self.rng.uniform(-0.15, 0.15, 2)
            coords.append(
                (
                    base_lat + (r * cfg.stop_spacing_km + jitter[0]) / km_per_deg_lat,
                    base_lon + (c * cfg.stop_spacing_km + jitter[1]) / km_per_deg_lon,
                )
            )
        self.stop_coords = coords[: cfg.n_stops]
        self.garage_coords = coords[cfg.n_stops :]

        # --- APs per stop ------------------------------------------------------------
        self.stop_aps: List[List[str]] = []
        self.ap_coords: Dict[str, Tuple[float, float]] = {}
        for s, (lat, lon) in enumerate(self.stop_coords):
            n_aps = int(self.rng.integers(cfg.aps_per_stop_range[0], cfg.aps_per_stop_range[1] + 1))
            aps = []
            for a in range(n_aps):
                name = f"ap_s{s:02d}_{a}"
                d = self.rng.uniform(-0.0012, 0.0012, 2)  # ~130 m jitter
                self.ap_coords[name] = (lat + d[0], lon + d[1])
                aps.append(name)
            self.stop_aps.append(aps)
        self.garage_aps: List[str] = []
        for g, (lat, lon) in enumerate(self.garage_coords):
            name = f"ap_g{g:02d}"
            self.ap_coords[name] = (lat, lon)
            self.garage_aps.append(name)

        # --- routes ----------------------------------------------------------------
        self.routes: List[List[int]] = []
        stops = list(range(cfg.n_stops))
        for r in range(cfg.n_routes):
            lo, hi = cfg.route_length_range
            length = int(self.rng.integers(lo, hi + 1))
            # routes share stops: draw a random walk over nearby stops so the
            # landmark graph is connected and some links are popular (O2)
            start = stops[r % len(stops)]
            route = [start]
            while len(route) < length:
                cur = route[-1]
                # prefer geographically near stops
                dists = [
                    (abs(self.stop_coords[s][0] - self.stop_coords[cur][0])
                     + abs(self.stop_coords[s][1] - self.stop_coords[cur][1]), s)
                    for s in stops
                    if s != cur and s not in route[-2:]
                ]
                dists.sort()
                cand = [s for _, s in dists[:4]]
                route.append(int(self.rng.choice(cand)))
            self.routes.append(route)
        self.bus_route = [r % cfg.n_routes for r in range(cfg.n_buses)]

    def _bus_stays(
        self, bus: int, rng: np.random.Generator
    ) -> Iterator[Tuple[int, float, float, int, Optional[int]]]:
        """One bus's motion, lazily: ``(day, start, end, landmark, next_stop)``.

        The one motion loop: daily rostering (usually the main route),
        direction preference, staggered pull-out, then stop after stop
        until the service day ends, with the day's breakdown (a long stall
        at the stop just reached) and unscheduled garage trip at their
        drawn steps.  A stop stay carries the route's next stop (the AP a
        radio overlap logs); breakdown and garage stays carry ``None``.
        Landmarks are stop indices, and ``n_stops + g`` for garage ``g``.

        Draws come from ``rng`` as the generator advances, so a consumer
        may draw from the same RNG between stays: :meth:`generate_sightings`
        draws each sighting's log defects there.
        """
        cfg = self.config
        uniform = rng.uniform
        main_route = self.bus_route[bus]
        garage_lm = cfg.n_stops
        if not cfg.shared_garage:
            garage_lm += main_route % len(self.garage_aps)
        pos = int(rng.integers(0, 32))
        # alternate direction within each route's fleet: buses are dealt
        # to routes round-robin, so the parity of bus // n_routes
        # alternates *within* a route rather than *across* routes
        preferred_reverse = (bus // max(1, cfg.n_routes)) % 2 == 1
        for day in range(cfg.days):
            # daily rostering: usually the main route, sometimes another
            if cfg.n_routes > 1 and rng.random() >= cfg.main_route_prob:
                others = [r for r in range(cfg.n_routes) if r != main_route]
                route = self.routes[others[int(rng.integers(0, len(others)))]]
            else:
                route = self.routes[main_route]
            reverse = preferred_reverse == (rng.random() < cfg.direction_consistency)
            if reverse:
                route = route[::-1]
            n = len(route)
            t = day * SECONDS_PER_DAY + hours(cfg.service_start_hour)
            t += uniform(0, 1200)  # staggered pull-out
            day_end = day * SECONDS_PER_DAY + hours(cfg.service_end_hour)
            # unscheduled maintenance happens on a few days per month:
            # pick the step at which the bus will pull into the garage
            garage_step = -1
            if rng.random() < cfg.garage_prob:
                garage_step = int(rng.integers(5, 30))
            breakdown_step = -1
            if rng.random() < cfg.breakdown_prob:
                breakdown_step = int(rng.integers(5, 30))
            step = 0
            while t < day_end:
                dwell = uniform(*cfg.dwell_range)
                yield day, t, t + dwell, route[pos % n], route[(pos + 1) % n]
                t += dwell + uniform(*cfg.travel_range)
                pos += 1
                step += 1
                if step == breakdown_step:
                    # breakdown: the bus stalls at the stop it just reached,
                    # still within range of the stop's APs
                    stall = uniform(*cfg.breakdown_stay_range)
                    yield day, t, t + stall, route[pos % n], None
                    t += stall
                if step == garage_step:
                    # unscheduled maintenance: long silent stay at the garage
                    stay = uniform(*cfg.garage_stay_range)
                    yield day, t, t + stay, garage_lm, None
                    t += stay

    def generate_sightings(self) -> List[ApSighting]:
        """Emit the raw DNET-style AP sighting log (with defects).

        Each bus's motion (:meth:`_bus_stays`) and its log defects draw
        from the model's RNG in turn: a stop goes unlogged or, through
        radio overlap, logs the next stop's AP, and every logged stop or
        breakdown picks one of the stop's APs.
        """
        cfg = self.config
        rng = self.rng
        out: List[ApSighting] = []
        for bus in range(cfg.n_buses):
            for _, start, end, lm, next_stop in self._bus_stays(bus, rng):
                if lm >= cfg.n_stops:  # a garage has one AP
                    ap = self.garage_aps[lm - cfg.n_stops]
                else:
                    if next_stop is not None:  # a stop, not a breakdown
                        if rng.random() < cfg.miss_prob:
                            continue
                        if rng.random() < cfg.overlap_prob:
                            lm = next_stop
                    aps = self.stop_aps[lm]
                    ap = aps[int(rng.integers(0, len(aps)))]
                lat, lon = self.ap_coords[ap]
                out.append(ApSighting(bus, ap, lat, lon, start, end))
        return sorted(out, key=lambda s: (s.start, s.node))

    # -- streaming generation -------------------------------------------------------
    def stream_visits(self) -> Iterator[VisitRecord]:
        """Clean stop-level visits for the whole fleet, time-ordered.

        The :meth:`_bus_stays` motion minus the radio-log defects of
        :meth:`generate_sightings` — the ground truth preprocessing tries
        to recover — merged one day at a time (:func:`_merge_days`), each
        bus read up to its first stay of the next day.  Each bus draws
        from its own spawned RNG stream, so the stream is deterministic in
        the model seed and independent of ``generate_sightings``.
        """
        fleet = [
            self._bus_stays(
                bus, np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(bus,)))
            )
            for bus in range(self.config.n_buses)
        ]
        # each bus's first stay not yet in a batch
        heads = [next(stays, None) for stays in fleet]

        def day_records(day: int) -> List[VisitRecord]:
            batch: List[VisitRecord] = []
            for bus, stays in enumerate(fleet):
                stay = heads[bus]
                while stay is not None and stay[0] == day:
                    batch.append(VisitRecord(stay[1], stay[2], bus, stay[3]))
                    stay = next(stays, None)
                heads[bus] = stay
            return batch

        return _merge_days(
            "bus", self.config.days, hours(self.config.service_start_hour), day_records
        )

    def trace_stream(self, name: str = "bus-stream") -> TraceStream:
        """The streamed fleet visits as a re-iterable :class:`TraceStream`."""
        return TraceStream.from_source(self.stream_visits, name=name)


# ---------------------------------------------------------------------------
# Campus deployment (Section V-C) model
# ---------------------------------------------------------------------------


@dataclass
class DeploymentConfig:
    """The real-deployment scenario: 9 phones, 8 buildings, library sink.

    Landmark ids follow Fig. 15: L0 is the library (paper's L1); L1-L4 are
    department buildings; L5-L7 are the student centre and dining halls.
    """

    n_nodes: int = 9
    days: int = 3
    #: which department building each student belongs to; the paper's
    #: students came from four departments, most from two of them
    node_department: Sequence[int] = (1, 1, 1, 2, 2, 2, 3, 4, 2)
    deviation_prob: float = 0.15

    LIBRARY: int = 0
    DEPARTMENTS: Sequence[int] = (1, 2, 3, 4)
    SOCIAL: Sequence[int] = (5, 6, 7)

    @property
    def n_landmarks(self) -> int:
        return 8


class CampusDeploymentModel:
    """Small-deployment mobility: students oscillate dept <-> library."""

    def __init__(self, config: Optional[DeploymentConfig] = None, seed: int = 7) -> None:
        self.config = config or DeploymentConfig()
        self.rng = np.random.default_rng(seed)
        if len(self.config.node_department) != self.config.n_nodes:
            raise ValueError("node_department must list one department per node")

    def generate_visits(self) -> List[VisitRecord]:
        cfg = self.config
        rng = self.rng
        records: List[VisitRecord] = []
        for node in range(cfg.n_nodes):
            dept = cfg.node_department[node]
            # routine: class - library - dining - class - library
            routine = [dept, cfg.LIBRARY, int(rng.choice(cfg.SOCIAL)), dept, cfg.LIBRARY]
            for day in range(cfg.days):
                t = day * SECONDS_PER_DAY + hours(8) + rng.uniform(0, hours(1))
                prev = None
                for lm in routine:
                    if rng.random() < cfg.deviation_prob:
                        lm = int(rng.integers(0, cfg.n_landmarks))
                    if lm == prev:
                        continue
                    dwell = rng.uniform(hours(0.5), hours(2))
                    records.append(
                        VisitRecord(start=t, end=t + dwell, node=node, landmark=int(lm))
                    )
                    t += dwell + rng.uniform(300, 900)
                    prev = lm
        return sorted(records)


# ---------------------------------------------------------------------------
# Preset factories
# ---------------------------------------------------------------------------

_CAMPUS_PRESETS: Dict[str, CampusConfig] = {
    "tiny": CampusConfig(
        n_nodes=16, n_departments=3, buildings_per_department=1, n_dorms=3,
        n_dining=1, n_misc=1, days=14, holidays=((8, 9),),
    ),
    "small": CampusConfig(),
    "medium": CampusConfig(
        n_nodes=120, n_departments=10, buildings_per_department=2, n_dorms=10,
        n_dining=3, n_misc=3, days=60, holidays=((20, 23), (40, 47)),
    ),
    # paper scale: 320 nodes / 159 landmarks / ~119 days
    "full": CampusConfig(
        n_nodes=320, n_departments=36, buildings_per_department=3, n_dorms=36,
        n_dining=8, n_misc=6, days=119, holidays=((25, 28), (52, 64)),
    ),
}

_BUS_PRESETS: Dict[str, BusConfig] = {
    "tiny": BusConfig(n_buses=8, n_stops=8, n_routes=3, days=8),
    "small": BusConfig(n_buses=16, n_stops=12, n_routes=4, days=14),
    # paper scale: 34 buses / 18 landmarks / 26 days
    "full": BusConfig(),
}


def _scaled_pipeline(cfg_days: int, n_nodes: int) -> PreprocessPipeline:
    """Pipeline with activity thresholds scaled to the synthetic trace size.

    The paper's absolute thresholds (500 records/node, 50 sightings/AP) suit
    multi-month traces; smaller presets use proportionally smaller cuts so
    the filters still bite without emptying the trace.
    """
    min_node_records = max(3, int(2 * cfg_days / 7))
    min_ap = max(3, int(cfg_days))
    # a central station is only worth deploying where nodes actually go:
    # require on the order of one visit per day
    min_lm_visits = max(5, int(cfg_days))
    return PreprocessPipeline(
        min_node_records=min_node_records,
        min_ap_count=min_ap,
        min_landmark_visits=min_lm_visits,
    )


def dart_like(scale: str = "small", seed: int = 0, *, preprocess: bool = True) -> Trace:
    """Build a DART-like campus trace at the given preset ``scale``.

    With ``preprocess=True`` (default) the model emits a raw association log
    which is then run through the full cleaning pipeline, exactly as the
    paper did with the real DART data.
    """
    if scale not in _CAMPUS_PRESETS:
        raise ValueError(f"unknown scale {scale!r}; options: {sorted(_CAMPUS_PRESETS)}")
    cfg = _CAMPUS_PRESETS[scale]
    model = CampusMobilityModel(cfg, seed=seed)
    name = f"DART-like[{scale}]"
    if not preprocess:
        return Trace(model.generate_visits(), name=name)
    raw = model.generate_raw_log()
    pipeline = _scaled_pipeline(cfg.days, cfg.n_nodes)
    return pipeline.run_dart(raw, name=name)


def dnet_like(scale: str = "small", seed: int = 0, *, preprocess: bool = True) -> Trace:
    """Build a DNET-like bus trace at the given preset ``scale``."""
    if scale not in _BUS_PRESETS:
        raise ValueError(f"unknown scale {scale!r}; options: {sorted(_BUS_PRESETS)}")
    cfg = _BUS_PRESETS[scale]
    model = BusMobilityModel(cfg, seed=seed)
    name = f"DNET-like[{scale}]"
    sightings = model.generate_sightings()
    if not preprocess:
        from repro.mobility.parsers import sightings_to_associations

        assocs, _ = sightings_to_associations(sightings)
        pipeline = PreprocessPipeline(min_node_records=0, min_ap_count=0)
        return pipeline.run_dart(assocs, name=name)
    pipeline = _scaled_pipeline(cfg.days, cfg.n_buses)
    return pipeline.run_dnet(sightings, name=name)


def deployment_trace(days: int = 3, seed: int = 7) -> Trace:
    """Build the Section V-C campus-deployment trace (9 nodes, 8 landmarks)."""
    cfg = DeploymentConfig(days=days)
    model = CampusDeploymentModel(cfg, seed=seed)
    return Trace(model.generate_visits(), name="deployment")
