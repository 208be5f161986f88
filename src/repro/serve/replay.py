"""Wall-clock trace replay: feed a recorded scenario back through a live
engine, streaming its events in (dilated) real time.

The simulator normally collapses days of simulated DTN traffic into
seconds of wall clock.  Replay inverts that: a single-point scenario runs
with full event tracing, and every traced event (packet lifecycle and
``fault.*`` by default — configurable) passes through the
:class:`~repro.obs.events.EventLog` *tap* synchronously on the engine
thread, where this module sleeps just long enough that consecutive events
reach the subscriber at ``sim_seconds / speed`` wall-clock spacing.  A
``speed`` of 86400 replays a day of simulation per wall-clock second;
``speed=0`` disables pacing (as fast as the engine runs — what tests
use).

Because pacing only ever *delays* the engine between events, the run's
metrics are bit-identical to an unpaced batch execution of the same
scenario — the replay summary doubles as a parity check.

Replay sources: an inline scenario manifest, a preset name, or the
``scenario_hash`` of any stored point
(:func:`repro.store.query.scenario_for_hash` resurrects the recorded
resolved-scenario dict).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.eval.scenario import ScenarioSpec, load_scenario, run_scenario
from repro.obs import events as event_types
from repro.obs.runtime import Observability
from repro.store import ExperimentDB, scenario_for_hash

__all__ = ["ReplayRequest", "replay_stream"]

#: event classes streamed when the request names none
DEFAULT_REPLAY_EVENTS = tuple(
    sorted(event_types.PACKET_EVENTS | event_types.FAULT_EVENTS)
)

#: never sleep longer than this per gap, so a sparse trace stays responsive
_MAX_SLEEP = 5.0

#: a sink callback: (sse event name, payload) -> None; raising aborts replay
ReplaySink = Callable[[str, Dict[str, Any]], None]


class ReplayRequest:
    """A validated ``POST /v1/replay`` body."""

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        speed: float = 0.0,
        etypes: Optional[Tuple[str, ...]] = None,
        limit: Optional[int] = None,
        event_capacity: int = 200_000,
    ) -> None:
        if spec.n_points() != 1:
            raise ValueError(
                f"replay needs a single-point scenario; this one resolves to "
                f"{spec.n_points()} points"
            )
        # a JSON body can carry a bool, a list or NaN here
        if (
            isinstance(speed, bool)
            or not isinstance(speed, (int, float))
            or not speed >= 0
        ):
            raise ValueError(
                f"speed must be a number >= 0 (0 = unpaced), got {speed!r}"
            )
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, int) or limit <= 0
        ):
            raise ValueError(f"limit must be a positive integer, got {limit!r}")
        self.spec = spec
        self.speed = float(speed)
        self.etypes = tuple(etypes) if etypes else DEFAULT_REPLAY_EVENTS
        unknown = sorted(set(self.etypes) - event_types.RUN_EVENTS)
        if unknown:
            raise ValueError(
                f"unknown event type(s): {unknown}; a run emits "
                f"{sorted(event_types.RUN_EVENTS)}"
            )
        self.limit = limit
        self.event_capacity = int(event_capacity)

    @classmethod
    def from_payload(
        cls, payload: Mapping[str, Any], *, db_path: Optional[str] = None
    ) -> "ReplayRequest":
        """Resolve a request body into a runnable replay.

        Body keys: exactly one of ``scenario`` (manifest dict, preset name
        or path) or ``point`` (a stored point's scenario hash / prefix —
        needs ``db_path``); optional ``speed`` (sim seconds per wall
        second), ``events`` (list of event types), ``limit``.
        """
        if not isinstance(payload, Mapping):
            raise ValueError("replay request must be a JSON object")
        source = payload.get("scenario")
        point = payload.get("point")
        if (source is None) == (point is None):
            raise ValueError("give exactly one of 'scenario' or 'point'")
        if point is not None:
            if db_path is None:
                raise ValueError("point replay needs a server-side store (--db)")
            with ExperimentDB(db_path) as db:
                scenario = scenario_for_hash(db, str(point))
            if scenario is None:
                raise ValueError(
                    f"no stored point matches hash {point!r} (or it predates "
                    "scenario stamping)"
                )
            spec = ScenarioSpec.from_dict(scenario)
        elif isinstance(source, str):
            spec = load_scenario(source)
        elif isinstance(source, Mapping):
            spec = ScenarioSpec.from_dict(source)
        else:
            raise ValueError("'scenario' must be a manifest object or a string")
        etypes = payload.get("events")
        if etypes is not None:
            if not isinstance(etypes, (list, tuple)) or not etypes:
                raise ValueError("'events' must be a non-empty list of event types")
            etypes = tuple(str(e) for e in etypes)
        speed = payload.get("speed")
        return cls(
            spec.validate(),
            speed=0.0 if speed is None else speed,
            etypes=etypes,
            limit=payload.get("limit"),
        )


def replay_stream(
    request: ReplayRequest,
    sink: ReplaySink,
    *,
    trace_cache: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run the request's scenario live, pushing paced events into ``sink``.

    ``sink`` is called on the engine thread with ``(event_name, payload)``
    for every selected event, after the wall-clock pacing sleep; each
    payload carries the simulation timestamp ``t``, a 1-based ``seq``, and
    the elapsed wall clock ``wall_s``.  An exception raised by the sink
    (client went away) aborts the run and propagates.  The point runs
    through :func:`repro.eval.scenario.run_scenario` with ``trace_cache``
    (the server's, shared with its jobs) as its trace cache.

    Returns the replay summary: events streamed/emitted plus the finished
    run's metrics — bit-identical to the same scenario run in batch.
    """
    obs = Observability(enabled=True, event_capacity=request.event_capacity)
    wanted = frozenset(request.etypes)
    state = {"n": 0, "t0": None, "wall0": 0.0}

    def tap(event) -> None:
        if event.etype not in wanted:
            return
        if request.limit is not None and state["n"] >= request.limit:
            return
        if request.speed > 0:
            if state["t0"] is None:
                state["t0"] = event.t
                state["wall0"] = time.monotonic()
            target = (event.t - state["t0"]) / request.speed
            delay = target - (time.monotonic() - state["wall0"])
            if delay > 0:
                time.sleep(min(delay, _MAX_SLEEP))
        elif state["t0"] is None:
            state["t0"] = event.t
            state["wall0"] = time.monotonic()
        state["n"] += 1
        payload = event.as_dict()
        payload["seq"] = state["n"]
        payload["wall_s"] = round(time.monotonic() - state["wall0"], 6)
        sink(event.etype, payload)

    obs.events.tap = tap
    (result,) = run_scenario(
        request.spec,
        traces=trace_cache,
        observe=lambda index, point: nullcontext(obs),
    ).results
    metrics = result.metrics.as_dict()
    metrics.pop("provenance", None)
    return {
        "protocol": result.protocol,
        "trace": result.trace,
        "seed": result.seed,
        "speed": request.speed,
        "events_streamed": state["n"],
        "events_emitted": obs.events.n_emitted,
        "metrics": metrics,
    }
