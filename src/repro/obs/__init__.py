"""repro.obs — simulation observability: tracing and profiling.

Two instruments, bundled per-run by :class:`Observability`:

* :mod:`repro.obs.events` — typed packet-lifecycle, routing-control and
  fault event tracing with a ring buffer, exact per-type counts and
  JSONL export;
* :mod:`repro.obs.spans` — hierarchical phase timing (where does the
  wall-clock go?) with self vs. cumulative seconds, on only for runs
  given a recorder (``Observability(spans=...)``).

Alongside them:

* :mod:`repro.obs.provenance` — config/seed/version stamps making result
  rows self-describing;
* :mod:`repro.obs.sampler` — background stack sampling and allocation
  snapshots;
* :mod:`repro.obs.export` — collapsed-stack flamegraphs and ingestible
  profile payloads.

See docs/observability.md for the event taxonomy and CLI usage
(``repro trace``, ``repro stats``, ``repro profile``).
"""

from repro.obs import events as event_types
from repro.obs.events import (
    CONTROL_EVENTS,
    EXECUTOR_EVENTS,
    FAULT_EVENTS,
    PACKET_EVENTS,
    RUN_EVENTS,
    TERMINAL_EVENTS,
    Event,
    EventLog,
)
from repro.obs.export import (
    collapsed_lines,
    profile_payload,
    render_span_tree,
    write_flamegraph,
    write_profile,
)
from repro.obs.provenance import RunProvenance, package_version
from repro.obs.runtime import Observability
from repro.obs.sampler import SamplingProfiler
from repro.obs.spans import SpanNode, SpanRecorder

__all__ = [
    "CONTROL_EVENTS",
    "EXECUTOR_EVENTS",
    "Event",
    "EventLog",
    "FAULT_EVENTS",
    "Observability",
    "PACKET_EVENTS",
    "RUN_EVENTS",
    "RunProvenance",
    "SamplingProfiler",
    "SpanNode",
    "SpanRecorder",
    "TERMINAL_EVENTS",
    "collapsed_lines",
    "event_types",
    "package_version",
    "profile_payload",
    "render_span_tree",
    "write_flamegraph",
    "write_profile",
]
