"""repro.obs — simulation observability: tracing, metrics, profiling.

Four pieces, bundled per-run by :class:`Observability`:

* :mod:`repro.obs.events` — typed packet-lifecycle and routing-control
  event tracing with a ring buffer and JSONL export;
* :mod:`repro.obs.registry` — named counters/gauges/histograms protocols
  register into instead of ad-hoc dicts;
* :mod:`repro.obs.spans` — hierarchical phase timing (where does the
  wall-clock go?) with self vs. cumulative seconds, on only for runs
  given a recorder (``Observability(spans=...)``);
* :mod:`repro.obs.provenance` — config/seed/version stamps making result
  rows self-describing.

Plus the deep-profiling layer:

* :mod:`repro.obs.sampler` — background stack sampling and allocation
  snapshots;
* :mod:`repro.obs.export` — collapsed-stack flamegraphs and ingestible
  profile payloads.

See docs/observability.md for the event taxonomy and CLI usage
(``repro trace``, ``repro stats``, ``repro profile``).
"""

from repro.obs import events as event_types
from repro.obs.events import (
    ALL_EVENTS,
    CONTROL_EVENTS,
    EXECUTOR_EVENTS,
    FAULT_EVENTS,
    PACKET_EVENTS,
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
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.runtime import Observability, ObsConfig
from repro.obs.sampler import SamplingProfiler
from repro.obs.spans import SpanNode, SpanRecorder

__all__ = [
    "ALL_EVENTS",
    "CONTROL_EVENTS",
    "Counter",
    "EXECUTOR_EVENTS",
    "Event",
    "EventLog",
    "FAULT_EVENTS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsConfig",
    "Observability",
    "PACKET_EVENTS",
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
