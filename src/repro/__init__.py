"""repro — a reproduction of DTN-FLOW (Chen & Shen, IPDPS 2013 / IEEE-ToN).

DTN-FLOW routes packets between *landmarks* (popular places with fixed
central stations) in a delay-tolerant network, using the transits of mobile
nodes between landmarks as inter-landmark "links".  This package provides:

* :mod:`repro.core` — the DTN-FLOW protocol: order-k Markov transit
  prediction, transit-link bandwidth measurement, distance-vector routing
  tables, the packet-forwarding algorithm, and the dead-end / loop /
  load-balancing / node-routing extensions;
* :mod:`repro.sim` — a discrete-event DTN simulator (packets, buffers,
  stations, metrics);
* :mod:`repro.mobility` — trace model, DART/DNET-style parsers and
  preprocessing, synthetic mobility generators, trace analytics;
* :mod:`repro.baselines` — SimBet, PROPHET, PGR, GeoComm, PER (landmark-
  adapted), plus direct-delivery and epidemic references;
* :mod:`repro.eval` — the experiment harness regenerating every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import dart_like, SimConfig, run_simulation, make_protocol

    trace = dart_like("small", seed=1)
    config = SimConfig(rate_per_landmark_per_day=500, workload_scale=0.01)
    result = run_simulation(trace, make_protocol("DTN-FLOW"), config)
    print(result.success_rate, result.avg_delay)
"""

from repro.baselines import PAPER_PROTOCOLS, make_protocol, protocol_names
from repro.core import DTNFlowConfig, DTNFlowProtocol, MarkovPredictor
from repro.mobility import Trace, VisitRecord, dart_like, deployment_trace, dnet_like
from repro.obs import Observability, RunProvenance
from repro.sim import MetricsSummary, SimConfig, Simulation, run_simulation

__version__ = "1.0.0"

__all__ = [
    "PAPER_PROTOCOLS",
    "make_protocol",
    "protocol_names",
    "DTNFlowConfig",
    "DTNFlowProtocol",
    "MarkovPredictor",
    "Trace",
    "VisitRecord",
    "dart_like",
    "deployment_trace",
    "dnet_like",
    "MetricsSummary",
    "Observability",
    "RunProvenance",
    "SimConfig",
    "Simulation",
    "run_simulation",
    "__version__",
]
