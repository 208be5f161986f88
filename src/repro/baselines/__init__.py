"""Baseline routing protocols and the protocol registry.

The five paper baselines (Section V-A.1) plus two bracketing references.
:func:`make_protocol` builds a fresh protocol instance by name — experiment
configs refer to protocols by these names — and is the one place a
scenario's protocol ``config`` is checked.  Only DTN-FLOW takes one: its
keywords are :class:`DTNFlowConfig` fields, and every other protocol
rejects any keyword, so a manifest typo fails loudly with the protocol's
name and the key.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Mapping

from repro.baselines.base import UtilityProtocol
from repro.baselines.extras import DirectDeliveryProtocol, EpidemicProtocol
from repro.baselines.geocomm import GeoCommProtocol
from repro.baselines.per import PERProtocol
from repro.baselines.pgr import PGRProtocol
from repro.baselines.prophet import ProphetProtocol
from repro.baselines.simbet import SimBetProtocol
from repro.baselines.spraywait import SprayAndWaitProtocol
from repro.core.router import DTNFlowConfig, DTNFlowProtocol
from repro.core.scheduler import SchedulerConfig
from repro.sim.engine import RoutingProtocol

_REGISTRY: Dict[str, Callable[[], RoutingProtocol]] = {
    "DTN-FLOW": DTNFlowProtocol,
    "SimBet": SimBetProtocol,
    "PROPHET": ProphetProtocol,
    "PGR": PGRProtocol,
    "GeoComm": GeoCommProtocol,
    "PER": PERProtocol,
    "Direct": DirectDeliveryProtocol,
    "Epidemic": EpidemicProtocol,
    "SprayWait": SprayAndWaitProtocol,
}

#: the six methods compared throughout Section V, in the paper's order
PAPER_PROTOCOLS = ("DTN-FLOW", "SimBet", "PROPHET", "PGR", "GeoComm", "PER")


def protocol_names() -> List[str]:
    """All registered protocol names."""
    return sorted(_REGISTRY)


def _check_keys(cls: type, values: Mapping[str, Any], prefix: str = "") -> None:
    accepted = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(set(values) - set(accepted))
    if unknown:
        raise ValueError(
            f"unknown config key(s) {[prefix + k for k in unknown]}; "
            f"accepted: {sorted(prefix + k for k in accepted)}"
        )


def _dtnflow_config(values: Mapping[str, Any]) -> DTNFlowConfig:
    """A :class:`DTNFlowConfig` from scenario keywords; ``scheduler`` may be
    given as a nested mapping, as JSON manifests spell it."""
    _check_keys(DTNFlowConfig, values)
    kwargs = dict(values)
    scheduler = kwargs.get("scheduler")
    if "scheduler" in kwargs and not isinstance(scheduler, SchedulerConfig):
        if not isinstance(scheduler, Mapping):
            raise ValueError(
                f"'scheduler' must be a mapping such as {{\"priority\": \"fifo\"}}, "
                f"got {type(scheduler).__name__}"
            )
        _check_keys(SchedulerConfig, scheduler, prefix="scheduler.")
        kwargs["scheduler"] = SchedulerConfig(**scheduler)
    return DTNFlowConfig(**kwargs)


def make_protocol(name: str, **config: Any) -> RoutingProtocol:
    """Instantiate a registered protocol by name (fresh state every call).

    ``config`` is checked here and only here: unknown names, keywords a
    protocol does not take and out-of-range values all raise a one-line
    ``ValueError`` naming the protocol.
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(f"unknown protocol {name!r}; available: {protocol_names()}")
    if factory is not DTNFlowProtocol:
        if config:
            raise ValueError(f"protocol {name!r} takes no config, got {sorted(config)}")
        return factory()
    try:
        return DTNFlowProtocol(_dtnflow_config(config))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"protocol {name!r}: {exc}") from None


__all__ = [
    "UtilityProtocol",
    "DirectDeliveryProtocol",
    "EpidemicProtocol",
    "GeoCommProtocol",
    "PERProtocol",
    "PGRProtocol",
    "ProphetProtocol",
    "SimBetProtocol",
    "SprayAndWaitProtocol",
    "DTNFlowProtocol",
    "DTNFlowConfig",
    "PAPER_PROTOCOLS",
    "protocol_names",
    "make_protocol",
]
