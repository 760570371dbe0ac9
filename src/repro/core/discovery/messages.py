"""Discovery and deployment protocol messages (§3.1).

"The discovery message (DM) will specify a sequence number
(incremented for each discovery attempt), the language and/or standards
that the PVNC supports (e.g., OpenFlow, Docker containers), the virtual
network topology, and an estimate of the network and computational
resources requested by the PVNC.  A network that supports PVNs should
respond to each DM with the location of the PVN deployment server, the
languages/standards supported, an offered virtual network topology and
resources (which may be identical to the request, or a subset), a cost
per VNC module, and a time at which the offer expires."
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable

from repro.core.pvnc.model import Pvnc, ResourceEstimate

#: Standards a PVNC/provider can speak, per the paper's examples.
STANDARD_OPENFLOW = "openflow"
STANDARD_DOCKER = "docker"

_offer_ids = itertools.count(1)


@dataclasses.dataclass(frozen=True)
class DiscoveryMessage:
    """A device's DM, broadcast on attach (or re-sent with a subset)."""

    device_id: str
    standards: tuple[str, ...]
    requested_services: tuple[str, ...]
    estimate: ResourceEstimate
    pvnc_digest: bytes


@dataclasses.dataclass(frozen=True)
class Offer:
    """A provider's response to a DM."""

    provider: str
    deployment_server: str
    standards: tuple[str, ...]
    offered_services: tuple[str, ...]        # may be a subset of the DM's
    prices: tuple[tuple[str, float], ...]    # per-module cost
    expires_at: float
    offer_id: int = dataclasses.field(default_factory=lambda: next(_offer_ids))
    #: Service -> quoted price, the first quote of a service winning.
    price_map: dict[str, float] = dataclasses.field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Built with the offer, not cached on first use: a cache would
        # materialise the instance's __dict__, one more tracked object
        # per attach.  The map itself holds only atoms: never tracked.
        object.__setattr__(self, "price_map", dict(reversed(self.prices)))

    @property
    def total_price(self) -> float:
        return sum(price for _, price in self.prices)

    def price_of(self, service: str) -> float:
        return self.price_map.get(service, 0.0)

    def price_sum(self, services: Iterable[str]) -> float:
        """``sum(price_of(s) for s in services)``, in the same order."""
        return sum(map(self.price_map.get, services, itertools.repeat(0.0)))

    def covers(self, services: tuple[str, ...]) -> bool:
        offered = set(self.offered_services)
        return all(service in offered for service in services)


@dataclasses.dataclass(frozen=True)
class DeploymentRequest:
    """Acceptance: the PVNC plus payment for the chosen services."""

    device_id: str
    offer_id: int
    pvnc: Pvnc
    accepted_services: tuple[str, ...]
    payment: float


@dataclasses.dataclass(frozen=True)
class DeploymentAck:
    """Success: the PVN is installed and routed."""

    deployment_id: str


@dataclasses.dataclass(frozen=True)
class DeploymentNack:
    """Failure, with the reason the paper requires providers to give."""

    reason: str
