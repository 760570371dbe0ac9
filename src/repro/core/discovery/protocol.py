"""Provider-side discovery service and device-side discovery client.

The provider answers DMs with offers (§3.1): it intersects standards,
offers the subset of requested services it actually supports, quotes
prices from its :class:`~repro.core.discovery.pricing.PricingPolicy`,
and stamps an expiry.  The device client sends DMs (optionally flooding
several providers in the "discovery zone") and hands offers to the
negotiation strategy.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.core.discovery.messages import (
    DeploymentAck,
    DeploymentNack,
    DeploymentRequest,
    DiscoveryMessage,
    Offer,
    STANDARD_DOCKER,
    STANDARD_OPENFLOW,
)
import numpy as np

from repro.core.discovery.pricing import PricingPolicy
from repro.core.discovery.retry import RetryPolicy, RetryTrace
from repro.core.pvnc.model import Pvnc, ResourceEstimate
from repro.errors import NegotiationError, ProtocolError
from repro.obs import runtime as obs_runtime


def _count_discovery(event: str, provider: str) -> None:
    """Bump the live discovery counter (no-op with observability off).

    Unlike the data plane's publish-time folding, discovery is a rare
    control-plane event, so counting at the site is free enough and
    keeps the metric live mid-negotiation.
    """
    obs = obs_runtime.current()
    if obs is None:
        return
    obs.metrics.counter(
        "repro_discovery_events",
        "Discovery protocol events per provider",
        ("provider", "event"),
    ).labels(provider=provider, event=event).inc()

DeployFn = Callable[[DeploymentRequest], DeploymentAck | DeploymentNack]


@dataclasses.dataclass
class DiscoveryService:
    """One provider's DM responder.

    Parameters
    ----------
    provider:
        Provider name, included in offers.
    supported_services:
        Services this network can host (empty = PVNs unsupported: DMs
        go unanswered, modelling the §3.3 unavailability case).
    pricing:
        The provider's price list.
    offer_lifetime:
        Seconds before an offer expires.
    deploy:
        Callback invoked with accepted deployment requests.
    """

    provider: str
    supported_services: tuple[str, ...]
    pricing: PricingPolicy
    deploy: DeployFn
    deployment_server: str = ""
    standards: tuple[str, ...] = (STANDARD_OPENFLOW, STANDARD_DOCKER)
    offer_lifetime: float = 30.0
    silent_until: float = 0.0     # fault injection: unresponsive until t
    drop_next_dms: int = 0        # fault injection: network eats N DMs
    #: Optional overload protection (:class:`repro.health.overload.
    #: AdmissionController`): when set, DMs above the shedding floor
    #: for their priority class are refused up front instead of
    #: consuming a negotiation slot.  None (the default) keeps the
    #: seed behaviour: every DM is served.
    admission: object | None = None

    def __post_init__(self) -> None:
        if not self.deployment_server:
            self.deployment_server = f"pvn.{self.provider}"
        self._live_offers: dict[int, Offer] = {}

    @property
    def supports_pvn(self) -> bool:
        return bool(self.supported_services)

    def silence_for(self, duration: float, now: float) -> None:
        """Make the provider unresponsive (requests time out) until
        ``now + duration``; extends but never shortens a silence."""
        self.silent_until = max(self.silent_until, now + duration)

    def responsive(self, now: float) -> bool:
        return now >= self.silent_until

    def handle_dm(self, dm: DiscoveryMessage, now: float) -> Offer | None:
        """Answer a discovery message, or None if PVNs are unsupported
        or no standard is shared.

        None is also what a *timeout* looks like to the device: an
        unresponsive provider (``silent_until``) or a DM the network
        dropped (``drop_next_dms``) simply never answers, and the
        client's :class:`RetryPolicy` decides what happens next.
        """
        _count_discovery("dm_received", self.provider)
        if self.admission is not None and not self.admission.admit(
            now, getattr(dm, "priority", 2)
        ):
            # Shed, not dropped: the provider chose to refuse this DM
            # to protect in-flight work.  To the device it still looks
            # like a timeout (retry/backoff applies), but the provider
            # paid ~nothing for it.
            _count_discovery("dm_shed", self.provider)
            return None
        if self.drop_next_dms > 0:
            self.drop_next_dms -= 1
            _count_discovery("dm_unanswered", self.provider)
            return None
        if not self.responsive(now):
            _count_discovery("dm_unanswered", self.provider)
            return None
        if not self.supports_pvn:
            return None
        shared = tuple(s for s in dm.standards if s in self.standards)
        if not shared:
            return None
        offered = tuple(
            s for s in dm.requested_services if s in self.supported_services
        )
        offer = Offer(
            provider=self.provider,
            deployment_server=self.deployment_server,
            standards=shared,
            offered_services=offered,
            prices=self.pricing.quote(offered),
            expires_at=now + self.offer_lifetime,
        )
        _count_discovery("offer_made", self.provider)
        self._live_offers[offer.offer_id] = offer
        return offer

    def handle_deployment_request(
        self, request: DeploymentRequest, now: float
    ) -> DeploymentAck | DeploymentNack:
        """Validate the acceptance against the live offer, then deploy."""
        offer = self._live_offers.get(request.offer_id)
        if offer is None:
            return DeploymentNack(reason="unknown or consumed offer")
        if now > offer.expires_at:
            return DeploymentNack(reason="offer expired")
        if not offer.covers(request.accepted_services):
            return DeploymentNack(reason="accepted services not offered")
        owed = offer.price_sum(request.accepted_services)
        if request.payment + 1e-9 < owed:
            return DeploymentNack(
                reason=f"payment {request.payment} below price {owed:.4f}"
            )
        del self._live_offers[request.offer_id]
        return self.deploy(request)


class DiscoveryClient:
    """Device-side DM sender."""

    def __init__(self, device_id: str,
                 standards: tuple[str, ...] = (STANDARD_OPENFLOW,
                                               STANDARD_DOCKER)) -> None:
        self.device_id = device_id
        self.standards = standards

    def make_dm(self, pvnc: Pvnc, estimate: ResourceEstimate
                ) -> DiscoveryMessage:
        return DiscoveryMessage(
            device_id=self.device_id,
            standards=self.standards,
            requested_services=pvnc.used_services(),
            estimate=estimate,
            pvnc_digest=pvnc.digest(),
        )

    def flood(
        self,
        services: list[DiscoveryService],
        pvnc: Pvnc,
        estimate: ResourceEstimate,
        now: float,
    ) -> list[Offer]:
        """Send one DM to every provider in the discovery zone.

        Models the paper's limited flooding across multiple providers
        "in case the access provider does not support" PVNs.
        """
        if not services:
            raise NegotiationError("no providers in the discovery zone")
        dm = self.make_dm(pvnc, estimate)
        offers = []
        for service in services:
            offer = service.handle_dm(dm, now)
            if offer is not None:
                offers.append(offer)
        return offers

    def flood_with_retry(
        self,
        services: list[DiscoveryService],
        pvnc: Pvnc,
        estimate: ResourceEstimate,
        now: float,
        policy: RetryPolicy,
        rng: "np.random.Generator | None" = None,
        breaker=None,
    ) -> tuple[list[Offer], RetryTrace]:
        """Flood with per-request timeouts and capped backoff.

        Each attempt floods the zone and waits ``policy.timeout`` for
        answers; a silent zone costs the timeout plus the next backoff
        delay, up to ``policy.max_attempts`` attempts total.  Returns
        the first non-empty offer batch plus a :class:`RetryTrace`
        whose ``waited`` is the virtual time burned — callers advance
        their clock by it.

        With a ``breaker`` (:class:`repro.health.overload.
        CircuitBreaker`) each attempt first asks the breaker: while it
        is OPEN the attempt *fails fast* — no flood, no timeout burned
        — so a crowd of devices stops hammering a provider that is
        plainly down, and outcomes feed back into the breaker.
        """
        delays = policy.backoff_schedule(rng)
        trace = RetryTrace()
        for attempt in range(policy.max_attempts):
            trace.attempts = attempt + 1
            if breaker is not None and not breaker.allow(now + trace.waited):
                # Fail fast: skip the flood and the timeout entirely;
                # only the backoff delay (if any) is paid, keeping the
                # retry cadence without the network cost.
                if attempt < policy.max_attempts - 1:
                    trace.waited += delays[attempt]
                continue
            offers = self.flood(services, pvnc, estimate, now + trace.waited)
            if offers:
                if breaker is not None:
                    breaker.record_success(now + trace.waited)
                return offers, trace
            if breaker is not None:
                breaker.record_failure(now + trace.waited)
            trace.waited += policy.timeout
            if attempt < policy.max_attempts - 1:
                trace.waited += delays[attempt]
        return [], trace


def check_ack(response: DeploymentAck | DeploymentNack) -> DeploymentAck:
    """Unwrap an ACK or raise with the provider's failure reason."""
    if isinstance(response, DeploymentNack):
        raise ProtocolError(f"deployment NACKed: {response.reason}")
    return response
