"""Negotiation of access policies (§3.3).

"We expect that many network providers may support partial PVN
configuration ... we need a way to negotiate a compromise between what
the network provider allows and what the user requests.  We believe a
set of soft and hard constraints can inform the decision."

Hard constraints are the PVNC's ``required_services`` plus the budget;
soft constraints are ``preferred_services``.  The device's options on a
non-matching offer, straight from §3.1: wait for a better offer from
another provider in the zone, re-send a DM with a subset
configuration, accept a subset of what is offered, or walk away.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.discovery.messages import DeploymentRequest, DiscoveryMessage, Offer
from repro.core.discovery.protocol import DiscoveryClient, DiscoveryService
from repro.core.discovery.retry import RetryPolicy
from repro.core.pvnc.model import Pvnc, ResourceEstimate
from repro.errors import NegotiationError

STRATEGY_ACCEPT_FIRST = "accept_first"
STRATEGY_BEST_OF_ZONE = "best_of_zone"
STRATEGY_SUBSET_RETRY = "subset_retry"
STRATEGY_FREE_ONLY = "free_only"

ALL_STRATEGIES = (STRATEGY_ACCEPT_FIRST, STRATEGY_BEST_OF_ZONE,
                  STRATEGY_SUBSET_RETRY, STRATEGY_FREE_ONLY)


@dataclasses.dataclass(frozen=True)
class AcceptancePlan:
    """Which offered services the device will buy, and for how much."""

    services: tuple[str, ...]
    price: float
    dropped: tuple[str, ...]


@dataclasses.dataclass
class NegotiationOutcome:
    """The result of one negotiation run."""

    accepted: bool
    provider: str = ""
    offer: Offer | None = None
    plan: AcceptancePlan | None = None
    rounds: int = 0
    reason: str = ""
    attempts: int = 1             # discovery attempts (retries included)
    waited: float = 0.0           # timeout + backoff seconds burned


def plan_acceptance(offer: Offer, pvnc: Pvnc) -> AcceptancePlan | None:
    """Fit the offer to the user's constraints, or None if impossible.

    Required services must all be offered.  If the full set busts the
    budget, droppable services go first — preferred before merely
    requested — in descending price order.
    """
    constraints = pvnc.constraints
    requested = pvnc.used_services()
    offered = set(offer.offered_services)

    required = [s for s in constraints.required_services if s in requested]
    if any(service not in offered for service in required):
        return None

    chosen = [s for s in requested if s in offered]
    dropped = [s for s in requested if s not in offered]

    prices = offer.price_map
    preferred = set(constraints.preferred_services)
    required_set = set(required)
    # Drop order: preferred (expensive first), then other optionals.
    droppable = sorted(
        (s for s in chosen if s not in required_set),
        key=lambda s: (s not in preferred, -prices.get(s, 0.0)),
    )
    for victim in droppable:
        if offer.price_sum(chosen) <= constraints.max_price:
            break
        chosen.remove(victim)
        dropped.append(victim)
    total = offer.price_sum(chosen)
    if total > constraints.max_price:
        return None
    return AcceptancePlan(
        services=tuple(chosen), price=round(total, 4),
        dropped=tuple(dropped),
    )


def build_request(
    device_id: str, offer: Offer, pvnc: Pvnc, plan: AcceptancePlan
) -> DeploymentRequest:
    """The acceptance message, with the PVNC trimmed to what was bought."""
    trimmed = pvnc.without_services(set(plan.dropped))
    return DeploymentRequest(
        device_id=device_id,
        offer_id=offer.offer_id,
        pvnc=trimmed,
        accepted_services=plan.services,
        payment=plan.price,
    )


def negotiate(
    client: DiscoveryClient,
    providers: list[DiscoveryService],
    pvnc: Pvnc,
    estimate: ResourceEstimate,
    now: float,
    strategy: str = STRATEGY_BEST_OF_ZONE,
) -> NegotiationOutcome:
    """Run discovery + offer selection under ``strategy``."""
    if strategy not in ALL_STRATEGIES:
        raise NegotiationError(f"unknown strategy {strategy!r}")

    offers = client.flood(providers, pvnc, estimate, now)
    outcome = NegotiationOutcome(accepted=False, rounds=1)
    if not offers:
        outcome.reason = "no provider answered the discovery message"
        return outcome
    return _select_from_offers(client, providers, offers, pvnc, estimate,
                               now, strategy, outcome)


def negotiate_with_retry(
    client: DiscoveryClient,
    providers: list[DiscoveryService],
    pvnc: Pvnc,
    estimate: ResourceEstimate,
    now: float,
    policy: RetryPolicy,
    rng: "np.random.Generator | None" = None,
    strategy: str = STRATEGY_BEST_OF_ZONE,
) -> NegotiationOutcome:
    """:func:`negotiate`, but robust to an unresponsive zone.

    Discovery floods are retried under ``policy`` (per-request timeout,
    capped exponential backoff with seeded jitter, bounded attempt
    budget); the outcome's ``attempts``/``waited`` report what the
    retries cost.  A zone that never answers within the budget yields a
    non-accepted outcome rather than an exception — the caller decides
    whether to fall back to tunneling.
    """
    if strategy not in ALL_STRATEGIES:
        raise NegotiationError(f"unknown strategy {strategy!r}")
    offers, trace = client.flood_with_retry(
        providers, pvnc, estimate, now, policy, rng
    )
    outcome = NegotiationOutcome(
        accepted=False, rounds=trace.attempts,
        attempts=trace.attempts, waited=trace.waited,
    )
    if not offers:
        outcome.reason = (
            f"discovery timed out: no offer after {trace.attempts} "
            f"attempts ({trace.waited:.2f}s of timeouts and backoff)"
        )
        return outcome
    return _select_from_offers(client, providers, offers, pvnc, estimate,
                               now + trace.waited, strategy, outcome)


def _select_from_offers(
    client: DiscoveryClient,
    providers: list[DiscoveryService],
    offers: list[Offer],
    pvnc: Pvnc,
    estimate: ResourceEstimate,
    now: float,
    strategy: str,
    outcome: NegotiationOutcome,
) -> NegotiationOutcome:
    """Offer selection shared by the plain and retrying negotiators."""
    if strategy == STRATEGY_FREE_ONLY:
        return _free_only(offers, pvnc, outcome)
    if strategy == STRATEGY_ACCEPT_FIRST:
        candidates = offers[:1]
    else:
        candidates = offers

    scored: list[tuple[float, Offer, AcceptancePlan]] = []
    for offer in candidates:
        plan = plan_acceptance(offer, pvnc)
        if plan is None:
            continue
        # Prefer coverage (fewer drops), then lower price.
        score = len(plan.dropped) * 1000.0 + plan.price
        scored.append((score, offer, plan))
    if not scored:
        outcome.reason = "no offer satisfied the hard constraints and budget"
        return outcome
    scored.sort(key=lambda item: (item[0], item[1].offer_id))
    _, best_offer, best_plan = scored[0]

    if strategy == STRATEGY_SUBSET_RETRY and best_plan.dropped:
        # §3.1: re-send a DM with the subset configuration to get a
        # fresh quote for exactly what will be bought.
        provider = _provider_named(providers, best_offer.provider)
        trimmed = pvnc.without_services(set(best_plan.dropped))
        dm = client.make_dm(trimmed, estimate)
        outcome.rounds += 1
        retry_offer = provider.handle_dm(dm, now)
        if retry_offer is not None:
            retry_plan = plan_acceptance(retry_offer, trimmed)
            if retry_plan is not None and retry_plan.price <= best_plan.price:
                # The retry plan's drops are relative to the *trimmed*
                # config; fold the original drops back in so the final
                # deployment request trims everything not paid for.
                merged = AcceptancePlan(
                    services=retry_plan.services,
                    price=retry_plan.price,
                    dropped=tuple(dict.fromkeys(
                        [*best_plan.dropped, *retry_plan.dropped]
                    )),
                )
                best_offer, best_plan = retry_offer, merged

    outcome.accepted = True
    outcome.provider = best_offer.provider
    outcome.offer = best_offer
    outcome.plan = best_plan
    outcome.reason = "accepted"
    return outcome


def _free_only(
    offers: list[Offer], pvnc: Pvnc, outcome: NegotiationOutcome
) -> NegotiationOutcome:
    """Accept only zero-priced services (the §3.1 'free subset' path)."""
    best: tuple[int, Offer, AcceptancePlan] | None = None
    for offer in offers:
        free = tuple(s for s in offer.offered_services
                     if offer.price_of(s) == 0.0)
        required = set(pvnc.constraints.required_services)
        if required - set(free):
            continue
        plan = AcceptancePlan(
            services=free, price=0.0,
            dropped=tuple(s for s in pvnc.used_services() if s not in free),
        )
        key = len(free)
        if best is None or key > best[0]:
            best = (key, offer, plan)
    if best is None:
        outcome.reason = "no offer includes the required services for free"
        return outcome
    _, offer, plan = best
    outcome.accepted = True
    outcome.provider = offer.provider
    outcome.offer = offer
    outcome.plan = plan
    outcome.reason = "accepted free tier"
    return outcome


def _score(plan: AcceptancePlan, offer: Offer) -> tuple[float, int]:
    """Lower is better: coverage first, then price, then offer id."""
    return (len(plan.dropped) * 1000.0 + plan.price, offer.offer_id)


def negotiate_over_time(
    client: DiscoveryClient,
    schedule: list[tuple[float, list[DiscoveryService]]],
    pvnc: Pvnc,
    estimate: ResourceEstimate,
    deadline: float,
) -> NegotiationOutcome:
    """The §3.1 "wait for a better offer" strategy.

    ``schedule`` lists (time, providers-visible) events — providers
    appear and disappear as the device dwells in the discovery zone.
    The device floods at every event up to ``deadline``, keeps the best
    viable offer seen, and accepts at the deadline (re-flooding once if
    its held offer has expired by then).

    Waiting trades time-to-connect for offer quality; E10/A4 quantify
    the trade.
    """
    outcome = NegotiationOutcome(accepted=False)
    best: tuple[tuple[float, int], Offer, AcceptancePlan] | None = None
    last_providers: list[DiscoveryService] = []

    def flood(providers: list[DiscoveryService], now: float) -> None:
        nonlocal best
        if not providers:
            return
        outcome.rounds += 1
        for offer in client.flood(providers, pvnc, estimate, now):
            plan = plan_acceptance(offer, pvnc)
            if plan is None:
                continue
            key = _score(plan, offer)
            if best is None or key < best[0]:
                best = (key, offer, plan)

    for event_time, providers in sorted(schedule, key=lambda e: e[0]):
        if event_time > deadline:
            break
        last_providers = providers
        flood(providers, event_time)

    if best is not None and deadline > best[1].expires_at:
        # The held offer died while we waited: ask again at the deadline.
        best = None
        flood(last_providers, deadline)

    if best is None:
        outcome.reason = "no acceptable offer appeared before the deadline"
        return outcome
    _, offer, plan = best
    outcome.accepted = True
    outcome.provider = offer.provider
    outcome.offer = offer
    outcome.plan = plan
    outcome.reason = "accepted best offer seen before the deadline"
    return outcome


def _provider_named(
    providers: list[DiscoveryService], name: str
) -> DiscoveryService:
    for provider in providers:
        if provider.provider == name:
            return provider
    raise NegotiationError(f"provider {name!r} vanished mid-negotiation")
