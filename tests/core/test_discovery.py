"""Tests for discovery messages, pricing, the protocol, and negotiation."""

import dataclasses

import pytest

from repro.core.discovery import (
    DeploymentAck,
    DiscoveryClient,
    DiscoveryService,
    PricingPolicy,
    negotiate,
)
from repro.core.discovery.messages import DeploymentNack, Offer
from repro.core.discovery.negotiation import (
    STRATEGY_ACCEPT_FIRST,
    STRATEGY_BEST_OF_ZONE,
    STRATEGY_FREE_ONLY,
    STRATEGY_SUBSET_RETRY,
    build_request,
    plan_acceptance,
)
from repro.core.discovery.pricing import surge
from repro.core.pvnc import compile_pvnc
from repro.core.pvnc.dsl import parse_pvnc
from repro.core.session import default_pvnc
from repro.errors import NegotiationError


def make_service(name="isp", services=None, pricing=None, deploy=None):
    if services is None:
        services = ("classifier", "tls_validator", "pii_detector",
                    "transcoder", "tcp_proxy", "dns_validator")
    return DiscoveryService(
        provider=name,
        supported_services=tuple(services),
        pricing=pricing or PricingPolicy(),
        deploy=deploy or (lambda request: DeploymentAck(deployment_id="d1")),
    )


@pytest.fixture
def pvnc():
    return default_pvnc()


@pytest.fixture
def estimate(pvnc):
    return compile_pvnc(pvnc).estimate


class TestPricing:
    def test_free_tier(self):
        policy = PricingPolicy()
        assert policy.base_price("classifier") == 0.0
        assert policy.base_price("tls_validator") > 0

    def test_unknown_service_default_price(self):
        assert PricingPolicy().base_price("mystery") == 0.50

    def test_bulk_discount_applies_past_threshold(self):
        policy = PricingPolicy(bulk_threshold=2, bulk_discount=0.5)
        services = ("tls_validator", "pii_detector", "malware_detector")
        quote = dict(policy.quote(services))
        assert quote["malware_detector"] == pytest.approx(0.75 * 0.5)
        assert quote["tls_validator"] == pytest.approx(0.50)

    def test_total_sums_quote(self):
        policy = PricingPolicy()
        services = ("tls_validator", "dns_validator")
        assert policy.total(services) == pytest.approx(0.75)

    def test_surge_pricing(self):
        base = PricingPolicy()
        calm = surge(base, utilisation=0.3)
        busy = surge(base, utilisation=1.0)
        assert calm.base_price("tls_validator") == base.base_price("tls_validator")
        assert busy.base_price("tls_validator") == pytest.approx(1.0)


class TestDiscoveryService:
    def test_offer_contains_prices_and_expiry(self, pvnc, estimate):
        service = make_service()
        client = DiscoveryClient("alice:mac")
        dm = client.make_dm(pvnc, estimate)
        offer = service.handle_dm(dm, now=100.0)
        assert offer is not None
        assert offer.expires_at == pytest.approx(130.0)
        assert offer.total_price > 0

    def test_offer_prices_read_the_first_quote_and_sum_in_order(self):
        prices = (("a", 0.1), ("b", 0.2), ("a", 9.0), ("c", 0.3))
        offer = Offer(provider="isp", deployment_server="pvn.isp",
                      standards=(), offered_services=("a", "b", "c"),
                      prices=prices, expires_at=1.0)
        assert offer.price_of("a") == 0.1
        assert offer.price_of("unquoted") == 0.0
        services = ("c", "a", "unquoted", "b", "a")
        first = {}
        for name, price in prices:
            first.setdefault(name, price)
        assert offer.price_sum(services) == sum(
            first.get(s, 0.0) for s in services)
        assert offer == dataclasses.replace(offer)
        assert "price_map" not in repr(offer)

    def test_unsupporting_network_silent(self, pvnc, estimate):
        service = make_service(services=())
        client = DiscoveryClient("alice:mac")
        assert service.handle_dm(client.make_dm(pvnc, estimate), 0.0) is None

    def test_no_shared_standard_silent(self, pvnc, estimate):
        service = make_service()
        client = DiscoveryClient("alice:mac", standards=("carrier-pigeon",))
        assert service.handle_dm(client.make_dm(pvnc, estimate), 0.0) is None

    def test_partial_support_offers_subset(self, pvnc, estimate):
        service = make_service(services=("classifier", "tls_validator"))
        client = DiscoveryClient("alice:mac")
        offer = service.handle_dm(client.make_dm(pvnc, estimate), 0.0)
        assert set(offer.offered_services) <= {"classifier", "tls_validator"}
        assert not offer.covers(pvnc.used_services())

    def test_expired_offer_nacked(self, pvnc, estimate):
        service = make_service()
        client = DiscoveryClient("alice:mac")
        offer = service.handle_dm(client.make_dm(pvnc, estimate), now=0.0)
        plan = plan_acceptance(offer, pvnc)
        request = build_request("alice:mac", offer, pvnc, plan)
        response = service.handle_deployment_request(request, now=1000.0)
        assert isinstance(response, DeploymentNack)
        assert "expired" in response.reason

    def test_underpayment_nacked(self, pvnc, estimate):
        service = make_service()
        client = DiscoveryClient("alice:mac")
        offer = service.handle_dm(client.make_dm(pvnc, estimate), now=0.0)
        plan = plan_acceptance(offer, pvnc)
        request = build_request("alice:mac", offer, pvnc, plan)
        import dataclasses

        cheap = dataclasses.replace(request, payment=0.0)
        response = service.handle_deployment_request(cheap, now=1.0)
        assert isinstance(response, DeploymentNack)
        assert "payment" in response.reason

    def test_offer_single_use(self, pvnc, estimate):
        service = make_service()
        client = DiscoveryClient("alice:mac")
        offer = service.handle_dm(client.make_dm(pvnc, estimate), now=0.0)
        plan = plan_acceptance(offer, pvnc)
        request = build_request("alice:mac", offer, pvnc, plan)
        first = service.handle_deployment_request(request, now=1.0)
        assert isinstance(first, DeploymentAck)
        second = service.handle_deployment_request(request, now=1.0)
        assert isinstance(second, DeploymentNack)

    def test_flood_requires_providers(self, pvnc, estimate):
        client = DiscoveryClient("alice:mac")
        with pytest.raises(NegotiationError):
            client.flood([], pvnc, estimate, 0.0)


class TestPlanAcceptance:
    def test_full_offer_within_budget_accepted_whole(self, pvnc, estimate):
        offer = make_service().handle_dm(
            DiscoveryClient("a").make_dm(pvnc, estimate), 0.0
        )
        plan = plan_acceptance(offer, pvnc)
        assert plan is not None
        assert set(plan.services) == set(pvnc.used_services())
        assert plan.dropped == ()

    def test_missing_required_service_fails(self, pvnc, estimate):
        offer = make_service(
            services=("classifier", "transcoder")  # no tls_validator
        ).handle_dm(DiscoveryClient("a").make_dm(pvnc, estimate), 0.0)
        assert plan_acceptance(offer, pvnc) is None

    def test_budget_drops_preferred_first(self, estimate):
        pvnc = parse_pvnc(
            'pvnc "t" for u\n'
            "module tls_validator\nmodule pii_detector\nmodule transcoder\n"
            "class https: tls_validator -> forward\n"
            "class web_text: pii_detector -> forward\n"
            "class video_image: transcoder -> forward\n"
            "require tls_validator\nprefer transcoder\n"
            "budget 1.5\n"
        )
        offer = make_service().handle_dm(
            DiscoveryClient("a").make_dm(pvnc, compile_pvnc(pvnc).estimate),
            0.0,
        )
        # full price: 0.5 + 1.0 + 0.6 = 2.1 > 1.5; transcoder (preferred)
        # goes first, leaving 1.5.
        plan = plan_acceptance(offer, pvnc)
        assert plan is not None
        assert "transcoder" in plan.dropped
        assert "tls_validator" in plan.services
        assert plan.price <= 1.5

    def test_impossible_budget_fails(self, estimate):
        pvnc = parse_pvnc(
            'pvnc "t" for u\nmodule tls_validator\n'
            "class https: tls_validator -> forward\n"
            "require tls_validator\nbudget 0.1\n"
        )
        offer = make_service().handle_dm(
            DiscoveryClient("a").make_dm(pvnc, compile_pvnc(pvnc).estimate),
            0.0,
        )
        assert plan_acceptance(offer, pvnc) is None


class TestNegotiation:
    def run(self, providers, pvnc, strategy):
        client = DiscoveryClient("alice:mac")
        estimate = compile_pvnc(pvnc).estimate
        return negotiate(client, providers, pvnc, estimate, now=0.0,
                         strategy=strategy)

    def test_best_of_zone_picks_cheapest_full_coverage(self, pvnc):
        cheap = make_service("cheap", pricing=PricingPolicy(
            load_multiplier=0.5))
        pricey = make_service("pricey", pricing=PricingPolicy(
            load_multiplier=2.0))
        outcome = self.run([pricey, cheap], pvnc, STRATEGY_BEST_OF_ZONE)
        assert outcome.accepted
        assert outcome.provider == "cheap"

    def test_coverage_beats_price(self, pvnc):
        partial_cheap = make_service(
            "partial", services=("classifier", "tls_validator",
                                 "pii_detector"),
            pricing=PricingPolicy(load_multiplier=0.1),
        )
        full = make_service("full")
        outcome = self.run([partial_cheap, full], pvnc,
                           STRATEGY_BEST_OF_ZONE)
        assert outcome.provider == "full"
        assert outcome.plan.dropped == ()

    def test_accept_first_takes_first_viable(self, pvnc):
        first = make_service("first", pricing=PricingPolicy(
            load_multiplier=2.0))
        second = make_service("second")
        outcome = self.run([first, second], pvnc, STRATEGY_ACCEPT_FIRST)
        assert outcome.provider == "first"

    def test_no_offers_fails_gracefully(self, pvnc):
        outcome = self.run([make_service("mute", services=())], pvnc,
                           STRATEGY_BEST_OF_ZONE)
        assert not outcome.accepted
        assert "no provider answered" in outcome.reason

    def test_free_only_strategy(self):
        pvnc = parse_pvnc(
            'pvnc "t" for u\nmodule tls_validator\nmodule transcoder\n'
            "class https: tls_validator -> forward\n"
            "class video_image: transcoder -> forward\n"
        )
        freebie = make_service("freebie", pricing=PricingPolicy(
            free_tier=("classifier", "tls_validator", "transcoder")))
        outcome = self.run([make_service("paid"), freebie], pvnc,
                           STRATEGY_FREE_ONLY)
        assert outcome.accepted
        assert outcome.provider == "freebie"
        assert outcome.plan.price == 0.0

    def test_free_only_fails_when_required_is_paid(self, pvnc):
        outcome = self.run([make_service()], pvnc, STRATEGY_FREE_ONLY)
        assert not outcome.accepted

    def test_subset_retry_adds_round(self):
        pvnc = parse_pvnc(
            'pvnc "t" for u\n'
            "module tls_validator\nmodule pii_detector\nmodule transcoder\n"
            "class https: tls_validator -> forward\n"
            "class web_text: pii_detector -> forward\n"
            "class video_image: transcoder -> forward\n"
            "require tls_validator\nprefer transcoder\nbudget 1.5\n"
        )
        outcome = self.run([make_service()], pvnc, STRATEGY_SUBSET_RETRY)
        assert outcome.accepted
        assert outcome.rounds == 2
        assert outcome.plan.price <= 1.5

    def test_unknown_strategy(self, pvnc):
        with pytest.raises(NegotiationError):
            self.run([make_service()], pvnc, "coin_flip")


class TestWaitForBetter:
    """The §3.1 'wait for a better offer' strategy over time."""

    def zone(self, pvnc):
        from repro.core.discovery import negotiate_over_time
        from repro.core.pvnc import compile_pvnc

        pricey = make_service("pricey", pricing=PricingPolicy(
            load_multiplier=3.0))
        cheap = make_service("cheap")
        estimate = compile_pvnc(pvnc).estimate
        return negotiate_over_time, pricey, cheap, estimate

    def test_waiting_finds_the_later_cheaper_provider(self, pvnc):
        negotiate_over_time, pricey, cheap, estimate = self.zone(pvnc)
        client = DiscoveryClient("alice:mac")
        outcome = negotiate_over_time(
            client,
            schedule=[(0.0, [pricey]), (10.0, [pricey, cheap])],
            pvnc=pvnc, estimate=estimate, deadline=20.0,
        )
        assert outcome.accepted
        assert outcome.provider == "cheap"
        assert outcome.rounds == 2

    def test_short_deadline_settles_for_the_early_offer(self, pvnc):
        negotiate_over_time, pricey, cheap, estimate = self.zone(pvnc)
        client = DiscoveryClient("alice:mac")
        outcome = negotiate_over_time(
            client,
            schedule=[(0.0, [pricey]), (10.0, [pricey, cheap])],
            pvnc=pvnc, estimate=estimate, deadline=5.0,
        )
        assert outcome.accepted
        assert outcome.provider == "pricey"

    def test_expired_offer_triggers_refresh_round(self, pvnc):
        from repro.core.discovery import negotiate_over_time
        from repro.core.pvnc import compile_pvnc

        short_lived = make_service("shortlived")
        short_lived.offer_lifetime = 8.0
        client = DiscoveryClient("alice:mac")
        outcome = negotiate_over_time(
            client,
            schedule=[(0.0, [short_lived])],
            pvnc=pvnc, estimate=compile_pvnc(pvnc).estimate, deadline=30.0,
        )
        assert outcome.accepted
        assert outcome.rounds == 2  # initial flood + deadline refresh
        assert outcome.offer.expires_at >= 30.0

    def test_nothing_viable(self, pvnc):
        from repro.core.discovery import negotiate_over_time
        from repro.core.pvnc import compile_pvnc

        mute = make_service("mute", services=())
        outcome = negotiate_over_time(
            DiscoveryClient("alice:mac"),
            schedule=[(0.0, [mute])],
            pvnc=pvnc, estimate=compile_pvnc(pvnc).estimate, deadline=10.0,
        )
        assert not outcome.accepted
        assert "deadline" in outcome.reason


class TestSubsetRetryConsistency:
    def test_deployment_request_matches_paid_services(self):
        """Regression: after a subset retry, the deployment request's
        PVNC must contain exactly the services being paid for — the
        originally-dropped modules must not sneak back in."""
        pvnc = parse_pvnc(
            'pvnc "t" for u\n'
            "module tls_validator\nmodule pii_detector\nmodule transcoder\n"
            "class https: tls_validator -> forward\n"
            "class web_text: pii_detector -> forward\n"
            "class video_image: transcoder -> forward\n"
            "require tls_validator\nprefer transcoder\nbudget 1.5\n"
        )
        client = DiscoveryClient("alice:mac")
        outcome = negotiate(
            client, [make_service()], pvnc,
            compile_pvnc(pvnc).estimate, now=0.0,
            strategy=STRATEGY_SUBSET_RETRY,
        )
        assert outcome.accepted
        assert "transcoder" in outcome.plan.dropped
        request = build_request("alice:mac", outcome.offer, pvnc,
                                outcome.plan)
        assert set(request.pvnc.used_services()) == set(
            outcome.plan.services
        )
        assert "transcoder" not in request.pvnc.services
        assert request.payment == outcome.plan.price
