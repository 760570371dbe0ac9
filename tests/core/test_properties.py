"""Property-based tests on core PVN invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.auditor.path_proof import (
    ProofStamp,
    make_keyring,
    path_proof_ok,
)
from repro.core.discovery import DiscoveryClient, DiscoveryService, PricingPolicy
from repro.core.discovery.messages import DeploymentAck
from repro.core.discovery.negotiation import plan_acceptance
from repro.core.pvnc.model import ClassRule, Constraints, ModuleSpec, Pvnc
from repro.core.pvnc.compiler import builtin_services
from repro.core.pvnc import compile_pvnc, parse_pvnc, render_pvnc
from repro.core.pvnc.validation import validate_pvnc
from repro.netsim import Packet

SERVICES = sorted(builtin_services() - {"classifier", "replica_selector"})
CLASSES = ["web_text", "video_image", "https", "dns", "other"]


@st.composite
def pvncs(draw):
    """Random valid PVNCs over the builtin module catalogue."""
    services = draw(st.lists(st.sampled_from(SERVICES), min_size=1,
                             max_size=5, unique=True))
    n_classes = draw(st.integers(min_value=1, max_value=4))
    chosen_classes = draw(st.permutations(CLASSES))[:n_classes]
    rules = []
    for traffic_class in chosen_classes:
        pipeline = draw(st.lists(st.sampled_from(services), max_size=3,
                                 unique=True))
        rules.append(ClassRule(traffic_class, tuple(pipeline)))
    rules.append(ClassRule("default", ()))
    required = draw(st.lists(st.sampled_from(services), max_size=2,
                             unique=True))
    preferred = [s for s in services if s not in required][:2]
    budget = draw(st.floats(min_value=0.5, max_value=20.0))
    return Pvnc(
        user=draw(st.sampled_from(["alice", "bob", "carol"])),
        name="prop",
        modules=tuple(ModuleSpec.make(s) for s in services),
        class_rules=tuple(rules),
        constraints=Constraints(
            required_services=tuple(required),
            preferred_services=tuple(preferred),
            max_price=budget,
            max_added_latency=0.010,
        ),
    )


class TestPvncProperties:
    @settings(max_examples=40, deadline=None)
    @given(pvncs())
    def test_random_pvncs_validate(self, pvnc):
        assert validate_pvnc(pvnc, builtin_services()) == []

    @settings(max_examples=40, deadline=None)
    @given(pvncs())
    def test_dsl_roundtrip_preserves_digest(self, pvnc):
        assert parse_pvnc(render_pvnc(pvnc)).digest() == pvnc.digest()

    @settings(max_examples=40, deadline=None)
    @given(pvncs())
    def test_dsl_roundtrip_reaches_fixed_point(self, pvnc):
        # DSL -> PVNC -> DSL is a fixed point after one round: the
        # rendered text re-parses to an equal object and re-renders to
        # the same bytes.
        text = render_pvnc(pvnc)
        reparsed = parse_pvnc(text)
        assert reparsed == parse_pvnc(render_pvnc(reparsed))
        assert render_pvnc(reparsed) == text

    @settings(max_examples=40, deadline=None)
    @given(pvncs())
    def test_compile_covers_used_services(self, pvnc):
        compiled = compile_pvnc(pvnc)
        deployed = set(compiled.deployment_services)
        assert set(pvnc.used_services()) <= deployed
        assert "classifier" in deployed
        assert compiled.pvn_match.owner == pvnc.user
        assert compiled.estimate.containers == len(deployed)

    @settings(max_examples=40, deadline=None)
    @given(pvncs(), st.sets(st.sampled_from(SERVICES), max_size=3))
    def test_without_services_always_revalidates(self, pvnc, dropped):
        trimmed = pvnc.without_services(dropped)
        assert validate_pvnc(trimmed, builtin_services()) == []
        assert not (set(trimmed.used_services()) & dropped)


class TestNegotiationProperties:
    def make_offer(self, pvnc, offered_services, multiplier=1.0):
        service = DiscoveryService(
            provider="p",
            supported_services=tuple(offered_services),
            pricing=PricingPolicy(load_multiplier=multiplier),
            deploy=lambda request: DeploymentAck("x", "10.200.0.0/24"),
        )
        compiled = compile_pvnc(pvnc)
        dm = DiscoveryClient("d").make_dm(pvnc, compiled.estimate)
        return service.handle_dm(dm, now=0.0)

    @settings(max_examples=40, deadline=None)
    @given(pvncs(), st.floats(min_value=0.2, max_value=5.0))
    def test_plan_respects_budget_and_requirements(self, pvnc, multiplier):
        from hypothesis import assume

        assume(pvnc.used_services())  # a provider must have something to offer
        offer = self.make_offer(pvnc, pvnc.used_services(), multiplier)
        plan = plan_acceptance(offer, pvnc)
        requested = set(pvnc.used_services())
        required = set(pvnc.constraints.required_services) & requested
        if plan is None:
            # Only legitimate reason here: required set busts the budget.
            base = sum(offer.price_of(s) for s in required)
            assert base > pvnc.constraints.max_price
            return
        assert plan.price <= pvnc.constraints.max_price + 1e-9
        assert required <= set(plan.services)
        assert set(plan.services) | set(plan.dropped) >= requested

    @settings(max_examples=30, deadline=None)
    @given(pvncs(), st.sets(st.sampled_from(SERVICES), max_size=3))
    def test_plan_never_buys_unoffered(self, pvnc, withheld):
        from hypothesis import assume

        offered = [s for s in pvnc.used_services() if s not in withheld]
        assume(offered)
        offer = self.make_offer(pvnc, offered)
        plan = plan_acceptance(offer, pvnc)
        if plan is not None:
            assert set(plan.services) <= set(offered)


class TestPathProofProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        waypoints=st.lists(
            st.sampled_from(["a", "b", "c", "d", "e"]),
            min_size=1, max_size=5, unique=True,
        ),
        skip_index=st.integers(min_value=0, max_value=4),
    )
    def test_any_skipped_waypoint_breaks_the_proof(self, waypoints,
                                                   skip_index):
        keyring = make_keyring("dep", waypoints)
        packet = Packet(src="1.1.1.1", dst="2.2.2.2", owner="u")
        skipped = waypoints[skip_index % len(waypoints)]
        for waypoint in waypoints:
            if waypoint != skipped:
                ProofStamp(waypoint, keyring.key_for(waypoint))(packet)
        complete = Packet(src="1.1.1.1", dst="2.2.2.2", owner="u")
        for waypoint in waypoints:
            ProofStamp(waypoint, keyring.key_for(waypoint))(complete)
        assert path_proof_ok(complete, keyring, waypoints)
        assert not path_proof_ok(packet, keyring, waypoints)
