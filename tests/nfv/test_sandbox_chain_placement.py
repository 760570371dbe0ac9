"""Tests for sandboxes, service chains, and chain placement."""

import dataclasses

import pytest

from repro.errors import EmbeddingError, SandboxViolation
from repro.netsim import Packet
from repro.netsim.topology import build_access_network, attach_device
from repro.nfv import (
    Capability,
    ChainHop,
    Container,
    NfvHost,
    ProcessingContext,
    Sandbox,
    ServiceChain,
)
from repro.nfv.container import ContainerSpec
from repro.nfv.middlebox import Middlebox, Verdict, VerdictKind
from repro.nfv.placement import PlacementRequest, place_chain
from repro.nfv.sandbox import ResourceBudget


class Blocker(Middlebox):
    service = "blocker"

    def inspect(self, packet, context):
        return Verdict.dropped("blocked by test")


class Rewriter(Middlebox):
    service = "rewriter"

    def inspect(self, packet, context):
        packet.metadata["rewritten"] = True
        return Verdict.rewritten("test rewrite")


class Tunneler(Middlebox):
    service = "tunneler"

    def inspect(self, packet, context):
        return Verdict.tunneled("cloud", reason="needs enclave")


def running(middlebox, owner="alice", spec=None):
    container = Container(middlebox, spec=spec, owner=owner)
    container.start_immediately(now=0.0)
    return container


def ctx(owner="alice"):
    return ProcessingContext(now=0.0, owner=owner)


def pkt(owner="alice"):
    return Packet(src="10.0.0.1", dst="1.1.1.1", owner=owner)


class TestSandbox:
    def test_cross_user_packet_raises(self):
        sandbox = Sandbox(Middlebox("mb"), owner="alice",
                          capabilities=Capability.all())
        with pytest.raises(SandboxViolation):
            sandbox.process(pkt(owner="bob"), ctx())
        assert sandbox.violations

    def test_capability_denied_coerced_to_pass(self):
        sandbox = Sandbox(Blocker(), owner="alice",
                          capabilities=Capability.OBSERVE)
        verdict = sandbox.process(pkt(), ctx())
        assert verdict.kind is VerdictKind.PASS
        assert "coerced" in verdict.reason
        assert any("BLOCK" in v for v in sandbox.violations)

    def test_granted_capability_allows_verdict(self):
        sandbox = Sandbox(Blocker(), owner="alice",
                          capabilities=Capability.OBSERVE | Capability.BLOCK)
        verdict = sandbox.process(pkt(), ctx())
        assert verdict.kind is VerdictKind.DROP

    def test_cpu_budget_kills_module(self):
        budget = ResourceBudget(cpu_seconds=50e-6, per_packet_cpu=20e-6)
        sandbox = Sandbox(Blocker(), owner="alice",
                          capabilities=Capability.all(), budget=budget)
        kinds = [sandbox.process(pkt(), ctx()).kind for _ in range(5)]
        assert kinds[0] is VerdictKind.DROP
        assert kinds[-1] is VerdictKind.PASS
        assert sandbox.killed

    def test_invalid_budget(self):
        with pytest.raises(SandboxViolation):
            ResourceBudget(cpu_seconds=0.0)

    def test_sandboxes_without_a_budget_share_one_frozen_default(self):
        one, two = (Sandbox(Middlebox("mb"), owner=owner,
                            capabilities=Capability.OBSERVE)
                    for owner in ("alice", "bob"))
        assert one.budget is two.budget
        assert one.budget == ResourceBudget()
        with pytest.raises(dataclasses.FrozenInstanceError):
            one.budget.cpu_seconds = 1.0
        one.process(pkt(), ctx())
        assert (one.cpu_used, two.cpu_used) == (20e-6, 0.0)


class TestServiceChain:
    def test_pass_through_chain(self):
        chain = ServiceChain("c", [ChainHop(running(Middlebox("a"))),
                                   ChainHop(running(Middlebox("b")))])
        result = chain.process(pkt(), ctx())
        assert result.packet is not None
        assert result.terminal_kind is VerdictKind.PASS
        assert len(result.verdicts) == 2
        assert result.added_delay == pytest.approx(2 * 45e-6)

    def test_drop_short_circuits(self):
        tail = running(Middlebox("tail"))
        chain = ServiceChain("c", [ChainHop(running(Blocker())),
                                   ChainHop(tail)])
        result = chain.process(pkt(), ctx())
        assert result.packet is None
        assert result.terminal_kind is VerdictKind.DROP
        assert tail.packets_processed == 0
        assert chain.packets_dropped == 1

    def test_rewrite_continues(self):
        chain = ServiceChain("c", [ChainHop(running(Rewriter())),
                                   ChainHop(running(Middlebox("tail")))])
        result = chain.process(pkt(), ctx())
        assert result.packet is not None
        assert result.packet.metadata["rewritten"]
        assert result.terminal_kind is VerdictKind.PASS

    def test_tunnel_invokes_callback(self):
        tunneled = []
        chain = ServiceChain(
            "c", [ChainHop(running(Tunneler()))],
            tunnel_callback=lambda packet, ep: tunneled.append(ep),
        )
        result = chain.process(pkt(), ctx())
        assert result.packet is None
        assert result.terminal_kind is VerdictKind.TUNNEL
        assert tunneled == ["cloud"]
        assert chain.packets_tunneled == 1

    def test_chain_delay_and_memory_aggregate(self):
        spec = ContainerSpec(per_packet_delay=10e-6, memory_bytes=1_000_000)
        chain = ServiceChain("c", [
            ChainHop(running(Middlebox("a"), spec=spec)),
            ChainHop(running(Middlebox("b"), spec=spec)),
            ChainHop(running(Middlebox("c"), spec=spec)),
        ])
        assert chain.per_packet_delay == pytest.approx(30e-6)
        assert chain.memory_bytes == 3_000_000

    def test_sandboxed_hop_enforces(self):
        sandbox = Sandbox(Blocker(), owner="alice",
                          capabilities=Capability.OBSERVE)
        chain = ServiceChain("c", [ChainHop(running(Blocker()), sandbox)])
        result = chain.process(pkt(), ctx())
        assert result.packet is not None  # DROP was coerced to PASS

    def test_as_executor_adapter(self):
        chain = ServiceChain("c", [ChainHop(running(Middlebox("a")))])
        executor = chain.as_executor()
        packet = pkt()
        assert executor(packet, "c") is packet
        blocked_chain = ServiceChain("d", [ChainHop(running(Blocker()))])
        executor2 = blocked_chain.as_executor()
        assert executor2(pkt(), "d") is None

    def test_chain_requires_id(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ServiceChain("", [])


class TestPlacement:
    @pytest.fixture
    def scenario(self):
        topo = build_access_network()
        attach_device(topo, "dev")
        hosts = {name: NfvHost(name) for name in topo.nodes_of_kind("nfv")}
        return topo, hosts

    def test_places_on_nfv_hosts(self, scenario):
        topo, hosts = scenario
        plan = place_chain(
            topo,
            [PlacementRequest("pii_detector", allow_physical_reuse=False)],
            src="dev", dst="gw", hosts=hosts,
        )
        assert len(plan.decisions) == 1
        assert plan.decisions[0].node in ("nfv0", "nfv1")
        assert not plan.decisions[0].reused_physical
        assert plan.path[0] == "dev" and plan.path[-1] == "gw"
        assert plan.stretch >= 1.0

    def test_reuses_physical_middlebox(self, scenario):
        """Fig. 1(b): the provider's physical TCP proxy is reused."""
        topo, hosts = scenario
        plan = place_chain(
            topo, [PlacementRequest("tcp_proxy")], src="dev", dst="gw",
            hosts=hosts,
        )
        assert plan.decisions[0].reused_physical
        assert plan.decisions[0].node == "pmb_tcp_proxy"
        assert plan.fresh_containers == 0

    def test_reuse_disabled_spawns_container(self, scenario):
        topo, hosts = scenario
        plan = place_chain(
            topo, [PlacementRequest("tcp_proxy", allow_physical_reuse=False)],
            src="dev", dst="gw", hosts=hosts,
        )
        assert not plan.decisions[0].reused_physical
        assert plan.fresh_containers == 1

    def test_capacity_exhaustion_raises(self, scenario):
        topo, _ = scenario
        from repro.nfv.hypervisor import HostCapacity

        tiny = {
            name: NfvHost(name, HostCapacity(memory_bytes=1_000, cpu_cores=0.01))
            for name in topo.nodes_of_kind("nfv")
        }
        with pytest.raises(EmbeddingError):
            place_chain(
                topo,
                [PlacementRequest("x", allow_physical_reuse=False)],
                src="dev", dst="gw", hosts=tiny,
            )

    def test_multi_hop_chain_orders_waypoints(self, scenario):
        topo, hosts = scenario
        plan = place_chain(
            topo,
            [PlacementRequest("classifier", allow_physical_reuse=False),
             PlacementRequest("pii", allow_physical_reuse=False)],
            src="dev", dst="gw", hosts=hosts,
        )
        assert len(plan.waypoints) == 2
        for waypoint in plan.waypoints:
            assert waypoint in plan.path

    def test_empty_chain_no_stretch(self, scenario):
        topo, hosts = scenario
        plan = place_chain(topo, [], src="dev", dst="gw", hosts=hosts)
        assert plan.stretch == 1.0
        assert plan.decisions == ()
