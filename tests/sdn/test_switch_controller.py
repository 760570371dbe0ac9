"""Tests for the SDN switch, controller, routing, and verification."""

import pytest

from repro.errors import ConfigurationError, IsolationError
from repro.netsim import Host, Link, Packet, Simulator
from repro.netsim.topology import build_access_network, attach_device
from repro.sdn.flowtable import FlowRule
from repro.sdn import Controller, SdnSwitch
from repro.sdn.actions import Drop, Output, ToChain
from repro.sdn.match import Match
from repro.sdn.verification import (
    check_isolation,
    check_loop_freedom,
    check_no_blackholes,
    trace_forwarding,
    verify_all,
)
from repro.sdn.routing import path_stretch, waypointed_path


@pytest.fixture
def fabric():
    """host_a -- sw1 -- sw2 -- host_b, controller managing both switches."""
    sim = Simulator()
    a = Host(sim, "a", "10.0.0.1")
    b = Host(sim, "b", "10.0.1.1")
    sw1 = SdnSwitch(sim, "sw1")
    sw2 = SdnSwitch(sim, "sw2")
    Link(a, sw1, latency=0.001, bandwidth_bps=1e9)
    Link(sw1, sw2, latency=0.001, bandwidth_bps=1e9)
    Link(sw2, b, latency=0.001, bandwidth_bps=1e9)
    ctrl = Controller()
    ctrl.adopt(sw1)
    ctrl.adopt(sw2)
    return sim, a, b, sw1, sw2, ctrl


def carried(*nodes):
    """``{(from, to): packets delivered}`` for each direction of the
    links among ``nodes`` that delivered any."""
    links = {link for node in nodes for link in node.links.values()}
    return {(end.name, link.other_end(end).name): link.stats_from(end).delivered
            for link in links for end in (link.a, link.b)
            if link.stats_from(end).delivered}


def flow_pkt(owner="alice", **kwargs):
    defaults = dict(src="10.0.0.1", dst="10.0.1.1", protocol="tcp",
                    src_port=40000, dst_port=443, owner=owner, size=100)
    defaults.update(kwargs)
    return Packet(**defaults)


class TestSwitchForwarding:
    def test_end_to_end_forwarding(self, fabric):
        sim, a, b, sw1, sw2, ctrl = fabric
        ctrl.install_default_route("sw1", "10.0.1.0/24", "sw2")
        ctrl.install_default_route("sw2", "10.0.1.0/24", "b")
        packet = flow_pkt()
        a.originate(packet, via="sw1")
        sim.run()
        assert packet.delivered_at is not None
        assert carried(a, b, sw1, sw2) == {
            ("a", "sw1"): 1, ("sw1", "sw2"): 1, ("sw2", "b"): 1}
        assert sw1.packets_forwarded == 1

    def test_table_miss_goes_to_controller_and_drops(self, fabric):
        sim, a, b, sw1, sw2, ctrl = fabric
        packet = flow_pkt()
        a.originate(packet, via="sw1")
        sim.run()
        assert packet.dropped
        assert ctrl.packet_ins == 1

    def test_drop_action(self, fabric):
        sim, a, b, sw1, sw2, ctrl = fabric
        ctrl.install("sw1", Match(dst_port=443), (Drop(reason="blocked"),),
                     priority=200)
        packet = flow_pkt()
        a.originate(packet, via="sw1")
        sim.run()
        assert packet.dropped
        assert "blocked" in packet.drop_reason
        assert sw1.packets_dropped == 1

    def test_chain_action_invokes_executor(self, fabric):
        sim, a, b, sw1, sw2, ctrl = fabric
        seen = []

        def executor(packet, chain_id):
            seen.append((packet.packet_id, chain_id))
            packet.metadata["chain_delay"] = 0.5
            return packet

        sw1.bind_chain("c1", executor)
        ctrl.install("sw1", Match(),
                     (ToChain("c1", resume_neighbor="sw2"),))
        ctrl.install_default_route("sw2", "10.0.1.0/24", "b")
        packet = flow_pkt()
        a.originate(packet, via="sw1")
        sim.run()
        assert seen == [(packet.packet_id, "c1")]
        # The resume waited out the chain delay the executor reported.
        assert packet.delivered_at > 0.5
        assert "chain_delay" not in packet.metadata
        assert sw1.packets_forwarded == 1

    def test_chain_consuming_packet_stops_forwarding(self, fabric):
        sim, a, b, sw1, sw2, ctrl = fabric
        sw1.bind_chain("c1", lambda packet, chain_id: None)
        ctrl.install("sw1", Match(), (ToChain("c1", resume_neighbor="sw2"),))
        packet = flow_pkt()
        a.originate(packet, via="sw1")
        sim.run()
        assert packet.delivered_at is None

    def test_unbound_chain_drops(self, fabric):
        sim, a, b, sw1, sw2, ctrl = fabric
        ctrl.install("sw1", Match(), (ToChain("ghost", "sw2"),))
        packet = flow_pkt()
        a.originate(packet, via="sw1")
        sim.run()
        assert packet.dropped and "ghost" in packet.drop_reason

    def test_nonterminating_actions_raise(self, fabric):
        """Every action is terminal, so the one list that cannot
        terminate is the empty one: it is refused at install."""
        _, _, _, _, _, ctrl = fabric
        with pytest.raises(ConfigurationError):
            ctrl.install("sw1", Match(), ())


class TestControllerIsolation:
    def test_pvn_rule_must_be_owner_scoped(self, fabric):
        _, _, _, _, _, ctrl = fabric
        with pytest.raises(IsolationError):
            ctrl.install("sw1", Match(dst_port=53), (Drop(),),
                         pvn_id="alice/dep1")

    def test_owner_scoped_rule_accepted(self, fabric):
        _, _, _, _, _, ctrl = fabric
        rule = ctrl.install("sw1", Match(owner="alice", dst_port=53),
                            (Drop(),), pvn_id="alice/dep1")
        assert rule.pvn_id == "alice/dep1"

    def test_remove_pvn_tears_down_everywhere(self, fabric):
        _, _, _, sw1, sw2, ctrl = fabric
        for switch in ("sw1", "sw2"):
            ctrl.install(switch, Match(owner="alice"), (Drop(),),
                         pvn_id="alice/dep1")
        assert ctrl.remove_pvn("alice/dep1") == 2
        assert len(sw1.table) == 0 and len(sw2.table) == 0
        assert ctrl.rules_for_pvn("alice/dep1") == []

    def test_unknown_switch_rejected(self, fabric):
        _, _, _, _, _, ctrl = fabric
        with pytest.raises(ConfigurationError):
            ctrl.install("ghost", Match(), (Drop(),))


class TestRoutingHelpers:
    def test_shortest_and_waypointed_paths(self):
        topo = build_access_network()
        attach_device(topo, "dev")
        direct = topo.shortest_path("dev", "gw")
        assert direct[0] == "dev" and direct[-1] == "gw"
        via = waypointed_path(topo, "dev", "gw", ["nfv0"])
        assert "nfv0" in via
        assert via[0] == "dev" and via[-1] == "gw"

    def test_path_stretch_at_least_one(self):
        topo = build_access_network()
        attach_device(topo, "dev")
        stretch = path_stretch(topo, "dev", "gw", ["nfv0"])
        assert stretch >= 1.0

    def test_no_path_raises(self):
        topo = build_access_network()
        with pytest.raises(ConfigurationError):
            topo.shortest_path("gw", "ghost")


class TestVerification:
    def test_loop_detected(self, fabric):
        _, _, _, _, _, ctrl = fabric
        ctrl.install("sw1", Match(), (Output("sw2"),))
        ctrl.install("sw2", Match(), (Output("sw1"),))
        report = check_loop_freedom(ctrl, [("sw1", flow_pkt())])
        assert not report.ok
        assert "loop" in report.violations[0]

    def test_clean_path_passes_all(self, fabric):
        _, _, _, _, _, ctrl = fabric
        ctrl.install_default_route("sw1", "10.0.1.0/24", "sw2")
        ctrl.install_default_route("sw2", "10.0.1.0/24", "b")
        report = verify_all(ctrl, [("sw1", flow_pkt())])
        assert report.ok

    def test_blackhole_detected(self, fabric):
        _, _, _, _, _, ctrl = fabric
        ctrl.install_default_route("sw1", "10.0.1.0/24", "sw2")
        # sw2 has no rule: probe reaches it and misses.
        report = check_no_blackholes(ctrl, [("sw1", flow_pkt())])
        assert not report.ok
        assert "blackhole at sw2" in report.violations[0]

    def test_isolation_check_flags_misscoped_rule(self, fabric):
        _, _, _, _, _, ctrl = fabric
        # The controller refuses this rule, so write it to the table
        # directly, as a buggy or compromised control plane could.
        ctrl.switch("sw1").table.install(FlowRule(
            match=Match(owner="bob"), actions=(Drop(),), pvn_id="alice/dep1"))
        report = check_isolation(ctrl)
        assert not report.ok

    def test_trace_stops_at_drop(self, fabric):
        _, _, _, _, _, ctrl = fabric
        ctrl.install("sw1", Match(), (Drop(),))
        assert trace_forwarding(ctrl, "sw1", flow_pkt()) == ["sw1"]
