"""Live data-plane integration: PVN rules on real simulated switches.

The other integration tests drive the PVN data path directly; these
instantiate an actual switched network (hosts, links, SDN switches),
let the deployment manager install owner-scoped rules and bind the
chain executor, and push event-driven packets end to end — verifying
the control plane and data plane agree.
"""

import pytest

from repro.core.deployment.manager import DeploymentManager
from repro.core.discovery.messages import DeploymentAck, DeploymentRequest
from repro.core.pvnc import UserEnvironment
from repro.core.session import default_pvnc
from repro.netproto.http import HttpRequest
from repro.netproto.tls import make_web_pki
from repro.netsim import Host, Link, Packet, Simulator
from repro.netsim.topology import PhysicalTopology
from repro.nfv import NfvHost
from repro.sdn import Controller, SdnSwitch
from repro.sdn.verification import verify_all


@pytest.fixture
def live_world():
    """device -- agg(SDN) -- core(SDN) -- gw host, with an NFV node."""
    sim = Simulator()
    topo = PhysicalTopology("live")
    topo.add_node("dev_alice", kind="host")
    topo.add_node("agg", kind="switch")
    topo.add_node("core", kind="switch")
    topo.add_node("gw", kind="server")
    topo.add_node("nfv0", kind="nfv")
    topo.add_link("dev_alice", "agg", 0.002, 100e6)
    topo.add_link("agg", "core", 0.001, 1e9)
    topo.add_link("core", "gw", 0.001, 1e9)
    topo.add_link("nfv0", "agg", 0.0005, 1e9)

    device = Host(sim, "dev_alice", "10.10.0.2")
    gateway = Host(sim, "gw", "10.10.255.1")
    agg = SdnSwitch(sim, "agg")
    core = SdnSwitch(sim, "core")
    Link(device, agg, latency=0.002, bandwidth_bps=100e6)
    Link(agg, core, latency=0.001, bandwidth_bps=1e9)
    Link(core, gateway, latency=0.001, bandwidth_bps=1e9)

    controller = Controller()
    controller.adopt(agg)
    controller.adopt(core)
    # Baseline forwarding for non-PVN traffic.
    controller.install_default_route("agg", "0.0.0.0/0", "core")
    controller.install_default_route("core", "0.0.0.0/0", "gw")

    hosts = {"nfv0": NfvHost("nfv0")}
    manager = DeploymentManager(
        provider="live-isp", topo=topo, hosts=hosts,
        controller=controller, sim=sim,
    )
    _, trust_store, servers = make_web_pki(sim.now, ["bank.example.com"])
    from repro.netproto.dns import TrustAnchor

    anchor = TrustAnchor()
    anchor.add_zone("example.com", b"zk")
    env = UserEnvironment(trust_store=trust_store, trust_anchor=anchor)
    return sim, device, gateway, agg, core, controller, manager, env, servers


def deploy(manager, env, pvnc=None):
    pvnc = pvnc or default_pvnc()
    request = DeploymentRequest(
        device_id="alice:mac", offer_id=1, pvnc=pvnc,
        accepted_services=pvnc.used_services(), payment=10.0,
    )
    ack = manager.deploy(request, env, "dev_alice", now=manager.sim.now)
    assert isinstance(ack, DeploymentAck), getattr(ack, "reason", "")
    return ack


class TestLiveDataPlane:
    def test_pvn_rule_steers_owner_traffic_through_chain(self, live_world):
        sim, device, gateway, agg, core, controller, manager, env, _ = (
            live_world
        )
        ack = deploy(manager, env)
        packet = Packet(
            src=device.ip, dst="198.51.100.9", dst_port=80, owner="alice",
            payload=HttpRequest("POST", "x.example",
                                body=b"email=a@b.example.com"),
            size=400,
        )
        device.originate(packet, via="agg")
        sim.run()
        # Delivered at the gateway, scrubbed by the chain en route.
        assert packet.delivered_at is not None
        links = {link for node in (device, agg, core, gateway)
                 for link in node.links.values()}
        carried = {(end.name, link.other_end(end).name)
                   for link in links for end in (link.a, link.b)
                   if link.stats_from(end).delivered}
        assert carried == {("dev_alice", "agg"), ("agg", "core"),
                           ("core", "gw")}
        assert all(link.stats_from(end).delivered <= 1
                   for link in links for end in (link.a, link.b))
        assert b"[REDACTED]" in packet.payload.body
        datapath = manager.deployment(ack.deployment_id).datapath
        assert datapath.packets_processed == 1

    def test_other_users_bypass_the_pvn(self, live_world):
        sim, device, gateway, agg, core, controller, manager, env, _ = (
            live_world
        )
        ack = deploy(manager, env)
        packet = Packet(
            src="10.10.0.3", dst="198.51.100.9", dst_port=80, owner="bob",
            payload=HttpRequest("POST", "x.example",
                                body=b"email=bob@b.example.com"),
            size=400,
        )
        device.originate(packet, via="agg")  # same wire, different owner
        sim.run()
        assert packet.delivered_at is not None
        assert b"email=bob@b.example.com" in packet.payload.body  # untouched
        datapath = manager.deployment(ack.deployment_id).datapath
        assert datapath.packets_processed == 0

    def test_chain_drop_consumes_packet_in_flight(self, live_world):
        sim, device, gateway, agg, core, controller, manager, env, servers = (
            live_world
        )
        from repro.netproto import CertificateAuthority, MitmInterceptor

        deploy(manager, env)
        mitm = MitmInterceptor("evil", CertificateAuthority("E", b"e"),
                               now=sim.now)
        forged = mitm.intercept(
            servers["bank.example.com"].respond("bank.example.com")
        )
        packet = Packet(src=device.ip, dst="198.51.100.5", dst_port=443,
                        owner="alice", payload=forged, size=400)
        device.originate(packet, via="agg")
        sim.run()
        assert packet.delivered_at is None
        assert packet.dropped
        assert "invalid certificate" in packet.drop_reason

    def test_invariants_hold_with_pvn_rules_installed(self, live_world):
        sim, device, gateway, agg, core, controller, manager, env, _ = (
            live_world
        )
        deploy(manager, env)
        probes = [
            ("agg", Packet(src="10.10.0.3", dst="8.8.8.8", owner="bob")),
        ]
        report = verify_all(controller, probes)
        assert report.ok, report.violations

    def test_teardown_restores_plain_forwarding(self, live_world):
        sim, device, gateway, agg, core, controller, manager, env, _ = (
            live_world
        )
        ack = deploy(manager, env)
        manager.teardown(ack.deployment_id)
        packet = Packet(
            src=device.ip, dst="198.51.100.9", dst_port=80, owner="alice",
            payload=HttpRequest("POST", "x.example",
                                body=b"email=a@b.example.com"),
            size=400,
        )
        device.originate(packet, via="agg")
        sim.run()
        assert packet.delivered_at is not None
        assert b"email=a@b.example.com" in packet.payload.body  # no PVN now

    def test_per_packet_latency_overhead_negligible(self, live_world):
        """End-to-end check of the §3.3 'negligible overhead' claim on
        the live data plane."""
        sim, device, gateway, agg, core, controller, manager, env, _ = (
            live_world
        )
        baseline = Packet(src=device.ip, dst="198.51.100.9", dst_port=80,
                          owner="alice", size=400)
        device.originate(baseline, via="agg")
        sim.run()
        baseline_delay = baseline.delivered_at - baseline.created_at

        deploy(manager, env)
        with_pvn = Packet(src=device.ip, dst="198.51.100.9", dst_port=80,
                          owner="alice", size=400)
        device.originate(with_pvn, via="agg")
        sim.run()
        pvn_delay = with_pvn.delivered_at - with_pvn.created_at
        added = pvn_delay - baseline_delay
        # The chain charges its per-container processing time
        # (classifier + pii_detector for this web_text packet, 2 x 45us)
        # plus the embedding's placement detour toward nfv0.
        deployment = next(iter(manager.deployments.values()))
        detour = manager._detour_delay(deployment.embedding)
        assert added == pytest.approx(2 * 45e-6 + detour, rel=0.01)
        # End-to-end, the overhead stays comfortably small (§3.3).
        assert added < 0.5 * baseline_delay
