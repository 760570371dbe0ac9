"""Tests for embedding, the deployment manager, isolation, lifecycle."""

import pytest

from repro.core.deployment import (
    DeploymentState,
    LeaseTable,
    estimate_max_subscribers,
    migrate_device,
    probe_cross_user,
    refresh_address,
    sweep_deployments,
    sweep_expired,
)
from repro.core.deployment.embedding import embed_pvn
from repro.core.deployment.manager import DeploymentManager
from repro.core.discovery.messages import (
    DeploymentAck,
    DeploymentNack,
    DeploymentRequest,
)
from repro.core.pvnc import UserEnvironment, compile_pvnc
from repro.core.pvnc.dsl import parse_pvnc
from repro.core.session import default_pvnc
from repro.errors import AdmissionError, DeploymentError
from repro.netproto.dhcp import DhcpClient, DhcpServer
from repro.netproto.dns import Resolver, TrustAnchor, Zone, ZoneSigner
from repro.netproto.tls import TrustStore, make_web_pki
from repro.netsim import (
    Packet,
    Simulator,
    attach_device,
    build_access_network,
    build_wide_area,
)
from repro.nfv import HostCapacity, NfvHost


def make_env():
    _, trust_store, _ = make_web_pki(0.0, ["x.example.com"])
    anchor = TrustAnchor()
    anchor.add_zone("example.com", b"zk")
    signer = ZoneSigner("example.com", key=b"zk")
    zone = Zone("example.com", signer=signer)
    zone.add("x.example.com", "A", "198.51.100.9")
    return UserEnvironment(
        trust_store=trust_store,
        trust_anchor=anchor,
        open_resolvers=[Resolver("open0", [zone])],
    )


@pytest.fixture
def world():
    sim = Simulator()
    topo = build_wide_area(build_access_network())
    attach_device(topo, "dev_alice")
    hosts = {n: NfvHost(n) for n in topo.nodes_of_kind("nfv")}
    dhcp = DhcpServer("10.10.0.0/16", pvn_server="pvn.isp")
    manager = DeploymentManager(
        provider="isp", topo=topo, hosts=hosts, sim=sim, dhcp=dhcp,
    )
    return sim, topo, hosts, dhcp, manager


def make_request(pvnc=None, payment=10.0):
    pvnc = pvnc or default_pvnc()
    return DeploymentRequest(
        device_id="alice:mac", offer_id=1, pvnc=pvnc,
        accepted_services=pvnc.used_services(), payment=payment,
    )


class TestEmbedding:
    def test_embed_produces_waypointed_path(self, world):
        _, topo, hosts, _, _ = world
        compiled = compile_pvnc(default_pvnc())
        result = embed_pvn(compiled, topo, hosts, device_node="dev_alice")
        assert result.plan.path[0] == "dev_alice"
        assert result.plan.path[-1] == "gw"
        assert result.stretch >= 1.0
        assert result.expected_rtt > 0

    def test_reuse_of_physical_proxy(self, world):
        _, topo, hosts, _, _ = world
        compiled = compile_pvnc(default_pvnc())
        result = embed_pvn(compiled, topo, hosts, device_node="dev_alice")
        reused = {d.service for d in result.plan.decisions
                  if d.reused_physical}
        assert "tcp_proxy" in reused  # reuse=yes in the default PVNC

    def test_excessive_stretch_refused(self, world):
        _, topo, hosts, _, _ = world
        compiled = compile_pvnc(default_pvnc())
        with pytest.raises(AdmissionError):
            embed_pvn(compiled, topo, hosts, device_node="dev_alice",
                      max_stretch=1.0)

    def test_estimate_max_subscribers(self):
        hosts = {"n": NfvHost("n", HostCapacity(memory_bytes=60_000_000,
                                                cpu_cores=10.0))}
        assert estimate_max_subscribers(hosts, per_user_memory=6_000_000,
                                        per_user_cpu=0.5) == 10


class TestDeploymentManager:
    def test_successful_deploy_acks_with_subnet(self, world):
        sim, _, _, dhcp, manager = world
        ack = manager.deploy(make_request(), make_env(), "dev_alice",
                             now=sim.now)
        assert isinstance(ack, DeploymentAck)
        assert ack.pvn_subnet.startswith("10.200.")
        deployment = manager.deployment(ack.deployment_id)
        assert deployment.user == "alice"
        assert deployment.setup_latency == pytest.approx(0.030)
        assert manager.active_count == 1

    def test_containers_launched_on_nfv_hosts(self, world):
        sim, _, hosts, _, manager = world
        ack = manager.deploy(make_request(), make_env(), "dev_alice",
                             now=sim.now)
        deployment = manager.deployment(ack.deployment_id)
        # tcp_proxy reused physically; the rest are fresh containers.
        assert "tcp_proxy" not in deployment.containers
        assert "tls_validator" in deployment.containers
        total_hosted = sum(h.container_count for h in hosts.values())
        assert total_hosted == len(deployment.containers)

    def test_invalid_pvnc_nacked(self, world):
        sim, _, _, _, manager = world
        bad = parse_pvnc(
            'pvnc "bad" for alice\nmodule mystery_box\n'
            "class web_text: mystery_box -> forward\n"
        )
        response = manager.deploy(make_request(bad), make_env(),
                                  "dev_alice", now=sim.now)
        assert isinstance(response, DeploymentNack)
        assert "mystery_box" in response.reason

    def test_datapath_fig1a_classification(self, world):
        """Fig. 1(a): video transcoded, web scrubbed, clean https passes."""
        sim, _, _, _, manager = world
        ack = manager.deploy(make_request(), make_env(), "dev_alice",
                             now=sim.now)
        datapath = manager.deployment(ack.deployment_id).datapath

        from repro.netproto.http import CONTENT_VIDEO, HttpResponse, HttpRequest

        video = Packet(src="10.0.0.1", dst="1.1.1.1", owner="alice",
                       payload=HttpResponse(body=b"v" * 1000,
                                            content_type=CONTENT_VIDEO))
        outcome = datapath.process(video, now=1.0)
        assert outcome.action == "forward"
        assert outcome.traffic_class == "video_image"
        assert len(video.payload.body) == 500  # transcoded to medium

        leaky = Packet(src="10.0.0.1", dst="1.1.1.1", owner="alice",
                       dst_port=80,
                       payload=HttpRequest("POST", "api.example",
                                           body=b"email=a@b.com"))
        outcome = datapath.process(leaky, now=1.0)
        assert outcome.traffic_class == "web_text"
        assert b"[REDACTED]" in leaky.payload.body

    def test_datapath_added_delay_matches_chain_length(self, world):
        sim, _, _, _, manager = world
        ack = manager.deploy(make_request(), make_env(), "dev_alice",
                             now=sim.now)
        datapath = manager.deployment(ack.deployment_id).datapath
        packet = Packet(src="10.0.0.1", dst="1.1.1.1", owner="alice",
                        dst_port=4444)  # class: other -> default pipeline
        outcome = datapath.process(packet, now=1.0)
        assert outcome.added_delay == pytest.approx(45e-6)  # classifier only

    def test_teardown_frees_everything(self, world):
        sim, _, hosts, _, manager = world
        ack = manager.deploy(make_request(), make_env(), "dev_alice",
                             now=sim.now)
        manager.teardown(ack.deployment_id)
        deployment = manager.deployment(ack.deployment_id)
        assert deployment.state is DeploymentState.TORN_DOWN
        assert all(h.container_count == 0 for h in hosts.values())
        manager.teardown(ack.deployment_id)  # idempotent

    def test_subnets_outlive_the_256th_deployment(self, world):
        """10.200.<n>.0/24 for the first 255 lifetime deployments, then
        the next second octet — not an AddressError on 10.200.256.0."""
        sim, _, hosts, dhcp, manager = world
        env = make_env()
        subnets = []
        for _ in range(300):
            ack = manager.deploy(make_request(), env, "dev_alice",
                                 now=sim.now)
            assert isinstance(ack, DeploymentAck), ack
            subnets.append(ack.pvn_subnet)
            manager.teardown(ack.deployment_id)
        assert subnets[:255] == [f"10.200.{n}.0/24" for n in range(1, 256)]
        assert subnets[255:258] == [
            "10.201.0.0/24", "10.201.1.0/24", "10.201.2.0/24"]
        assert len(set(subnets)) == 300
        assert all(h.container_count == 0 for h in hosts.values())
        # The refresh still lands inside the spilled block.
        ack = manager.deploy(make_request(), env, "dev_alice", now=sim.now)
        client = DhcpClient("aa:bb:cc:00:00:01")
        client.run_exchange(dhcp, now=sim.now)
        lease = refresh_address(manager, dhcp, ack.deployment_id,
                                client.mac, now=sim.now)
        assert lease.ip.startswith("10.201.45.")

    def test_subnet_exhaustion_is_a_typed_nack(self, world, monkeypatch):
        from repro.core.deployment import manager as manager_module

        sim, _, hosts, _, manager = world
        monkeypatch.setattr(manager_module, "_PVN_SUBNETS", 2)
        env = make_env()
        for _ in range(2):
            ack = manager.deploy(make_request(), env, "dev_alice",
                                 now=sim.now)
            manager.teardown(ack.deployment_id)
        nack = manager.deploy(make_request(), env, "dev_alice", now=sim.now)
        assert isinstance(nack, DeploymentNack)
        assert nack.reason.startswith("AdmissionError")
        # Refused before anything was launched.
        assert all(h.container_count == 0 for h in hosts.values())

    def test_two_users_coexist(self, world):
        sim, topo, _, _, manager = world
        attach_device(topo, "dev_bob", ap="ap1")
        ack_a = manager.deploy(make_request(), make_env(), "dev_alice",
                               now=sim.now)
        ack_b = manager.deploy(make_request(default_pvnc("bob")),
                               make_env(), "dev_bob", now=sim.now)
        assert isinstance(ack_a, DeploymentAck)
        assert isinstance(ack_b, DeploymentAck)
        assert ack_a.pvn_subnet != ack_b.pvn_subnet
        assert manager.active_count == 2


class TestIsolation:
    def test_sweep_clean_world(self, world):
        sim, _, _, _, manager = world
        manager.deploy(make_request(), make_env(), "dev_alice", now=sim.now)
        report = sweep_deployments(manager)
        assert report.ok

    def test_cross_user_probe_refused(self, world):
        sim, _, _, _, manager = world
        ack = manager.deploy(make_request(), make_env(), "dev_alice",
                             now=sim.now)
        assert probe_cross_user(manager, ack.deployment_id, "mallory")

    def test_sweep_flags_tampered_sandbox(self, world):
        sim, _, _, _, manager = world
        ack = manager.deploy(make_request(), make_env(), "dev_alice",
                             now=sim.now)
        deployment = manager.deployment(ack.deployment_id)
        deployment.datapath.sandboxes["classifier"].owner = "mallory"
        report = sweep_deployments(manager)
        assert not report.ok
        assert any("mallory" in v for v in report.violations)


class TestLifecycle:
    def test_refresh_address_into_pvn_subnet(self, world):
        sim, _, _, dhcp, manager = world
        client = DhcpClient("aa:bb:cc:00:00:01")
        client.run_exchange(dhcp, now=sim.now)
        ack = manager.deploy(make_request(), make_env(), "dev_alice",
                             now=sim.now)
        lease = refresh_address(manager, dhcp, ack.deployment_id,
                                client.mac, now=sim.now)
        assert lease.pvn_scoped
        assert lease.ip.startswith("10.200.")

    def test_refresh_into_torn_down_deployment_rejected(self, world):
        sim, _, _, dhcp, manager = world
        client = DhcpClient("aa:bb:cc:00:00:01")
        client.run_exchange(dhcp, now=sim.now)
        ack = manager.deploy(make_request(), make_env(), "dev_alice",
                             now=sim.now)
        manager.teardown(ack.deployment_id)
        with pytest.raises(DeploymentError):
            refresh_address(manager, dhcp, ack.deployment_id, client.mac,
                            now=sim.now)

    def test_migration_reembeds(self, world):
        sim, topo, _, _, manager = world
        ack = manager.deploy(make_request(), make_env(), "dev_alice",
                             now=sim.now)
        attach_device(topo, "dev_alice2", ap="ap1")
        result = migrate_device(manager, ack.deployment_id, "dev_alice2",
                                now=sim.now)
        # Migration is make-before-break: the cutover commits to a
        # *fresh* deployment id and fences the superseded source.
        assert result.committed
        assert result.source_deployment_id == ack.deployment_id
        assert result.deployment_id != ack.deployment_id
        deployment = manager.deployment(result.deployment_id)
        assert deployment.embedding.device_node == "dev_alice2"
        source = manager.deployment(ack.deployment_id)
        assert source.state is DeploymentState.SUPERSEDED

    def test_lease_expiry_sweeps(self, world):
        sim, _, _, _, manager = world
        ack = manager.deploy(make_request(), make_env(), "dev_alice",
                             now=sim.now)
        leases = LeaseTable()
        leases.fund(ack.deployment_id, until=100.0)
        assert sweep_expired(manager, leases, now=50.0) == []
        torn = sweep_expired(manager, leases, now=200.0)
        assert torn == [ack.deployment_id]
        deployment = manager.deployment(ack.deployment_id)
        assert deployment.state is DeploymentState.TORN_DOWN
        assert sweep_expired(manager, leases, now=300.0) == []
