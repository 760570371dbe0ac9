"""Additional deployment-manager and platform coverage: store modules,
tunnel terminals, per-owner NFV quotas, and protocol helpers."""

import pytest

from repro.core.deployment.manager import DeploymentManager
from repro.core.discovery.messages import (
    DeploymentAck,
    DeploymentNack,
    DeploymentRequest,
)
from repro.core.discovery.protocol import check_ack
from repro.core.pvnc import UserEnvironment, parse_pvnc
from repro.core.store import PvnStore, SigningKey
from repro.errors import CapacityError, ProtocolError
from repro.middleboxes import TrackerBlocker
from repro.netproto.http import HttpRequest
from repro.netsim import Packet, Simulator
from repro.netsim.topology import (
    attach_device,
    build_access_network,
    build_wide_area,
)
from repro.nfv import Capability, Container, NfvHost
from repro.nfv.hypervisor import HostCapacity
from repro.nfv.middlebox import Middlebox


@pytest.fixture
def world():
    sim = Simulator()
    topo = build_wide_area(build_access_network())
    attach_device(topo, "dev_alice")
    hosts = {n: NfvHost(n) for n in topo.nodes_of_kind("nfv")}
    return sim, topo, hosts


def request_for(pvnc, payment=10.0):
    return DeploymentRequest(
        device_id="alice:mac", offer_id=1, pvnc=pvnc,
        accepted_services=pvnc.used_services(), payment=payment,
    )


class TestStoreModuleDeployment:
    def test_store_module_deploys_through_manager(self, world):
        sim, topo, hosts = world
        store = PvnStore(SigningKey("store", b"sk"))
        dev = SigningKey("acme", b"ak")
        store.register_developer(dev)
        store.publish("acme_blocker", "1.0", dev,
                      factory=lambda: TrackerBlocker(name="acme_blocker"),
                      capabilities=Capability.OBSERVE | Capability.BLOCK)
        factory, capabilities, _ = store.install("acme_blocker")

        manager = DeploymentManager(
            provider="isp", topo=topo, hosts=hosts, sim=sim,
            store_services=store.services,
            store_factories={"acme_blocker": factory},
            store_capabilities={"acme_blocker": capabilities},
        )
        pvnc = parse_pvnc(
            'pvnc "store-test" for alice\n'
            "module acme_blocker from=store\n"
            "class web_text: acme_blocker -> forward\n"
            "default: forward\n"
        )
        ack = manager.deploy(request_for(pvnc), UserEnvironment(),
                             "dev_alice", now=sim.now)
        assert isinstance(ack, DeploymentAck)
        datapath = manager.deployment(ack.deployment_id).datapath
        tracker = Packet(
            src="10.10.0.2", dst="203.0.113.9", dst_port=80, owner="alice",
            payload=HttpRequest("GET", "pixel.tracker.example"),
        )
        outcome = datapath.process(tracker, now=sim.now)
        assert outcome.action == "drop"

    def test_unknown_store_module_nacked(self, world):
        sim, topo, hosts = world
        manager = DeploymentManager(provider="isp", topo=topo, hosts=hosts,
                                    sim=sim)
        pvnc = parse_pvnc(
            'pvnc "bad" for alice\n'
            "module ghost_module from=store\n"
            "class web_text: ghost_module -> forward\n"
        )
        response = manager.deploy(request_for(pvnc), UserEnvironment(),
                                  "dev_alice", now=sim.now)
        assert isinstance(response, DeploymentNack)
        assert "ghost_module" in response.reason


class TestTunnelTerminals:
    def test_tunnel_terminal_surfaces_in_datapath(self, world):
        sim, topo, hosts = world
        manager = DeploymentManager(provider="isp", topo=topo, hosts=hosts,
                                    sim=sim)
        pvnc = parse_pvnc(
            'pvnc "tunnel-test" for alice\n'
            "class https: tunnel:cloud\n"
            "default: forward\n"
        )
        ack = manager.deploy(request_for(pvnc), UserEnvironment(),
                             "dev_alice", now=sim.now)
        assert isinstance(ack, DeploymentAck)
        datapath = manager.deployment(ack.deployment_id).datapath
        https = Packet(src="10.10.0.2", dst="198.51.100.5", dst_port=443,
                       owner="alice")
        outcome = datapath.process(https, now=sim.now)
        assert outcome.action == "tunnel"
        assert outcome.tunnel_endpoint == "cloud"
        plain = Packet(src="10.10.0.2", dst="198.51.100.5", dst_port=80,
                       owner="alice")
        assert datapath.process(plain, now=sim.now).action == "forward"

    def test_drop_terminal(self, world):
        sim, topo, hosts = world
        manager = DeploymentManager(provider="isp", topo=topo, hosts=hosts,
                                    sim=sim)
        pvnc = parse_pvnc(
            'pvnc "drop-test" for alice\n'
            "class dns: drop\n"
            "default: forward\n"
        )
        ack = manager.deploy(request_for(pvnc), UserEnvironment(),
                             "dev_alice", now=sim.now)
        datapath = manager.deployment(ack.deployment_id).datapath
        dns = Packet(src="10.10.0.2", dst="8.8.8.8", dst_port=53,
                     owner="alice")
        outcome = datapath.process(dns, now=sim.now)
        assert outcome.action == "drop"
        assert dns.dropped


class TestPerOwnerQuota:
    def test_quota_caps_single_owner(self):
        host = NfvHost("n", HostCapacity(memory_bytes=60_000_000,
                                         cpu_cores=100.0),
                       per_owner_memory_fraction=0.5)
        launched = 0
        for i in range(10):  # 10 x 6MB = 60MB, but capped at 30MB
            container = Container(Middlebox(f"m{i}"), owner="greedy")
            if host.can_admit(container):
                host.launch(container, now=0.0)
                launched += 1
        assert launched == 5
        # Another owner still has the other half.
        other = Container(Middlebox("other"), owner="victim")
        assert host.can_admit(other)

    def test_quota_disabled_by_default(self):
        host = NfvHost("n", HostCapacity(memory_bytes=60_000_000,
                                         cpu_cores=100.0))
        for i in range(10):
            host.launch(Container(Middlebox(f"m{i}"), owner="greedy"),
                        now=0.0)
        assert host.container_count == 10

    def test_invalid_fraction(self):
        with pytest.raises(CapacityError):
            NfvHost("n", per_owner_memory_fraction=0.0)
        with pytest.raises(CapacityError):
            NfvHost("n", per_owner_memory_fraction=1.5)

    def test_memory_of_owner(self):
        host = NfvHost("n")
        host.launch(Container(Middlebox("a"), owner="x"), now=0.0)
        host.launch(Container(Middlebox("b"), owner="y"), now=0.0)
        assert host.memory_of_owner("x") == 6_000_000
        assert host.memory_of_owner("ghost") == 0


class TestProtocolHelpers:
    def test_check_ack_unwraps(self):
        ack = DeploymentAck("d1")
        assert check_ack(ack) is ack

    def test_check_ack_raises_on_nack(self):
        with pytest.raises(ProtocolError, match="because reasons"):
            check_ack(DeploymentNack(reason="because reasons"))
