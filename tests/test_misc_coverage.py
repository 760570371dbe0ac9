"""Direct tests for helpers otherwise only exercised indirectly."""

import pytest

from repro.core.auditor.path_proof import ProofStamp, make_keyring
from repro.core.auditor.measurements import middlebox_execution_test
from repro.core.deployment.embedding import admission_headroom
from repro.core.provider import DishonestyProfile
from repro.netproto.tls import RevocationList
from repro.netsim import Packet
from repro.netsim.topology import build_access_network
from repro.nfv import Container, NfvHost
from repro.nfv.hypervisor import HostCapacity
from repro.nfv.middlebox import Middlebox
from repro.workloads.adversary import (
    ALL_DISHONEST_PROFILES,
    config_tampering_isp,
    dns_forgery_scenario,
    inflating_isp,
    injecting_isp,
    lazy_isp,
    shaping_isp,
)


class TestMiddleboxExecutionTest:
    def make_world(self, skip=()):
        keyring = make_keyring("dep", ["classifier", "pii"])

        def send_probe():
            probe = Packet(src="10.0.0.1", dst="8.8.8.8", owner="u")
            for waypoint in ("classifier", "pii"):
                if waypoint not in skip:
                    ProofStamp(waypoint, keyring.key_for(waypoint))(probe)
            return probe

        return keyring, send_probe

    def test_honest_execution_passes(self):
        keyring, send_probe = self.make_world()
        result = middlebox_execution_test(
            send_probe, keyring, ["classifier", "pii"], trials=3
        )
        assert not result.violated

    def test_skipped_middlebox_flagged(self):
        keyring, send_probe = self.make_world(skip=("pii",))
        result = middlebox_execution_test(
            send_probe, keyring, ["classifier", "pii"], trials=3
        )
        assert result.violated
        assert "3/3" in result.detail


class TestAdmissionHeadroom:
    def test_headroom_fractions(self):
        host = NfvHost("n", HostCapacity(memory_bytes=12_000_000,
                                         cpu_cores=4.0))
        host.launch(Container(Middlebox("m"), owner="u"), now=0.0)
        headroom = admission_headroom({"n": host})
        assert headroom["n"] == pytest.approx(0.5)

    def test_empty_host_full_headroom(self):
        headroom = admission_headroom({"n": NfvHost("n")})
        assert headroom["n"] == 1.0


class TestTopologyIteration:
    def test_iter_edges_sorted_with_attrs(self):
        topo = build_access_network()
        edges = topo.links()
        assert edges == sorted(edges, key=lambda e: (e[0], e[1]))
        for a, b, data in edges:
            assert "latency" in data and "bandwidth_bps" in data


class TestRevocationList:
    def test_revoke_and_query(self):
        crl = RevocationList()
        assert not crl.is_revoked(42)
        crl.revoke(42)
        assert crl.is_revoked(42)
        crl.revoke(42)  # idempotent
        assert crl.is_revoked(42)


class TestAdversaryFactories:
    def test_profiles_have_expected_knobs(self):
        assert shaping_isp(2e6).shape_video_to_bps == 2e6
        assert injecting_isp().modify_content
        assert "pii_detector" in lazy_isp().skip_services
        assert inflating_isp(0.2).inflate_path_by == 0.2
        assert config_tampering_isp().tamper_config
        for name, profile in ALL_DISHONEST_PROFILES:
            assert profile != DishonestyProfile(), name

    def test_dns_forgery_scenario(self):
        from repro.netproto.dns import DnsQuery, Zone

        zone = Zone("z.example")
        zone.add("a.z.example", "A", "1.2.3.4")
        evil = dns_forgery_scenario([zone], {"a.z.example": "6.6.6.6"})
        assert evil.resolve(DnsQuery("a.z.example")).first_value() == "6.6.6.6"
