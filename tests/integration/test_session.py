"""End-to-end integration tests: device <-> provider full lifecycle."""

import pytest

from repro.core import (
    AccessProvider,
    DishonestyProfile,
    PvnSession,
    default_pvnc,
)
from repro.core.session import SessionOutcome
from repro.errors import NegotiationError
from repro.netsim import Packet


class TestHappyPath:
    @pytest.fixture
    def session(self):
        session = PvnSession.build(seed=1)
        outcome = session.connect(default_pvnc())
        assert outcome.deployed
        return session

    def test_connect_deploys_and_verifies(self, session):
        connection = session.device.connection
        assert connection.attestation_verified
        assert connection.device_ip.startswith("10.200.")
        assert connection.price_paid > 0
        assert "tls_validator" in connection.services

    def test_honest_provider_passes_all_audits(self, session):
        assert session.audit() == ()
        assert session.device.reputation.score(session.provider.name) > 0.5

    def test_traffic_flows_through_datapath(self, session):
        from repro.netproto.http import HttpRequest

        leaky = Packet(
            src=session.device.connection.device_ip, dst="198.51.100.9",
            dst_port=80, owner="alice",
            payload=HttpRequest("POST", "api.example",
                                body=b"email=jane@example.com"),
        )
        outcome = session.send(leaky)
        assert outcome.action == "forward"
        assert b"[REDACTED]" in leaky.payload.body

    def test_mitm_blocked_in_session(self, session):
        from repro.netproto import CertificateAuthority, MitmInterceptor

        mitm = MitmInterceptor(
            "evil", CertificateAuthority("EvilCA", b"evil"),
            now=session.sim.now,
        )
        handshake = mitm.intercept(
            session.tls_servers["bank.example.com"].respond(
                "bank.example.com")
        )
        packet = Packet(
            src=session.device.connection.device_ip, dst="198.51.100.5",
            dst_port=443, owner="alice", payload=handshake,
        )
        outcome = session.send(packet)
        assert outcome.action == "drop"
        assert packet.dropped

    def test_teardown_clears_connection(self, session):
        deployment_id = session.device.connection.deployment_id
        session.teardown()
        assert session.device.connection is None
        from repro.core.deployment.manager import DeploymentState

        deployment = session.provider.manager.deployment(deployment_id)
        assert deployment.state is DeploymentState.TORN_DOWN

    def test_send_without_connection_raises(self):
        session = PvnSession.build(seed=3)
        with pytest.raises(NegotiationError):
            session.send(Packet(src="1.1.1.1", dst="2.2.2.2", owner="alice"))


class TestDishonestProviders:
    def test_video_shaper_caught(self):
        session = PvnSession.build(
            seed=2,
            dishonesty=DishonestyProfile(shape_video_to_bps=1.5e6),
        )
        assert session.connect(default_pvnc()).deployed
        assert "service_differentiation" in session.audit()

    def test_skipped_middlebox_caught(self):
        session = PvnSession.build(
            seed=2,
            dishonesty=DishonestyProfile(
                skip_services=frozenset({"pii_detector"})),
        )
        assert session.connect(default_pvnc()).deployed
        assert "middlebox_execution" in session.audit()

    def test_content_injector_caught(self):
        session = PvnSession.build(
            seed=2, dishonesty=DishonestyProfile(modify_content=True),
        )
        assert session.connect(default_pvnc()).deployed
        assert "content_modification" in session.audit()

    def test_path_inflator_caught(self):
        session = PvnSession.build(
            seed=2, dishonesty=DishonestyProfile(inflate_path_by=0.150),
        )
        assert session.connect(default_pvnc()).deployed
        assert "path_inflation" in session.audit()

    def test_config_tamperer_fails_attestation(self):
        session = PvnSession.build(
            seed=2, dishonesty=DishonestyProfile(tamper_config=True),
        )
        outcome = session.connect(default_pvnc())
        assert outcome.deployed
        assert not session.device.connection.attestation_verified

    def test_repeat_audits_blacklist_cheater(self):
        session = PvnSession.build(
            seed=2,
            dishonesty=DishonestyProfile(
                shape_video_to_bps=1.5e6, modify_content=True,
                inflate_path_by=0.2,
                skip_services=frozenset({"pii_detector"}),
            ),
        )
        session.connect(default_pvnc())
        for _ in range(4):
            session.audit()
        assert session.device.reputation.blacklisted(session.provider.name)
        assert len(session.device.ledger._records) >= 8


class TestUnsupportedNetworks:
    def test_no_pvn_support_reports_fallback(self):
        session = PvnSession.build(seed=4, supports_pvn=False)
        outcome = session.connect(default_pvnc())
        assert not outcome.deployed
        assert "tunneling fallback" in outcome.reason

    def test_second_provider_rescues(self):
        session = PvnSession.build(seed=5, supports_pvn=False)
        rescue = AccessProvider("isp-b", sim=session.sim, seed=5)
        rescue.attach_device(session.device.node_name)
        session.add_provider(rescue)
        outcome = session.connect(default_pvnc())
        assert outcome.deployed
        assert session.device.connection.provider.name == "isp-b"

    def test_outcome_accessors_without_connection(self):
        outcome = SessionOutcome(deployed=False, reason="x")
        assert outcome.deployment_id == ""
        assert outcome.price_paid == 0.0


class TestPartialProviderDeployment:
    def test_trimmed_pvnc_deploys_on_partial_provider(self):
        """A provider supporting only a subset must still deploy the
        trimmed PVNC cleanly (constraints trimmed with the modules)."""
        from repro.core import AccessProvider
        from repro.netsim import Simulator

        sim = Simulator()
        partial = AccessProvider(
            "isp-partial", sim=sim, seed=9,
            supported_services=("classifier", "tls_validator",
                                "pii_detector"),
        )
        session = PvnSession.build(seed=9, supports_pvn=False)
        partial.attach_device(session.device.node_name)
        session.add_provider(partial)
        outcome = session.connect(default_pvnc())
        assert outcome.deployed, outcome.reason
        connection = session.device.connection
        assert set(connection.services) <= {
            "classifier", "tls_validator", "pii_detector", "dns_validator"
        }
        assert "transcoder" not in connection.services
        # The deployed (trimmed) config still enforces what it kept.
        from repro.netproto.http import HttpRequest
        from repro.netsim import Packet

        leaky = Packet(
            src=connection.device_ip, dst="198.51.100.9", dst_port=80,
            owner="alice",
            payload=HttpRequest("POST", "x.example",
                                body=b"email=a@b.example.com"),
        )
        result = connection.deployment.datapath.process(leaky, now=sim.now)
        assert result.action == "forward"
        assert b"[REDACTED]" in leaky.payload.body


class TestSoak:
    def test_repeated_connect_teardown_leaks_nothing(self):
        """50 connect/teardown cycles: NFV hosts, controller state, and
        deployment counts must return to baseline each time."""
        session = PvnSession.build(seed=8)
        pvnc = default_pvnc()
        for cycle in range(50):
            outcome = session.connect(pvnc)
            assert outcome.deployed, f"cycle {cycle}: {outcome.reason}"
            assert session.provider.manager.active_count == 1
            session.teardown()
            assert session.provider.manager.active_count == 0
            for host in session.provider.hosts.values():
                assert host.container_count == 0, f"cycle {cycle}"
        # The ledger/reputation state persists (that's the point), but
        # nothing else accumulated.
        assert len(session.provider.manager.deployments) == 50
