"""End-to-end causal tree: one device request is one trace (ISSUE 4).

The tentpole acceptance shape: with observability enabled, a session
connect yields a single trace tree covering DHCP attach → discovery →
negotiation → deployment (compile/embed/install) → attestation →
address refresh; traced packets hang per-hop middlebox spans off the
same tree; audits parent their probes' datapath spans under the audit
span and attach span evidence to violations.
"""

import pytest

from repro.core.provider import DishonestyProfile
from repro.core.session import PvnSession, default_pvnc
from repro.netsim.packet import Packet
from repro.obs import runtime as obs_runtime


@pytest.fixture
def obs():
    with obs_runtime.enabled() as handle:
        yield handle


def _connected_session(seed=1):
    session = PvnSession.build(seed=seed)
    outcome = session.connect(default_pvnc())
    assert outcome.deployed
    return session


def _names_under(obs, root):
    return [s.name for s in obs.spans.walk(root)]


class TestConnectTree:
    def test_connect_is_one_trace_tree(self, obs):
        _connected_session()
        roots = obs.spans.roots()
        connects = [r for r in roots if r.name == "session.connect"]
        assert len(connects) == 1
        names = _names_under(obs, connects[0])
        for expected in ("dhcp.attach", "device.establish_pvn",
                         "discovery.negotiate", "deployment.deploy",
                         "deployment.compile", "deployment.embed",
                         "deployment.install", "attestation.verify",
                         "dhcp.refresh"):
            assert expected in names, names
        # one trace id across the whole request
        tree_spans = list(obs.spans.walk(connects[0]))
        assert len({s.trace_id for s in tree_spans}) == 1

    def test_deploy_span_carries_outcome(self, obs):
        session = _connected_session()
        deploy = next(s for s in obs.spans.spans
                      if s.name == "deployment.deploy")
        assert (deploy.attributes["deployment_id"]
                == session.device.connection.deployment_id)
        assert deploy.end is not None and deploy.duration > 0

    def test_metrics_counted_deploy_and_discovery(self, obs):
        _connected_session()
        assert obs.metrics.value("repro_deployments",
                                 provider="isp-a", outcome="ack") == 1.0
        assert obs.metrics.value("repro_discovery_events",
                                 provider="isp-a",
                                 event="dm_received") >= 1.0


class TestTracedPackets:
    def test_traced_send_synthesizes_per_hop_spans(self, obs):
        session = _connected_session()
        packet = Packet(src="10.0.0.1", dst="198.51.100.7", dst_port=443,
                        owner="alice")
        session.send(packet, traced=True)
        send = next(s for s in obs.spans.spans if s.name == "session.send")
        names = _names_under(obs, send)
        assert "datapath.process" in names
        assert "mbox.classifier" in names
        assert "mbox.tls_validator" in names

    def test_untraced_send_costs_no_spans(self, obs):
        session = _connected_session()
        before = len(obs.spans)
        session.send(Packet(src="10.0.0.1", dst="198.51.100.7",
                            dst_port=443, owner="alice"))
        assert len(obs.spans) == before


class TestAuditTree:
    def test_audit_probes_nest_under_audit_span(self, obs):
        session = _connected_session()
        session.audit(trials=1)
        audit = next(s for s in obs.spans.spans if s.name == "audit.run")
        names = _names_under(obs, audit)
        assert "audit.middlebox_execution" in names
        assert "datapath.process" in names       # the probe's spans
        assert any(n.startswith("mbox.") for n in names)
        assert audit.attributes["violations"] == 0

    def test_violation_gets_span_evidence(self, obs):
        session = PvnSession.build(
            seed=3,
            dishonesty=DishonestyProfile(
                skip_services=frozenset({"pii_detector"})),
        )
        assert session.connect(default_pvnc()).deployed
        violated = session.audit(trials=1)
        assert "middlebox_execution" in violated
        record = next(
            r for r in session.device.ledger.violations_for(session.provider.name)
            if r.test == "middlebox_execution"
        )
        assert record.evidence_spans, "span path evidence missing"
        assert any(e.startswith("datapath.process@")
                   or e.startswith("mbox.") for e in record.evidence_spans)
        # the skipped middlebox never appears in the observed path
        assert not any("pii_detector" in e for e in record.evidence_spans)


class TestMigrationTree:
    def test_migration_phases_nest_under_session_migrate(self, obs):
        session = _connected_session()
        result = session.migrate("dev_alice_2")
        assert result.committed
        migrate = next(s for s in obs.spans.spans
                       if s.name == "session.migrate")
        names = _names_under(obs, migrate)
        for phase in ("migration.prepare", "migration.transfer",
                      "migration.commit"):
            assert phase in names
        assert migrate.attributes["committed"] is True
        assert obs.metrics.value("repro_migrations", provider="isp-a",
                                 outcome="committed") == 1.0


class TestZeroCostDefault:
    def test_everything_works_with_obs_disabled(self):
        obs_runtime.disable()
        session = _connected_session()
        session.send(Packet(src="10.0.0.1", dst="198.51.100.7",
                            dst_port=443, owner="alice"), traced=True)
        assert session.audit(trials=1) == ()
        assert session.migrate("dev_alice_2").committed
        assert obs_runtime.current() is None
