"""End-to-end graceful degradation: kill the provider's NFV layer
mid-session and verify traffic continues through the VPN fallback
while the auditor keeps the evidence."""

import pytest

from repro.core import PvnSession, default_pvnc
from repro.core.deployment.lifecycle import degrade_to_tunnel
from repro.core.deployment.manager import DeploymentState
from repro.core.deployment.recovery import RecoveryPolicy
from repro.errors import DeploymentError
from repro.netsim.packet import Packet


@pytest.fixture
def session():
    session = PvnSession.build(seed=2)
    outcome = session.connect(default_pvnc())
    assert outcome.deployed, outcome.reason
    session.outcome = outcome
    return session


def probe(session):
    return session.send(Packet(
        src=session.outcome.connection.device_ip,
        dst="198.51.100.5", owner=session.device.user, payload=b"probe",
    ))


class TestDegradationEndToEnd:
    def test_total_middlebox_loss_degrades_but_traffic_flows(self, session):
        deployment_id = session.outcome.deployment_id
        deployment = session.provider.manager.deployments[deployment_id]
        assert probe(session).action == "forward"

        supervisor = session.enable_robustness(
            RecoveryPolicy(check_interval=0.25, max_repair_attempts=3,
                           fallback_endpoint="cloud")
        )
        # Every provider middlebox dies: both NFV hosts fail, so repair
        # can neither restart in place nor re-embed anywhere.
        session.inject_faults(
            "at 1.0 host-down nfv0\nat 1.0 host-down nfv1"
        )
        session.sim.run(until=4.0)

        assert deployment.state is DeploymentState.DEGRADED
        assert deployment.degraded_to == "cloud"
        # The session keeps working: packets now ride the tunnel.
        result = probe(session)
        assert result.action == "tunnel"
        assert result.tunnel_endpoint == "cloud"
        assert "degraded:tunnel" in result.verdict_reasons

        # The fallback tunnel is a real path through the topology.
        tunnel = supervisor.tunnels[deployment_id]
        path = tunnel.effective_path("origin")
        assert path.rtt > 0 and path.bandwidth_bps > 0

        # The supervisor tried the full repair budget first.
        failed = [e for e in supervisor.events_for(deployment_id)
                  if e.kind == "repair_failed"]
        assert len(failed) == 3
        assert supervisor.resolution_of(deployment_id) == "degraded"
        assert supervisor.unresolved() == []

    def test_auditor_holds_the_full_evidence_trail(self, session):
        session.enable_robustness(
            RecoveryPolicy(check_interval=0.25, max_repair_attempts=2)
        )
        session.inject_faults(
            "at 1.0 host-down nfv0\nat 1.0 host-down nfv1"
        )
        session.sim.run(until=3.0)

        ledger = session.device.ledger
        tests = {r.test for r in ledger.fault_records(session.provider.name)}
        # Injected faults, the detection/repair attempts, and the final
        # degradation are all on the record.
        assert "fault:host_down" in tests
        assert "fault:detected" in tests
        assert "fault:repair_failed" in tests
        assert "fault:degraded" in tests
        # None of it pollutes the policy-violation evidence.
        assert ledger.violations_for(session.provider.name) == []

    def test_repair_wins_when_capacity_survives(self, session):
        deployment_id = session.outcome.deployment_id
        deployment = session.provider.manager.deployments[deployment_id]
        supervisor = session.enable_robustness(
            RecoveryPolicy(check_interval=0.25)
        )
        # Only one host dies; the other can absorb the re-embedding.
        session.inject_faults("at 1.0 host-down nfv0")
        session.sim.run(until=3.0)
        assert deployment.state is DeploymentState.ACTIVE
        assert deployment.crashed_services() == ()
        assert supervisor.resolution_of(deployment_id) == "repaired"
        assert probe(session).action == "forward"

    def test_cannot_degrade_a_torn_down_deployment(self, session):
        deployment_id = session.outcome.deployment_id
        session.teardown()
        with pytest.raises(DeploymentError, match="torn-down"):
            degrade_to_tunnel(session.provider.manager, deployment_id,
                              "cloud")
