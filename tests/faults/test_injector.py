"""The injector against a live session: effects, accounting, traces."""

import pytest

from repro.core import PvnSession, default_pvnc
from repro.core.deployment.manager import DeploymentState
from repro.core.deployment.recovery import RecoveryPolicy
from repro.errors import ConfigurationError
from repro.faults import FaultKind, make_event, normalise_ids
from repro.faults.plan import FaultPlan
from repro.netsim.packet import Packet
from repro.nfv.container import ContainerState


def connected_session(seed=0):
    session = PvnSession.build(seed=seed)
    outcome = session.connect(default_pvnc())
    assert outcome.deployed, outcome.reason
    return session, outcome


class TestFaultEffects:
    def test_crash_hits_only_matching_live_containers(self):
        session, outcome = connected_session()
        injector = session.inject_faults("at 1.0 crash tls_validator")
        session.sim.run(until=1.1)
        deployment = session.provider.manager.deployments[
            outcome.deployment_id]
        assert deployment.crashed_services() == ("tls_validator",)
        assert injector.applied[0].deployment_ids == (outcome.deployment_id,)

    def test_crash_with_no_match_is_recorded_as_noop(self):
        session, _ = connected_session()
        injector = session.inject_faults("at 1.0 crash quantum_firewall")
        session.sim.run(until=1.1)
        assert "no live middlebox matched" in injector.applied[0].detail
        assert injector.applied[0].deployment_ids == ()

    def test_host_down_crashes_residents_and_blocks_admission(self):
        session, outcome = connected_session()
        session.inject_faults("at 1.0 host-down nfv0\nat 2.0 host-up nfv0")
        session.sim.run(until=1.5)
        host = session.provider.hosts["nfv0"]
        assert not host.alive
        session.sim.run(until=2.5)
        assert host.alive

    def test_link_flap_breaks_then_restores_routing(self):
        session, _ = connected_session()
        topo = session.provider.topo
        session.inject_faults(
            "at 1.0 link-down agg ap1\nat 2.0 link-up agg ap1"
        )
        session.sim.run(until=1.5)
        assert topo.link_is_down("agg", "ap1")
        with pytest.raises(ConfigurationError, match="partitioned"):
            topo.shortest_path("ap1", "gw")
        session.sim.run(until=2.5)
        assert not topo.link_is_down("agg", "ap1")
        assert topo.shortest_path("ap1", "gw")

    def test_loss_burst_auto_restores_previous_rate(self):
        session, _ = connected_session()
        topo = session.provider.topo
        before = topo.link("agg", "core").get("loss_rate", 0.0)
        session.inject_faults(
            "at 1.0 loss-burst agg core rate=0.7 duration=0.5"
        )
        session.sim.run(until=1.2)
        assert (topo.link("agg", "core")["loss_rate"]
                == pytest.approx(0.7))
        session.sim.run(until=2.0)
        assert (topo.link("agg", "core")["loss_rate"]
                == pytest.approx(before))

    def test_silence_and_dm_drop_starve_discovery(self):
        session, _ = connected_session()
        discovery = session.provider.discovery
        injector = session.inject_faults("at 1.0 silence duration=2.0")
        injector.inject_now(make_event(0.0, FaultKind.DM_DROP, count=1))
        session.sim.run(until=1.5)
        assert not discovery.responsive(session.sim.now)
        assert discovery.drop_next_dms == 1
        session.sim.run(until=3.5)
        assert discovery.responsive(session.sim.now)

    def test_past_events_are_rejected(self):
        session, _ = connected_session()
        session.sim.run(until=5.0)
        with pytest.raises(ConfigurationError, match="in the past"):
            session.inject_faults("at 1.0 crash *")

    def test_unknown_host_raises_when_scheduled(self):
        session, _ = connected_session()
        with pytest.raises(ConfigurationError, match="unknown NFV host"):
            session.inject_faults("at 1.0 host-down nfv999")


class TestAccountingAndDeterminism:
    PLAN_ARGS = dict(
        duration=6.0,
        services=("tls_validator", "pii_detector", "transcoder"),
        links=(("agg", "ap1"), ("gw", "home")),
        hosts=("nfv0",),
        crash_rate=0.8,
        flap_rate=0.3,
        loss_rate=0.3,
    )

    def run_chaos(self, seed):
        session, outcome = connected_session(seed=seed)
        supervisor = session.enable_robustness(
            RecoveryPolicy(check_interval=0.25)
        )
        plan = FaultPlan.random(seed=seed + 100, start=1.0, **self.PLAN_ARGS)
        injector = session.inject_faults(plan)
        session.sim.run(until=plan.horizon + 2.0)
        return session, outcome, supervisor, injector

    def test_same_seed_identical_event_trace(self):
        _, _, _, first = self.run_chaos(seed=11)
        _, _, _, second = self.run_chaos(seed=11)
        assert normalise_ids(first.trace()) == normalise_ids(second.trace())

    def test_every_crash_ends_repaired_or_degraded_never_hanging(self):
        session, outcome, supervisor, injector = self.run_chaos(seed=7)
        crashes = [a for a in injector.applied
                   if a.kind in (FaultKind.MIDDLEBOX_CRASH,
                                 FaultKind.HOST_DOWN)
                   and a.deployment_ids]
        assert crashes, "chaos plan injected no effective crash"
        assert supervisor.unresolved() == []
        deployment = session.provider.manager.deployments[
            outcome.deployment_id]
        if deployment.state is DeploymentState.ACTIVE:
            assert deployment.crashed_services() == ()
        else:
            assert deployment.state is DeploymentState.DEGRADED
            assert deployment.degraded_to

    def test_ledger_accounts_for_every_applied_fault(self):
        session, _, _, injector = self.run_chaos(seed=5)
        records = session.device.ledger.fault_records(session.provider.name)
        recorded = {(r.time, r.test) for r in records}
        for applied in injector.applied:
            assert (applied.time, f"fault:{applied.kind.value}") in recorded

    def test_fault_records_never_count_as_violations(self):
        session, _, _, _ = self.run_chaos(seed=5)
        ledger = session.device.ledger
        assert ledger.fault_records(session.provider.name)
        for record in ledger.violations_for(session.provider.name):
            assert not record.test.startswith("fault:")


class TestDegradedDataPath:
    def test_degraded_deployment_tunnels_every_packet(self):
        session, outcome = connected_session()
        session.enable_robustness(
            RecoveryPolicy(check_interval=0.25, max_repair_attempts=2)
        )
        session.inject_faults("at 1.0 host-down nfv0\nat 1.0 host-down nfv1")
        session.sim.run(until=3.0)
        deployment = session.provider.manager.deployments[
            outcome.deployment_id]
        assert deployment.state is DeploymentState.DEGRADED
        for container in deployment.containers.values():
            assert container.state is ContainerState.STOPPED
        packet = Packet(src=outcome.connection.device_ip,
                        dst="198.51.100.5", owner="alice", payload=b"x")
        result = session.send(packet)
        assert result.action == "tunnel"
        assert result.tunnel_endpoint == "cloud"
