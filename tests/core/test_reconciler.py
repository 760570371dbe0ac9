"""The self-healing converge loop: desired state, evacuation, degrade.

Scenario tests run the real stack — simulator, routed heartbeats,
phi-accrual detection, journaled evacuation — against a two-NFV-host
access network, so every verdict here is on the same machinery E20
soaks at scale.
"""

import pytest

from repro.core.auditor.violations import EvidenceLedger
from repro.core.deployment.migration import ensure_coordinator
from repro.core.deployment.manager import (
    DeploymentManager,
    DeploymentState,
)
from repro.core.deployment.reconciler import (
    DeploymentSpec,
    DesiredState,
    ReconcilePolicy,
    Reconciler,
    StateReplicator,
)
from repro.core.discovery.messages import DeploymentAck, DeploymentRequest
from repro.core.pvnc import UserEnvironment
from repro.core.session import default_pvnc
from repro.errors import ConfigurationError
from repro.health import HealthService, HostState
from repro.netproto.dhcp import DhcpServer
from repro.obs import runtime as obs_runtime
from repro.netproto.dns import Resolver, TrustAnchor, Zone, ZoneSigner
from repro.netproto.tls import make_web_pki
from repro.netsim import Simulator
from repro.netsim.topology import (
    attach_device,
    build_access_network,
    build_wide_area,
)
from repro.nfv import NfvHost


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
    attach_device(topo, "dev_bob", ap="ap1")
    hosts = {n: NfvHost(n) for n in topo.nodes_of_kind("nfv")}
    dhcp = DhcpServer("10.10.0.0/16", pvn_server="pvn.isp")
    manager = DeploymentManager(
        provider="isp", topo=topo, hosts=hosts, sim=sim, dhcp=dhcp,
    )
    health = HealthService(sim, topo, hosts)
    return sim, topo, hosts, manager, health


def deploy_user(manager, sim, user, device):
    pvnc = default_pvnc(user)
    request = DeploymentRequest(
        device_id=f"{user}:mac", offer_id=1, pvnc=pvnc,
        accepted_services=pvnc.used_services(), payment=10.0,
    )
    ack = manager.deploy(request, make_env(), device, now=sim.now)
    assert isinstance(ack, DeploymentAck), getattr(ack, "reason", ack)
    return ack


def loaded_host(hosts):
    return next(
        name for name, host in sorted(hosts.items())
        if host.container_count > 0
    )


def healing(world, **policy_kwargs):
    """A started reconciler adopting everything currently deployed."""
    sim, _, _, manager, health = world
    desired = DesiredState.capture(manager)
    reconciler = Reconciler(
        manager, sim, health, desired=desired,
        policy=ReconcilePolicy(**policy_kwargs),
    )
    reconciler.start()
    return reconciler


# -- policy and desired state ----------------------------------------------


class TestPolicy:
    @pytest.mark.parametrize("kwargs", [
        dict(interval=0.0),
        dict(partition_grace=-1.0),
        dict(max_evacuations_per_tick=0),
        dict(max_evacuation_attempts=0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ReconcilePolicy(**kwargs)


class TestDesiredState:
    def test_declare_forget_generation(self, world):
        sim, _, _, manager, _ = world
        deploy_user(manager, sim, "alice", "dev_alice")
        desired = DesiredState.capture(manager)
        assert len(desired) == 1
        generation = desired.generation
        assert desired.forget("alice")
        assert not desired.forget("alice")      # second forget is a no-op
        assert len(desired) == 0
        assert desired.generation == generation + 1

    def test_capture_adopts_only_active(self, world):
        sim, _, _, manager, _ = world
        deploy_user(manager, sim, "alice", "dev_alice")
        bob = deploy_user(manager, sim, "bob", "dev_bob")
        manager.teardown(bob.deployment_id)
        desired = DesiredState.capture(manager)
        assert sorted(desired.specs) == ["alice"]
        spec = desired.specs["alice"]
        assert spec.device_node == "dev_alice"
        assert spec.request.pvnc.used_services()


class TestReplicator:
    def test_snapshot_capture_and_prune(self, world):
        sim, _, _, manager, _ = world
        ack = deploy_user(manager, sim, "alice", "dev_alice")
        replicator = StateReplicator()
        captured = replicator.snapshot(manager, sim.now)
        assert captured > 0
        replicas = replicator.replicas_for(ack.deployment_id)
        assert replicas and replicator.total_bytes > 0
        manager.teardown(ack.deployment_id)
        replicator.snapshot(manager, sim.now)
        assert replicator.replicas_for(ack.deployment_id) == {}

    def test_drop(self, world):
        sim, _, _, manager, _ = world
        ack = deploy_user(manager, sim, "alice", "dev_alice")
        replicator = StateReplicator()
        replicator.snapshot(manager, sim.now)
        replicator.drop(ack.deployment_id)
        assert replicator.replicas_for(ack.deployment_id) == {}


# -- crash evacuation -------------------------------------------------------


class TestCrashEvacuation:
    def test_crash_is_detected_evacuated_and_reconverged(self, world):
        sim, _, hosts, manager, _ = world
        ack = deploy_user(manager, sim, "alice", "dev_alice")
        reconciler = healing(world)
        sim.run(until=1.0)
        victim = loaded_host(hosts)
        hosts[victim].crash(sim.now)
        sim.run(until=3.0)

        dead = reconciler.events_of("host_dead")
        assert [e.subject for e in dead] == [victim]
        assert reconciler.events_of("evacuation_queued")
        assert reconciler.events_of("evacuated")
        assert reconciler.converged()

        active = [d for d in manager.deployments.values()
                  if d.state is DeploymentState.ACTIVE]
        assert len(active) == 1
        assert active[0].deployment_id != ack.deployment_id
        assert active[0].user == "alice"
        assert hosts[victim].container_count == 0

    def test_replica_checkpoints_substitute_for_lost_state(self, world):
        """The crash wiped the live containers; the restored services
        must come from the replicator's snapshots."""
        sim, _, hosts, manager, _ = world
        deploy_user(manager, sim, "alice", "dev_alice")
        reconciler = healing(world)
        sim.run(until=1.0)
        assert reconciler.replicator.total_bytes > 0
        hosts[loaded_host(hosts)].crash(sim.now)
        sim.run(until=3.0)
        evacuated = reconciler.events_of("evacuated")
        assert any("from replica" in e.detail for e in evacuated)

    def test_repair_times_are_positive_and_bounded(self, world):
        sim, _, hosts, manager, _ = world
        deploy_user(manager, sim, "alice", "dev_alice")
        reconciler = healing(world)
        sim.run(until=1.0)
        crashed_at = sim.now
        hosts[loaded_host(hosts)].crash(crashed_at)
        sim.run(until=3.0)
        times = reconciler.repair_times("evacuated")
        assert times
        assert all(0.0 <= t <= 3.0 - crashed_at for t in times)
        assert reconciler.repair_times() == reconciler.repair_times(None)

    def test_host_recovery_rearms_the_host(self, world):
        sim, _, hosts, manager, health = world
        deploy_user(manager, sim, "alice", "dev_alice")
        reconciler = healing(world)
        sim.run(until=1.0)
        victim = loaded_host(hosts)
        hosts[victim].crash(sim.now)
        sim.run(until=3.0)
        assert victim in reconciler._evacuated_hosts

        hosts[victim].recover()
        health.resume(victim)
        sim.run(until=4.0)
        assert reconciler.events_of("host_recovered")
        assert victim not in reconciler._evacuated_hosts


# -- partitions -------------------------------------------------------------


class TestPartition:
    def test_partitioned_dead_host_is_deferred_not_evacuated(self, world):
        sim, _, hosts, manager, health = world
        ack = deploy_user(manager, sim, "alice", "dev_alice")
        reconciler = healing(world)
        sim.run(until=1.0)
        victim = loaded_host(hosts)
        # Heal time 2.0 aligns exactly with a reconcile tick — the
        # worst case the heal-wait tick exists for.
        health.partition(victim, 1.0, sim.now)
        sim.run(until=1.9)
        assert reconciler.events_of("deferred")
        assert not reconciler.events_of("host_dead")

        sim.run(until=3.0)
        assert health.state_of(victim, sim.now) is HostState.ALIVE
        assert not reconciler.events_of("evacuated")
        assert not reconciler.events_of("host_dead")
        assert (manager.deployment(ack.deployment_id).state
                is DeploymentState.ACTIVE)
        assert reconciler.converged()

    def test_partition_outliving_grace_is_treated_as_death(self, world):
        sim, _, hosts, manager, health = world
        deploy_user(manager, sim, "alice", "dev_alice")
        reconciler = healing(world, partition_grace=0.5)
        sim.run(until=1.0)
        victim = loaded_host(hosts)
        health.partition(victim, 10.0, sim.now)
        sim.run(until=4.0)
        assert reconciler.events_of("partition_expired")
        assert [e.subject for e in reconciler.events_of("host_dead")] \
            == [victim]
        assert reconciler.events_of("evacuated")
        assert reconciler.converged()

    def test_crash_during_partition_still_evacuates_after_heal(self, world):
        """heal-wait grants one tick, not amnesty: a host that stays
        silent after its window closes is evacuated."""
        sim, _, hosts, manager, health = world
        deploy_user(manager, sim, "alice", "dev_alice")
        reconciler = healing(world)
        sim.run(until=1.0)
        victim = loaded_host(hosts)
        health.partition(victim, 1.0, sim.now)   # heals on a tick
        hosts[victim].crash(sim.now)             # ...but it is really dead
        sim.run(until=4.0)
        assert reconciler.events_of("heal_wait")
        assert [e.subject for e in reconciler.events_of("host_dead")] \
            == [victim]
        assert reconciler.events_of("evacuated")
        assert reconciler.converged()


# -- degradation and redeploy ----------------------------------------------


class TestDegradeAndRedeploy:
    def crash_everything(self, world, reconciler):
        sim, _, hosts, _, _ = world
        sim.run(until=1.0)
        for host in hosts.values():
            host.crash(sim.now)
        sim.run(until=4.0)

    def test_no_capacity_degrades_to_tunnel(self, world):
        sim, _, hosts, manager, _ = world
        ack = deploy_user(manager, sim, "alice", "dev_alice")
        reconciler = healing(world, max_evacuation_attempts=2)
        self.crash_everything(world, reconciler)

        assert reconciler.events_of("evacuation_failed")
        assert reconciler.events_of("degraded")
        assert ack.deployment_id in reconciler.tunnels
        assert (manager.deployment(ack.deployment_id).state
                is DeploymentState.DEGRADED)
        assert reconciler.repair_times("degraded")
        # The desired user has no ACTIVE deployment and the substrate
        # cannot take one: the loop keeps trying and keeps NACKing.
        assert reconciler.events_of("redeploy_nacked")
        assert not reconciler.converged()

    def test_capacity_returning_redeploys_and_retires_remnant(self, world):
        sim, _, hosts, manager, health = world
        ack = deploy_user(manager, sim, "alice", "dev_alice")
        reconciler = healing(world, max_evacuation_attempts=2)
        self.crash_everything(world, reconciler)
        assert ack.deployment_id in reconciler.tunnels

        for name in sorted(hosts):
            hosts[name].recover()
            health.resume(name)
        sim.run(until=6.0)

        redeployed = reconciler.events_of("redeployed")
        assert redeployed
        assert "retired 1 degraded remnant" in redeployed[0].detail
        assert ack.deployment_id not in reconciler.tunnels
        assert (manager.deployment(ack.deployment_id).state
                is DeploymentState.TORN_DOWN)
        assert reconciler.converged()
        assert reconciler.repair_times("redeployed")


# -- the declarative diff ---------------------------------------------------


class TestDeclarativeDiff:
    def test_forgotten_user_is_pruned(self, world):
        sim, _, _, manager, _ = world
        deploy_user(manager, sim, "alice", "dev_alice")
        bob = deploy_user(manager, sim, "bob", "dev_bob")
        reconciler = healing(world)
        reconciler.desired.forget("bob")
        sim.run(until=1.0)
        pruned = reconciler.events_of("pruned")
        assert [e.subject for e in pruned] == [bob.deployment_id]
        assert (manager.deployment(bob.deployment_id).state
                is DeploymentState.TORN_DOWN)
        assert reconciler.converged()

    def test_declared_user_missing_from_world_is_deployed(self, world):
        sim, _, _, manager, _ = world
        alice = deploy_user(manager, sim, "alice", "dev_alice")
        reconciler = healing(world)
        pvnc = default_pvnc("bob")
        reconciler.desired.declare(DeploymentSpec(
            user="bob",
            request=DeploymentRequest(
                device_id="bob:mac", offer_id=1, pvnc=pvnc,
                accepted_services=pvnc.used_services(), payment=10.0,
            ),
            device_node="dev_bob",
            env=reconciler.desired.specs["alice"].env,
        ))
        sim.run(until=1.0)
        assert [e.subject for e in reconciler.events_of("redeployed")] \
            == ["bob"]
        users = {d.user for d in manager.deployments.values()
                 if d.state is DeploymentState.ACTIVE}
        assert users == {"alice", "bob"}
        assert (manager.deployment(alice.deployment_id).state
                is DeploymentState.ACTIVE)   # untouched
        assert reconciler.converged()

    def test_empty_desired_state_prunes_nothing(self, world):
        sim, _, _, manager, _ = world
        ack = deploy_user(manager, sim, "alice", "dev_alice")
        reconciler = Reconciler(
            manager, sim, world[4], desired=DesiredState(),
        )
        reconciler.start()
        sim.run(until=1.0)
        assert not reconciler.events_of("pruned")
        assert (manager.deployment(ack.deployment_id).state
                is DeploymentState.ACTIVE)


# -- lifecycle and accounting ----------------------------------------------


class TestLifecycle:
    def test_start_is_idempotent_and_stop_halts(self, world):
        sim, _, _, manager, _ = world
        deploy_user(manager, sim, "alice", "dev_alice")
        reconciler = healing(world)
        reconciler.start()      # second start must not double the loop
        sim.run(until=1.0)
        assert reconciler.ticks == 4
        reconciler.stop()
        sim.run(until=2.0)
        assert reconciler.ticks == 4

    def test_interrupted_migration_is_replayed_on_first_tick(self, world):
        sim, _, _, manager, _ = world
        ack = deploy_user(manager, sim, "alice", "dev_alice")
        coordinator = ensure_coordinator(manager)
        coordinator.arm_commit_silence(duration=0.5)
        result = coordinator.migrate(ack.deployment_id, "dev_bob", sim.now)
        assert result.pending
        reconciler = healing(world)
        sim.run(until=1.0)
        assert reconciler.events_of("migration_rolled_forward")
        assert coordinator.journal.open_transactions() == []

    def test_evacuations_are_counted_when_obs_enabled(self, world):
        sim, _, hosts, manager, health = world
        deploy_user(manager, sim, "alice", "dev_alice")
        reconciler = healing(world)
        with obs_runtime.enabled() as obs:
            sim.run(until=1.0)
            hosts[loaded_host(hosts)].crash(sim.now)
            sim.run(until=3.0)
            assert obs.metrics.value(
                "repro_evacuations", provider="isp", outcome="committed",
            ) >= 1.0
            assert obs.metrics.value(
                "repro_replica_bytes", provider="isp") >= 0.0
        assert reconciler.converged()

    def test_unreachable_fallback_makes_degrade_fail_loudly(self, world):
        sim, _, hosts, manager, _ = world
        deploy_user(manager, sim, "alice", "dev_alice")
        reconciler = healing(
            world, max_evacuation_attempts=1,
            fallback_endpoint="no-such-node",
        )
        sim.run(until=1.0)
        for host in hosts.values():
            host.crash(sim.now)
        sim.run(until=3.0)
        assert reconciler.events_of("degrade_failed")
        assert not reconciler.tunnels

    def test_events_land_in_the_evidence_ledger(self, world):
        sim, _, hosts, manager, health = world
        deploy_user(manager, sim, "alice", "dev_alice")
        ledger = EvidenceLedger()
        reconciler = Reconciler(
            manager, sim, health,
            desired=DesiredState.capture(manager), ledger=ledger,
        )
        reconciler.start()
        sim.run(until=1.0)
        hosts[loaded_host(hosts)].crash(sim.now)
        sim.run(until=3.0)
        kinds = {r.test for r in ledger.fault_records("isp")}
        assert "fault:reconcile_host_dead" in kinds
        assert "fault:reconcile_evacuated" in kinds
