"""Incremental admission/embedding state == from-scratch recompute.

The residual-capacity counters on :class:`NfvHost` and the snapshot-
validated placement memo in :class:`EmbeddingIndex` are pure
optimisations: this module property-tests that after *any* sequence of
attach / stop / crash / restart / terminate / migrate / host-fail /
host-recover operations (hypothesis-driven), and across real migration
epochs (PR 2's coordinator), the incremental state is exactly what a
full rescan computes.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.deployment import DeploymentState
from repro.core.deployment.embedding import EmbeddingIndex, embed_pvn
from repro.core.deployment.manager import DeploymentManager
from repro.core.deployment.lifecycle import migrate_device
from repro.core.deployment.migration import ensure_coordinator
from repro.core.deployment.orchestrator import (
    Autoscaler,
    AutoscalePolicy,
    InstanceState,
    PlacementOptimizer,
    SharedMiddleboxPool,
)
from repro.core.discovery.messages import DeploymentAck, DeploymentRequest
from repro.core.pvnc import UserEnvironment, compile_pvnc
from repro.core.pvnc.model import ClassRule, ModuleSpec, Pvnc
from repro.core.session import default_pvnc
from repro.errors import CapacityError, EmbeddingError, ReproError
from repro.netproto.dns import Resolver, TrustAnchor, Zone, ZoneSigner
from repro.netproto.tls import make_web_pki
from repro.netsim import (
    Packet,
    Simulator,
    attach_device,
    build_access_network,
    build_wide_area,
)
from repro.nfv import Container, ContainerSpec, NfvHost
from repro.nfv.hypervisor import HostCapacity
from repro.nfv.container import ContainerState
from repro.nfv.middlebox import Middlebox


# -- from-scratch recompute (the spec the counters must match) --------------


def rescan(host: NfvHost) -> dict:
    """What the pre-index code computed by scanning the container table."""
    live = [
        c for c in host._containers.values()
        if c.state is not ContainerState.STOPPED
    ]
    owners = {c.owner for c in host._containers.values()}
    return {
        "memory": sum(c.spec.memory_bytes for c in live),
        "cpu": sum(c.spec.cpu_share for c in live),
        "count": len(live),
        "owner_memory": {
            owner: sum(c.spec.memory_bytes for c in live if c.owner == owner)
            for owner in owners
        },
        "owner_ids": {
            owner: [cid for cid, c in host._containers.items()
                    if c.owner == owner]
            for owner in owners
        },
    }


def assert_host_consistent(host: NfvHost) -> None:
    expected = rescan(host)
    assert host.memory_in_use == expected["memory"]
    assert math.isclose(host.cpu_in_use, expected["cpu"], abs_tol=1e-9)
    assert host.container_count == expected["count"]
    for owner, memory in expected["owner_memory"].items():
        assert host.memory_of_owner(owner) == memory
    # terminate_owner's index: same ids, same order as a table scan.
    assert {owner: list(ids) for owner, ids
            in host._ids_of_owner.items()} == expected["owner_ids"]


# -- hypothesis: arbitrary container lifecycle sequences --------------------


OWNERS = ["alice", "bob", "carol"]

OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["attach", "stop", "crash", "restart", "terminate",
             "migrate", "fail", "recover"]
        ),
        st.integers(min_value=0, max_value=7),   # container / owner pick
        st.integers(min_value=0, max_value=2),   # host pick
    ),
    min_size=1,
    max_size=60,
)


class TestIncrementalHostAccounting:
    @settings(max_examples=60, deadline=None)
    @given(ops=OPS)
    def test_counters_equal_rescan_after_any_sequence(self, ops):
        # Small capacity so sequences actually hit admission rejections.
        hosts = [
            NfvHost(f"h{i}", HostCapacity(memory_bytes=30_000_000,
                                          cpu_cores=2.0))
            for i in range(3)
        ]
        containers: list[Container] = []
        located: dict[int, NfvHost] = {}   # container_id -> current host

        def launch_on(host: NfvHost, container: Container) -> None:
            try:
                host.launch(container, now=0.0)
                located[container.container_id] = host
            except CapacityError:
                located.pop(container.container_id, None)

        for op, pick, host_pick in ops:
            host = hosts[host_pick]
            if op == "attach":
                container = Container(
                    Middlebox(f"svc{pick}"),
                    spec=ContainerSpec(),
                    owner=OWNERS[pick % len(OWNERS)],
                )
                containers.append(container)
                launch_on(host, container)
            elif containers and op == "stop":
                containers[pick % len(containers)].stop()
            elif containers and op == "crash":
                containers[pick % len(containers)].crash(0.0)
            elif containers and op == "restart":
                containers[pick % len(containers)].start_immediately(0.0)
            elif containers and op == "terminate":
                container = containers[pick % len(containers)]
                owner = located.pop(container.container_id, None)
                if owner is not None:
                    owner.terminate(container.container_id)
            elif containers and op == "migrate":
                # Make-before-break at the accounting level: release the
                # source reservation, take one at the target.
                container = containers[pick % len(containers)]
                source = located.pop(container.container_id, None)
                if source is not None:
                    source.terminate(container.container_id)
                launch_on(host, container)
            elif op == "fail":
                host.fail(0.0)
            elif op == "recover":
                host.recover()
            # The invariant holds at *every* step, not just at the end.
            for each in hosts:
                assert_host_consistent(each)

    @settings(max_examples=60, deadline=None)
    @given(ops=OPS)
    def test_can_admit_parity_with_rescanning_host(self, ops):
        """Incremental and rescanning hosts replaying the same sequence
        make identical admission decisions throughout."""
        fast = NfvHost("fast", HostCapacity(memory_bytes=30_000_000,
                                            cpu_cores=2.0),
                       per_owner_memory_fraction=0.5)
        slow = NfvHost("slow", HostCapacity(memory_bytes=30_000_000,
                                            cpu_cores=2.0),
                       per_owner_memory_fraction=0.5, incremental=False)
        pairs: list[tuple[Container, Container]] = []
        for op, pick, _ in ops:
            if op == "attach":
                owner = OWNERS[pick % len(OWNERS)]
                a = Container(Middlebox("svc"), owner=owner)
                b = Container(Middlebox("svc"), owner=owner)
                assert fast.can_admit(a) == slow.can_admit(b)
                admitted = 0
                for host, container in ((fast, a), (slow, b)):
                    try:
                        host.launch(container, now=0.0)
                        admitted += 1
                    except CapacityError:
                        pass
                assert admitted in (0, 2)
                if admitted:
                    pairs.append((a, b))
            elif pairs and op == "stop":
                a, b = pairs[pick % len(pairs)]
                a.stop(), b.stop()
            elif pairs and op == "restart":
                a, b = pairs[pick % len(pairs)]
                a.start_immediately(0.0), b.start_immediately(0.0)
            elif pairs and op == "terminate":
                a, b = pairs[pick % len(pairs)]
                fast.terminate(a.container_id)
                slow.terminate(b.container_id)
            assert fast.memory_in_use == slow.memory_in_use
            assert math.isclose(fast.cpu_in_use, slow.cpu_in_use,
                                abs_tol=1e-9)
            assert fast.container_count == slow.container_count


# -- hypothesis: indexed embedding == uncached embedding --------------------


def build_world():
    topo = build_access_network()
    attach_device(topo, "dev_a")
    attach_device(topo, "dev_b", ap="ap1")
    # Tight hosts so attaches change feasibility and the memo must
    # re-validate instead of serving stale plans.
    hosts = {
        n: NfvHost(n, HostCapacity(memory_bytes=120_000_000, cpu_cores=4.0))
        for n in topo.nodes_of_kind("nfv")
    }
    return topo, hosts


EMBED_OPS = st.lists(
    st.tuples(
        st.sampled_from(["embed_a", "embed_b", "teardown", "flap"]),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=25,
)


class TestEmbeddingIndexEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(ops=EMBED_OPS)
    def test_indexed_plan_equals_fresh_plan(self, ops):
        topo, hosts = build_world()
        index = EmbeddingIndex(topo, hosts)
        compiled = compile_pvnc(default_pvnc("prop"), cache=None)
        users = 0
        flap_link = ("nfv0", "agg")

        for op, pick in ops:
            if op in ("embed_a", "embed_b"):
                device = "dev_a" if op == "embed_a" else "dev_b"
                try:
                    fresh = embed_pvn(compiled, topo, hosts, device)
                except (EmbeddingError, ReproError) as exc:
                    with pytest.raises(type(exc)):
                        embed_pvn(compiled, topo, hosts, device, index=index)
                    continue
                indexed = embed_pvn(compiled, topo, hosts, device,
                                    index=index)
                assert indexed.plan == fresh.plan
                assert indexed.expected_rtt == fresh.expected_rtt
                # Consume the plan's capacity, as _install would.
                users += 1
                for decision in indexed.plan.decisions:
                    host = hosts.get(decision.node)
                    if host is None or decision.reused_physical:
                        continue
                    container = Container(Middlebox(decision.service),
                                          owner=f"u{users}")
                    try:
                        host.launch(container, now=0.0)
                    except CapacityError:
                        pass
            elif op == "teardown" and users:
                owner = f"u{pick % users + 1}"
                for host in hosts.values():
                    host.terminate_owner(owner)
            elif op == "flap":
                if topo.link_is_down(*flap_link):
                    topo.set_link_up(*flap_link)
                else:
                    topo.set_link_down(*flap_link)


# -- real migration epochs (PR 2 coordinator) -------------------------------


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


class TestMigrationEpochs:
    def test_incremental_state_exact_across_migration(self):
        sim = Simulator()
        topo = build_wide_area(build_access_network())
        attach_device(topo, "dev_alice")
        attach_device(topo, "dev_alice2", ap="ap1")
        hosts = {n: NfvHost(n) for n in topo.nodes_of_kind("nfv")}
        manager = DeploymentManager(provider="isp", topo=topo, hosts=hosts,
                                    sim=sim)
        pvnc = default_pvnc()
        request = DeploymentRequest(
            device_id="alice:mac", offer_id=1, pvnc=pvnc,
            accepted_services=pvnc.used_services(), payment=10.0,
        )
        ack = manager.deploy(request, make_env(), "dev_alice", now=sim.now)
        assert isinstance(ack, DeploymentAck)
        for host in hosts.values():
            assert_host_consistent(host)

        result = migrate_device(manager, ack.deployment_id, "dev_alice2",
                                now=sim.now)
        assert result.committed
        for host in hosts.values():
            assert_host_consistent(host)

        # After the epoch bump the index still agrees with a fresh embed.
        deployment = manager.deployment(result.deployment_id)
        fresh = embed_pvn(deployment.compiled, topo, hosts, "dev_alice2")
        indexed = embed_pvn(deployment.compiled, topo, hosts, "dev_alice2",
                            index=manager.embedding_index)
        assert indexed.plan == fresh.plan

        manager.teardown(result.deployment_id)
        for host in hosts.values():
            assert_host_consistent(host)
            assert host.memory_in_use == 0
            assert host.container_count == 0


# -- autoscale rebalancing under the fault DSL (ISSUE-6 satellite) ----------
#
# Shared middlebox instances bring a new way for accounting to rot: the
# autoscaler moves members between instances via full make-before-break
# migration transactions, any of which can be killed mid-flight by the
# armed faults.  The invariants below must hold after EVERY op:
#
#  * incremental admission counters on every host equal a full rescan
#    (arbitrary scale-up/down never desyncs them);
#  * no ACTIVE deployment is fenced out — ``is_current`` holds for its
#    (lineage, epoch), whatever migrations committed or aborted;
#  * pool membership hygiene — members reference only ACTIVE
#    deployments, instances holding members are never RETIRED, and the
#    total reported load is conserved across rebalancing;
#  * the migration journal holds no open transaction once recovery ran.


def _shared_pvnc(user: str) -> Pvnc:
    return Pvnc(
        user=user, name="scale",
        modules=(ModuleSpec.make("malware_detector",
                                 allow_physical_reuse=True),),
        class_rules=(ClassRule("default", ("malware_detector",)),),
    )


def scaling_world(max_members=4):
    topo = build_access_network()
    attach_device(topo, "dev_a")
    hosts = {
        n: NfvHost(n, HostCapacity(memory_bytes=500_000_000, cpu_cores=16.0))
        for n in topo.nodes_of_kind("nfv")
    }
    optimizer = PlacementOptimizer(
        topo, hosts, pool=SharedMiddleboxPool(max_members=max_members),
    )
    manager = DeploymentManager(provider="isp", topo=topo, hosts=hosts,
                                optimizer=optimizer)
    autoscaler = Autoscaler(
        manager, optimizer, AutoscalePolicy(max_migrations_per_tick=4),
    )
    return manager, optimizer, autoscaler


SCALE_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["deploy", "teardown", "load_low", "load_high", "tick",
             "tick_crash", "tick_loss", "tick_silence"]
        ),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=2,
    max_size=25,
)


class TestAutoscaleRebalancingProperties:
    @settings(max_examples=40, deadline=None)
    @given(ops=SCALE_OPS)
    def test_invariants_hold_under_faulty_rebalancing(self, ops):
        manager, optimizer, autoscaler = scaling_world()
        coordinator = ensure_coordinator(manager)
        env = UserEnvironment()
        current: dict[str, str] = {}    # user -> surviving deployment id
        rates: dict[str, float] = {}    # user -> last reported load
        users = 0
        clock = 0.0

        def deployment_of(user):
            for d in manager.deployments.values():
                if d.user == user and d.state is DeploymentState.ACTIVE:
                    return d
            return None

        for op, pick in ops:
            clock += 1.0
            if op == "deploy":
                user = f"u{users}"
                users += 1
                pvnc = _shared_pvnc(user)
                request = DeploymentRequest(
                    device_id=f"{user}:mac", offer_id=1, pvnc=pvnc,
                    accepted_services=pvnc.used_services(), payment=1.0,
                )
                ack = manager.deploy(request, env, "ap0", now=clock)
                if isinstance(ack, DeploymentAck):
                    current[user] = ack.deployment_id
                    rates[user] = 0.0
            elif op == "teardown" and current:
                user = sorted(current)[pick % len(current)]
                manager.teardown(current.pop(user))
                rates.pop(user)
            elif op in ("load_low", "load_high") and current:
                user = sorted(current)[pick % len(current)]
                rate = 30.0 if op == "load_low" else 400.0
                optimizer.report_load(current[user], rate, now=clock)
                rates[user] = rate
            elif op.startswith("tick") and current:
                if op == "tick_crash":
                    coordinator.arm_target_crash(count=pick % 3 + 1)
                elif op == "tick_loss":
                    coordinator.arm_transfer_loss(count=pick % 3 + 1)
                elif op == "tick_silence":
                    coordinator.arm_commit_silence(duration=0.5)
                autoscaler.tick(clock)
                # A commit silence leaves the transaction pending;
                # recovery must roll it forward deterministically.
                coordinator.recover(clock + 2.0)
                clock += 2.0
                # Migrations retire old ids: re-point each user at
                # their surviving deployment and refresh telemetry
                # (a rolled-forward commit lands the member with zero
                # load until the next report — as in production, where
                # load reports arrive periodically from the datapath).
                for user in list(current):
                    deployment = deployment_of(user)
                    assert deployment is not None, (
                        f"{user} lost their PVN during rebalancing"
                    )
                    current[user] = deployment.deployment_id
                    optimizer.report_load(current[user], rates[user],
                                          now=clock)

            # -- the invariants, after every op ---------------------------
            for host in manager.hosts.values():
                assert_host_consistent(host)
            for deployment in manager.deployments.values():
                if deployment.state is DeploymentState.ACTIVE:
                    assert coordinator.fencing.is_current(
                        deployment.lineage_id, deployment.epoch
                    ), f"ACTIVE {deployment.deployment_id} is fenced out"
            active_ids = {
                d.deployment_id for d in manager.deployments.values()
                if d.state is DeploymentState.ACTIVE
            }
            for instance in optimizer.pool.instances.values():
                if instance.members:
                    assert instance.state is not InstanceState.RETIRED
                for member in instance.members:
                    assert member in active_ids, (
                        f"{instance.instance_id} holds stale member "
                        f"{member}"
                    )
            # Load conservation: every reported unit of load is still
            # attached to exactly one live instance.
            pool_load = sum(
                i.load for i in optimizer.pool.instances.values()
                if i.state is not InstanceState.RETIRED
            )
            assert pool_load == pytest.approx(sum(rates.values()))
            assert coordinator.journal.open_transactions() == []

    def test_commit_silence_rolled_forward_keeps_membership_coherent(self):
        """Deterministic cover for the nastiest interleaving: a
        rebalancing migration whose coordinator goes silent at COMMIT.
        Recovery must roll it forward (the intent was journaled), the
        user keeps exactly one ACTIVE deployment, and the pool holds
        exactly one membership for it — no load double-counted against
        the superseded source."""
        manager, optimizer, autoscaler = scaling_world()
        coordinator = ensure_coordinator(manager)
        env = UserEnvironment()
        current = {}
        for i in range(6):
            pvnc = _shared_pvnc(f"u{i}")
            request = DeploymentRequest(
                device_id=f"u{i}:mac", offer_id=1, pvnc=pvnc,
                accepted_services=pvnc.used_services(), payment=1.0,
            )
            ack = manager.deploy(request, env, "ap0", now=0.0)
            assert isinstance(ack, DeploymentAck)
            current[f"u{i}"] = ack.deployment_id
            optimizer.report_load(ack.deployment_id, 400.0)

        coordinator.arm_commit_silence(duration=0.5)
        autoscaler.tick(1.0)
        recovered = coordinator.recover(3.0)
        assert any(action == "rolled_forward" for _, action, _ in recovered)
        assert coordinator.journal.open_transactions() == []

        active = [d for d in manager.deployments.values()
                  if d.state is DeploymentState.ACTIVE]
        assert len(active) == 6         # one PVN per user, no orphans
        active_ids = {d.deployment_id for d in active}
        for deployment in active:
            memberships = optimizer.pool.memberships(
                deployment.deployment_id
            )
            assert len(memberships) == 1
            assert coordinator.fencing.is_current(
                deployment.lineage_id, deployment.epoch
            )
        for instance in optimizer.pool.instances.values():
            for member in instance.members:
                assert member in active_ids
        for host in manager.hosts.values():
            assert_host_consistent(host)


class TestMigrationWindowPacketConservation:
    def test_every_packet_processed_exactly_once_across_the_window(self):
        """Walk one rebalancing migration phase by phase and account
        for every packet: before COMMIT the source owns the traffic
        (serving, then bridging through the transfer freeze); after
        COMMIT the fence flips ownership atomically to the target —
        at no phase is a packet double-processed or silently lost."""
        manager, optimizer, _ = scaling_world()
        env = UserEnvironment()
        pvnc = _shared_pvnc("alice")
        request = DeploymentRequest(
            device_id="alice:mac", offer_id=1, pvnc=pvnc,
            accepted_services=pvnc.used_services(), payment=1.0,
        )
        ack = manager.deploy(request, env, "ap0", now=0.0)
        assert isinstance(ack, DeploymentAck)
        source = manager.deployment(ack.deployment_id)
        coordinator = ensure_coordinator(manager)

        def send(datapath, now):
            return datapath.process(
                Packet(src="10.0.0.1", dst="1.1.1.1", owner="alice"),
                now=now,
            )

        txn = coordinator.begin(ack.deployment_id, "dev_a", 1.0)

        # PREPARE: make-before-break — the source serves untouched.
        assert txn.prepare(1.0)
        outcome = send(source.datapath, 1.1)
        assert outcome.verdict_reasons != ("fencing:stale_epoch",)
        assert source.datapath.packets_processed == 1

        # TRANSFER: chain frozen for checkpointing, packets ride the
        # bridge — still processed (tunneled), never dropped.
        assert txn.transfer(2.0)
        assert source.datapath.bridging_to != ""
        bridged = send(source.datapath, 2.1)
        assert "migrating:bridge" in bridged.verdict_reasons
        assert source.datapath.packets_processed == 2

        # COMMIT: the epoch fence flips ownership atomically.
        assert txn.commit(3.0)
        target = manager.deployment(txn.target_id)
        assert target.state is DeploymentState.ACTIVE

        stale = send(source.datapath, 3.1)
        assert stale.verdict_reasons == ("fencing:stale_epoch",)
        assert source.datapath.packets_processed == 2    # unchanged
        assert source.datapath.stale_rejections == 1

        delivered = send(target.datapath, 3.2)
        assert delivered.verdict_reasons != ("fencing:stale_epoch",)
        assert target.datapath.packets_processed == 1

        # Conservation: 4 packets sent; 3 processed (each by exactly
        # one datapath), 1 fenced with evidence — none unaccounted.
        total = (source.datapath.packets_processed
                 + target.datapath.packets_processed)
        assert total == 3
        assert len(coordinator.fencing.rejections) == 1
        # And the shared-pool membership moved with the traffic.
        assert optimizer.pool.memberships(ack.deployment_id) == []
        assert [i.service for i in optimizer.pool.memberships(
            txn.target_id)] == ["malware_detector"]
        for host in manager.hosts.values():
            assert_host_consistent(host)
