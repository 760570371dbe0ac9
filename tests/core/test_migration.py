"""Stateful migration: journal, two-phase transaction, fencing, recovery.

Property-tested invariants (ISSUE satellites):

* ``import_state(export_state(mb))`` is an identity for every stateful
  middlebox — the restored instance exports byte-identical state;
* epoch tokens are strictly monotone per lineage across arbitrary
  interleavings of migrate / register / reject operations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.auditor.violations import EvidenceLedger
from repro.core.deployment.manager import DeploymentManager, DeploymentState
from repro.core.deployment.migration import (
    EpochRegistry,
    MigrationCoordinator,
    MigrationJournal,
    MigrationSpec,
    ensure_coordinator,
)
from repro.core.deployment.lifecycle import LeaseTable, migrate_device
from repro.core.discovery.messages import DeploymentAck, DeploymentRequest
from repro.core.pvnc import UserEnvironment, compile_pvnc
from repro.core.session import default_pvnc
from repro.errors import MigrationError
from repro.middleboxes.classifier import TrafficClassifier
from repro.middleboxes.malware_detector import MalwareDetector
from repro.middleboxes.prefetcher import Prefetcher
from repro.middleboxes.tcp_proxy import SplitTcpProxy
from repro.middleboxes.tracker_blocker import TrackerBlocker
from repro.netproto.dhcp import DhcpServer
from repro.netproto.dns import Resolver, TrustAnchor, Zone, ZoneSigner
from repro.netproto.tls import make_web_pki
from repro.netsim import Packet, Simulator
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
    attach_device(topo, "dev_alice2", ap="ap1")
    hosts = {n: NfvHost(n) for n in topo.nodes_of_kind("nfv")}
    dhcp = DhcpServer("10.10.0.0/16", pvn_server="pvn.isp")
    manager = DeploymentManager(
        provider="isp", topo=topo, hosts=hosts, sim=sim, dhcp=dhcp,
    )
    return sim, topo, hosts, dhcp, manager


@pytest.fixture
def deployed(world):
    sim, _, _, _, manager = world
    pvnc = default_pvnc()
    request = DeploymentRequest(
        device_id="alice:mac", offer_id=1, pvnc=pvnc,
        accepted_services=pvnc.used_services(), payment=10.0,
    )
    ack = manager.deploy(request, make_env(), "dev_alice", now=sim.now)
    assert isinstance(ack, DeploymentAck)
    return world, ack


def live_container_count(hosts):
    return sum(h.container_count for h in hosts.values())


# -- the journal ------------------------------------------------------------


class TestJournal:
    def test_open_transactions_in_first_begin_order(self):
        journal = MigrationJournal()
        journal.append(0.0, "a.m1", "begin")
        journal.append(0.1, "a.m2", "begin")
        journal.append(0.2, "a.m1", "prepare_done")
        assert journal.open_transactions() == ["a.m1", "a.m2"]

    def test_terminal_records_close_transactions(self):
        journal = MigrationJournal()
        journal.append(0.0, "a.m1", "begin")
        journal.append(0.1, "a.m1", "committed")
        journal.append(0.2, "a.m2", "begin")
        journal.append(0.3, "a.m2", "aborted")
        assert journal.open_transactions() == []

    def test_has_and_records_for(self):
        journal = MigrationJournal()
        journal.append(0.0, "x", "begin")
        journal.append(1.0, "x", "commit_intent", "cutover")
        assert journal.has("x", "commit_intent")
        assert not journal.has("x", "committed")
        assert [e.record for e in journal.records_for("x")] == [
            "begin", "commit_intent",
        ]

    def test_render_is_stable(self):
        journal = MigrationJournal()
        journal.append(0.5, "x", "begin", "a -> b")
        assert journal.render() == "0.500000 x begin :: a -> b"


class TestSpec:
    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(MigrationError):
            MigrationSpec(transfer_bandwidth_bps=0.0)

    def test_invalid_attempt_budget_rejected(self):
        with pytest.raises(MigrationError):
            MigrationSpec(max_transfer_attempts=0)


# -- transaction phase ordering --------------------------------------------


class TestPhaseOrdering:
    def test_transfer_before_prepare_raises(self, deployed):
        world, ack = deployed
        sim, _, _, _, manager = world
        coordinator = ensure_coordinator(manager)
        txn = coordinator.begin(ack.deployment_id, "dev_alice2", sim.now)
        with pytest.raises(MigrationError):
            txn.transfer()

    def test_commit_before_transfer_raises(self, deployed):
        world, ack = deployed
        sim, _, _, _, manager = world
        coordinator = ensure_coordinator(manager)
        txn = coordinator.begin(ack.deployment_id, "dev_alice2", sim.now)
        assert txn.prepare()
        with pytest.raises(MigrationError):
            txn.commit()
        txn.abort()     # clean up the prepared target

    def test_abort_after_commit_raises(self, deployed):
        world, ack = deployed
        sim, _, _, _, manager = world
        coordinator = ensure_coordinator(manager)
        txn = coordinator.begin(ack.deployment_id, "dev_alice2", sim.now)
        result = coordinator.run(txn)
        assert result.committed
        with pytest.raises(MigrationError):
            txn.abort()


# -- clean commit -----------------------------------------------------------


class TestCommit:
    def test_cutover_moves_everything(self, deployed):
        world, ack = deployed
        sim, _, hosts, dhcp, manager = world
        leases = LeaseTable()
        leases.fund(ack.deployment_id, until=500.0)
        before = live_container_count(hosts)
        result = migrate_device(manager, ack.deployment_id, "dev_alice2",
                                now=sim.now, leases=leases)
        assert result.committed and not result.pending
        # The lease followed the surviving deployment.
        assert ack.deployment_id not in leases.leases
        assert leases.leases[result.deployment_id] == 500.0
        # Addresses follow: the subnet is registered under the new id.
        assert result.deployment_id in dhcp._pvn_allocators
        # Source fenced, target live; no orphaned containers either way.
        assert (manager.deployment(ack.deployment_id).state
                is DeploymentState.SUPERSEDED)
        target = manager.deployment(result.deployment_id)
        assert target.state is DeploymentState.ACTIVE
        assert target.embedding.device_node == "dev_alice2"
        assert live_container_count(hosts) == before

    def test_cost_accounting(self, deployed):
        world, ack = deployed
        sim, _, _, _, manager = world
        result = migrate_device(manager, ack.deployment_id, "dev_alice2",
                                now=sim.now)
        # Handoff pays full container instantiation at the target plus
        # a non-empty checkpoint transfer.
        assert (result.handoff_time
                >= manager.container_spec.instantiation_time)
        assert result.state_bytes > 0
        assert result.restored_services
        assert result.epoch == 1
        # The sim clock was charged with the handoff.
        assert sim.now >= result.handoff_time

    def test_state_restored_into_target(self, deployed):
        world, ack = deployed
        sim, _, _, _, manager = world
        source = manager.deployment(ack.deployment_id)
        for container in source.containers.values():
            container.middlebox.stats["processed"] = 7
        result = migrate_device(manager, ack.deployment_id, "dev_alice2",
                                now=sim.now)
        target = manager.deployment(result.deployment_id)
        for service in result.restored_services:
            container = target.containers.get(service)
            if container is not None:
                assert container.middlebox.stats["processed"] == 7

    def test_stale_source_rejects_with_evidence(self, deployed):
        world, ack = deployed
        sim, _, _, _, manager = world
        ledger = EvidenceLedger()
        result = migrate_device(manager, ack.deployment_id, "dev_alice2",
                                now=sim.now, ledger=ledger)
        source = manager.deployment(ack.deployment_id)
        processed_before = source.datapath.packets_processed
        packet = Packet(src="10.0.0.1", dst="1.1.1.1", owner="alice")
        outcome = source.datapath.process(packet, now=sim.now)
        assert outcome.verdict_reasons == ("fencing:stale_epoch",)
        assert source.datapath.packets_processed == processed_before
        assert source.datapath.stale_rejections == 1
        stale = [r for r in ledger.fault_records("isp")
                 if r.test == "fault:stale_epoch"]
        assert len(stale) == 1
        # The fresh target still processes normally.
        target = manager.deployment(result.deployment_id)
        ok = target.datapath.process(
            Packet(src="10.0.0.1", dst="1.1.1.1", owner="alice"), now=sim.now)
        assert ok.verdict_reasons != ("fencing:stale_epoch",)


# -- rollback ---------------------------------------------------------------


class TestRollback:
    def test_target_crash_rolls_back_atomically(self, deployed):
        world, ack = deployed
        sim, _, hosts, _, manager = world
        coordinator = ensure_coordinator(manager)
        before = live_container_count(hosts)
        deployments_before = set(manager.deployments)
        coordinator.arm_target_crash()
        result = coordinator.migrate(ack.deployment_id, "dev_alice2", sim.now)
        assert not result.committed and not result.pending
        assert result.deployment_id == ack.deployment_id
        # No partial state anywhere: no new deployment record, no
        # orphaned containers, source still serving, bridge lifted.
        assert set(manager.deployments) == deployments_before
        assert live_container_count(hosts) == before
        source = manager.deployment(ack.deployment_id)
        assert source.state is DeploymentState.ACTIVE
        assert source.datapath.bridging_to == ""
        assert coordinator.journal.open_transactions() == []

    def test_transfer_loss_budget_exhausted_aborts(self, deployed):
        world, ack = deployed
        sim, _, hosts, _, manager = world
        coordinator = ensure_coordinator(manager)
        budget = coordinator.spec.max_transfer_attempts
        before = live_container_count(hosts)
        coordinator.arm_transfer_loss(count=budget)
        result = coordinator.migrate(ack.deployment_id, "dev_alice2", sim.now)
        assert not result.committed
        assert result.transfer_attempts == budget
        assert live_container_count(hosts) == before
        txn_id = next(iter(coordinator.transactions))
        losses = [e for e in coordinator.journal.records_for(txn_id)
                  if e.record == "transfer_lost"]
        assert len(losses) == budget

    def test_transfer_loss_within_budget_retries_and_commits(self, deployed):
        world, ack = deployed
        sim, _, _, _, manager = world
        coordinator = ensure_coordinator(manager)
        coordinator.arm_transfer_loss(count=1)
        result = coordinator.migrate(ack.deployment_id, "dev_alice2", sim.now)
        assert result.committed
        assert result.transfer_attempts == 2


# -- crash recovery ---------------------------------------------------------


class TestRecovery:
    def test_commit_silence_leaves_pending_then_rolls_forward(self, deployed):
        world, ack = deployed
        sim, _, hosts, _, manager = world
        coordinator = ensure_coordinator(manager)
        coordinator.arm_commit_silence(duration=0.5)
        result = coordinator.migrate(ack.deployment_id, "dev_alice2", sim.now)
        assert result.pending and not result.committed
        assert coordinator.journal.open_transactions()

        resolved = coordinator.recover(sim.now + 1.0)
        assert [action for _, action, _ in resolved] == ["rolled_forward"]
        assert coordinator.journal.open_transactions() == []
        active = [d for d in manager.deployments.values()
                  if d.state is DeploymentState.ACTIVE]
        assert len(active) == 1
        assert active[0].deployment_id != ack.deployment_id
        # Idempotent: a second pass finds nothing to resolve.
        assert coordinator.recover(sim.now + 2.0) == []

    def test_open_transaction_without_intent_rolls_back(self, deployed):
        world, ack = deployed
        sim, _, hosts, _, manager = world
        coordinator = ensure_coordinator(manager)
        before = live_container_count(hosts)
        txn = coordinator.begin(ack.deployment_id, "dev_alice2", sim.now)
        assert txn.prepare()    # crash here: prepared, no commit intent
        resolved = coordinator.recover(sim.now + 1.0)
        assert [action for _, action, _ in resolved] == ["rolled_back"]
        assert live_container_count(hosts) == before
        assert (manager.deployment(ack.deployment_id).state
                is DeploymentState.ACTIVE)


class TestLeaseTransfer:
    def test_transfer_moves_and_merges_max(self):
        leases = LeaseTable()
        leases.fund("old", until=100.0)
        leases.fund("new", until=400.0)
        leases.transfer("old", "new")
        assert "old" not in leases.leases
        assert leases.leases["new"] == 400.0

    def test_transfer_of_unknown_id_is_a_noop(self):
        leases = LeaseTable()
        leases.fund("new", until=50.0)
        leases.transfer("ghost", "new")
        assert leases.leases == {"new": 50.0}


# -- property: checkpoint round-trip identity -------------------------------


def _populated_middleboxes(data):
    """One instance of every stateful middlebox, state drawn from ``data``."""
    small_int = st.integers(min_value=0, max_value=10_000)
    url = st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz./:-", min_size=1, max_size=24)

    prefetcher = Prefetcher()
    for u, body in data.draw(st.lists(
            st.tuples(url, st.binary(max_size=64)), max_size=6)):
        prefetcher.cache.put("http://" + u, body)
    prefetcher.hits = data.draw(small_int)
    prefetcher.misses = data.draw(small_int)
    prefetcher.prefetches_issued = data.draw(small_int)

    proxy = SplitTcpProxy()
    proxy.flows_split = data.draw(small_int)

    detector = MalwareDetector()
    detector.detections = data.draw(st.lists(
        st.tuples(st.sampled_from(["zeus", "beaconing"]), url), max_size=4))
    detector._contact_log = {
        (src, dst): sorted(times)
        for (src, dst), times in data.draw(st.dictionaries(
            st.tuples(url, url),
            st.lists(st.floats(min_value=0.0, max_value=100.0,
                               allow_nan=False), min_size=1, max_size=4),
            max_size=3)).items()
    }

    blocker = TrackerBlocker()
    blocker.blocked_requests = data.draw(small_int)
    blocker.blocked_bytes = data.draw(small_int)

    classifier = TrafficClassifier()
    for cls in classifier.class_counts:
        classifier.class_counts[cls] = data.draw(small_int)

    boxes = [prefetcher, proxy, detector, blocker, classifier]
    for box in boxes:
        box.stats["processed"] = data.draw(small_int)
        box.stats["dropped"] = data.draw(small_int)
    return boxes


FRESH = {
    "prefetcher": Prefetcher,
    "tcp_proxy": SplitTcpProxy,
    "malware_detector": MalwareDetector,
    "tracker_blocker": TrackerBlocker,
    "classifier": TrafficClassifier,
}


class TestCheckpointRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_import_export_identity_for_every_stateful_middlebox(self, data):
        for box in _populated_middleboxes(data):
            snapshot = box.export_state()
            fresh = FRESH[box.service]()
            fresh.import_state(snapshot)
            assert fresh.export_state() == snapshot

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_round_trip_survives_a_second_generation(self, data):
        # export -> import -> export -> import is still an identity
        # (migrating twice loses nothing).
        for box in _populated_middleboxes(data):
            first = box.export_state()
            second_gen = FRESH[box.service]()
            second_gen.import_state(first)
            third_gen = FRESH[box.service]()
            third_gen.import_state(second_gen.export_state())
            assert third_gen.export_state() == first


# -- property: epoch monotonicity -------------------------------------------


OPS = st.lists(
    st.tuples(
        st.sampled_from(["advance", "register", "reject", "query"]),
        st.sampled_from(["alice/pvn1", "bob/pvn2", "carol/pvn3"]),
        st.integers(min_value=0, max_value=20),
    ),
    max_size=60,
)


class TestEpochMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(ops=OPS)
    def test_epochs_strictly_monotone_per_lineage(self, ops):
        registry = EpochRegistry()
        observed = {}
        for op, lineage, arg in ops:
            before = registry.current(lineage)
            if op == "advance":
                epoch = registry.advance(lineage)
                assert epoch == before + 1      # strictly greater
            elif op == "register":
                registry.register(lineage, epoch=arg)
            elif op == "reject":
                registry.reject("d", lineage, arg, now=0.0)
            # The current epoch never moves backwards, whatever the op.
            assert registry.current(lineage) >= before
            observed.setdefault(lineage, []).append(registry.current(lineage))
        # Per-lineage advance history is strictly increasing.
        for lineage in {"alice/pvn1", "bob/pvn2", "carol/pvn3"}:
            minted = [e for lin, e in registry.advances if lin == lineage]
            assert minted == sorted(minted)
            assert len(set(minted)) == len(minted)

    @settings(max_examples=20, deadline=None)
    @given(seq=st.lists(st.sampled_from(["commit", "crash", "silence"]),
                        min_size=1, max_size=4))
    def test_epochs_monotone_across_migration_interleavings(self, seq):
        """Whatever interleaving of clean commits, aborted migrations,
        and crash-recovered commits runs, the lineage's minted epochs
        are exactly 1, 2, 3, ... with no gaps or repeats."""
        sim = Simulator()
        topo = build_wide_area(build_access_network())
        attach_device(topo, "dev_a")
        attach_device(topo, "dev_b", ap="ap1")
        hosts = {n: NfvHost(n) for n in topo.nodes_of_kind("nfv")}
        manager = DeploymentManager(
            provider="isp", topo=topo, hosts=hosts, sim=sim,
            dhcp=DhcpServer("10.10.0.0/16", pvn_server="pvn.isp"),
        )
        pvnc = default_pvnc()
        request = DeploymentRequest(
            device_id="alice:mac", offer_id=1, pvnc=pvnc,
            accepted_services=pvnc.used_services(), payment=10.0,
        )
        ack = manager.deploy(request, make_env(), "dev_a", now=sim.now)
        coordinator = MigrationCoordinator(manager)

        live = ack.deployment_id
        nodes = ["dev_b", "dev_a"]
        commits = 0
        for i, action in enumerate(seq):
            if action == "crash":
                coordinator.arm_target_crash()
            elif action == "silence":
                coordinator.arm_commit_silence(duration=0.1)
            result = coordinator.migrate(live, nodes[i % 2], sim.now)
            if result.pending:
                coordinator.recover(sim.now)
                result = coordinator.transactions[
                    next(reversed(coordinator.transactions))].result()
            if result.committed:
                commits += 1
                live = result.deployment_id
        lineage = ack.deployment_id
        minted = [e for lin, e in coordinator.fencing.advances
                  if lin == lineage]
        assert minted == list(range(1, commits + 1))
        assert coordinator.fencing.current(lineage) == commits
        assert coordinator.journal.open_transactions() == []


# -- property: crash-recovery idempotency -----------------------------------


class TestRecoveryIdempotencyProperty:
    @settings(max_examples=20, deadline=None)
    @given(cycles=st.lists(
        st.tuples(st.sampled_from(["silence", "no_intent"]),
                  st.integers(min_value=1, max_value=3)),
        min_size=1, max_size=4,
    ))
    def test_exactly_one_outcome_per_interrupted_migration(self, cycles):
        """Crash-during-recovery, repeated: every interrupted migration
        resolves to exactly one outcome no matter how many times
        ``recover()`` re-runs, the journal never leaks an open
        transaction, and exactly one deployment serves the user with a
        conserved container population."""
        sim = Simulator()
        topo = build_wide_area(build_access_network())
        attach_device(topo, "dev_a")
        attach_device(topo, "dev_b", ap="ap1")
        hosts = {n: NfvHost(n) for n in topo.nodes_of_kind("nfv")}
        manager = DeploymentManager(
            provider="isp", topo=topo, hosts=hosts, sim=sim,
            dhcp=DhcpServer("10.10.0.0/16", pvn_server="pvn.isp"),
        )
        pvnc = default_pvnc()
        request = DeploymentRequest(
            device_id="alice:mac", offer_id=1, pvnc=pvnc,
            accepted_services=pvnc.used_services(), payment=10.0,
        )
        ack = manager.deploy(request, make_env(), "dev_a", now=sim.now)
        assert isinstance(ack, DeploymentAck)
        coordinator = MigrationCoordinator(manager)
        baseline = live_container_count(hosts)

        live = ack.deployment_id
        nodes = ["dev_b", "dev_a"]
        now = 0.0
        flips = 0
        for mode, recovers in cycles:
            now += 1.0
            target = nodes[flips % 2]
            if mode == "silence":
                # Interrupted after the commit intent hit the journal.
                coordinator.arm_commit_silence(duration=0.1)
                result = coordinator.migrate(live, target, now)
                assert result.pending and not result.committed
            else:
                # Interrupted after prepare, before any commit intent.
                txn = coordinator.begin(live, target, now)
                assert txn.prepare()
            open_before = coordinator.journal.open_transactions()
            assert len(open_before) == 1

            resolutions = []
            for _ in range(recovers):
                now += 0.5
                resolutions.extend(coordinator.recover(now))
            # Exactly one committed outcome; re-running recovery is
            # a no-op, never a second roll in either direction.
            assert len(resolutions) == 1
            txn_id, action, _ = resolutions[0]
            assert txn_id == open_before[0]
            if mode == "silence":
                assert action == "rolled_forward"
                flips += 1
            else:
                assert action == "rolled_back"

            assert coordinator.journal.open_transactions() == []
            active = [d for d in manager.deployments.values()
                      if d.state is DeploymentState.ACTIVE]
            assert len(active) == 1
            assert active[0].user == "alice"
            live = active[0].deployment_id
            assert live_container_count(hosts) == baseline
            assert coordinator.recover(now + 0.1) == []
