"""Stateful PVN migration: make-before-break handoff that survives
crashes, partial failures, and concurrent old/new deployments.

The paper promises "the illusion of a personal home network wherever
the device roams" (§1).  Delivering that illusion for *stateful*
middleboxes (prefetcher caches, split-TCP connections, detector
counters) needs more than re-embedding the chain — it needs a
transactional handoff.  This module provides it, in four pieces:

* **Checkpoint/restore** — each source container's middlebox state is
  snapshotted (:meth:`repro.nfv.container.Container.checkpoint`),
  size-accounted with a canonical encoding, and shipped to freshly
  instantiated target containers, with transfer time charged from
  checkpoint bytes over the migration link.

* **A two-phase make-before-break transaction** —

  - PREPARE: embed the chain at the new attachment point and launch
    target containers there (paying full instantiation latency) while
    the source keeps serving;
  - TRANSFER: freeze the source chain, bridge live traffic through the
    tunneling fallback (time-to-protection never drops to zero), and
    ship checkpoints — lost transfers are retried up to a budget;
  - COMMIT: atomic cutover — restore state, advance the fencing
    epoch, swap SDN rules, transfer the funding lease; or
  - ABORT: full rollback to the source deployment — target containers
    are terminated, the bridge is lifted, no partial state survives.

* **Epoch fencing** — every deployment in a migration lineage carries
  a monotonically increasing epoch token checked on the data path
  (:meth:`repro.core.deployment.manager.PvnDataPath.process`).  A
  stale source deployment that missed the cutover *rejects* packets
  instead of split-brain double-processing them, and each rejection is
  recorded as auditor evidence via
  :meth:`repro.core.auditor.violations.EvidenceLedger.record_fault`.

* **A migration journal** — a WAL: every phase writes an intent record
  before mutating the world.  A crash mid-migration (injected via
  :mod:`repro.faults`) leaves an open transaction that
  :meth:`MigrationCoordinator.recover` — called by the
  :class:`~repro.core.deployment.recovery.RobustnessSupervisor` on its
  check loop — resolves deterministically: roll *forward* once the
  COMMIT intent is journaled, roll *back* otherwise.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from typing import TYPE_CHECKING

from repro.core.auditor.path_proof import make_keyring
from repro.core.deployment.embedding import embed_pvn
from repro.core.deployment.manager import (
    Deployment,
    DeploymentManager,
    DeploymentState,
    PvnDataPath,
)
from repro.core.pvnc.compiler import build_middleboxes
from repro.errors import DeploymentError, MigrationError, ReproError
from repro.nfv.container import Container, ContainerCheckpoint, ContainerState
from repro.nfv.sandbox import Capability, Sandbox
from repro.obs import runtime as obs_runtime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.auditor.violations import EvidenceLedger


# -- epoch fencing ----------------------------------------------------------


class EpochRegistry:
    """Monotone epoch tokens per migration lineage (split-brain fence).

    The registry is the single source of truth for "which deployment
    generation currently owns this user's traffic".  Data paths check
    their own token against :meth:`current` on every packet; a stale
    holder rejects the packet and the rejection lands in the evidence
    ledger as a ``fault:stale_epoch`` record.
    """

    def __init__(self, provider: str = "",
                 ledger: "EvidenceLedger | None" = None) -> None:
        self.provider = provider
        self.ledger = ledger
        self._current: dict[str, int] = {}
        self.advances: list[tuple[str, int]] = []   # (lineage, new epoch)
        self.rejections: list[tuple[float, str, str, int]] = []

    def register(self, lineage: str, epoch: int = 0) -> None:
        """Adopt a lineage at the given epoch (idempotent, never lowers)."""
        self._current[lineage] = max(self._current.get(lineage, 0), epoch)

    def current(self, lineage: str) -> int:
        return self._current.get(lineage, 0)

    def advance(self, lineage: str) -> int:
        """Mint the next (strictly greater) epoch for ``lineage``."""
        epoch = self._current.get(lineage, 0) + 1
        self._current[lineage] = epoch
        self.advances.append((lineage, epoch))
        return epoch

    def is_current(self, lineage: str, epoch: int) -> bool:
        if not lineage:
            return True
        return epoch >= self._current.get(lineage, 0)

    def reject(self, deployment_id: str, lineage: str, epoch: int,
               now: float) -> None:
        """Record one stale-epoch packet rejection as audit evidence."""
        self.rejections.append((now, deployment_id, lineage, epoch))
        if self.ledger is not None:
            self.ledger.record_fault(
                now, self.provider, deployment_id,
                kind="stale_epoch",
                detail=(f"rejected packet at epoch {epoch}; lineage "
                        f"{lineage} is at {self.current(lineage)}"),
            )

    def adopt_datapath(self, deployment: Deployment) -> None:
        """Wire a deployment's data path into the fence."""
        lineage = deployment.lineage_id
        deployment.lineage = lineage
        self.register(lineage, deployment.epoch)
        datapath = deployment.datapath
        datapath.fencing = self
        datapath.lineage = lineage
        datapath.epoch = deployment.epoch


# -- the journal ------------------------------------------------------------

REC_BEGIN = "begin"
REC_PREPARE_DONE = "prepare_done"
REC_TRANSFER_LOST = "transfer_lost"
REC_TRANSFER_DONE = "transfer_done"
REC_COMMIT_INTENT = "commit_intent"
REC_INTERRUPTED = "interrupted"
REC_COMMITTED = "committed"
REC_ABORTED = "aborted"

#: Records that close a transaction.
_TERMINAL = frozenset({REC_COMMITTED, REC_ABORTED})


@dataclasses.dataclass(frozen=True)
class JournalEntry:
    """One WAL record."""

    time: float
    txn_id: str
    record: str
    detail: str = ""

    def render(self) -> str:
        return (f"{self.time:.6f} {self.txn_id} {self.record}"
                f"{' :: ' + self.detail if self.detail else ''}")


class MigrationJournal:
    """Append-only write-ahead log of migration transactions."""

    def __init__(self) -> None:
        self.entries: list[JournalEntry] = []

    def append(self, time: float, txn_id: str, record: str,
               detail: str = "") -> JournalEntry:
        entry = JournalEntry(time=time, txn_id=txn_id, record=record,
                             detail=detail)
        self.entries.append(entry)
        return entry

    def records_for(self, txn_id: str) -> list[JournalEntry]:
        return [e for e in self.entries if e.txn_id == txn_id]

    def has(self, txn_id: str, record: str) -> bool:
        return any(e.record == record for e in self.records_for(txn_id))

    def open_transactions(self) -> list[str]:
        """Transactions begun but neither committed nor aborted, in
        first-begin order — what crash recovery must resolve."""
        seen: list[str] = []
        closed: set[str] = set()
        for entry in self.entries:
            if entry.record in _TERMINAL:
                closed.add(entry.txn_id)
            elif entry.txn_id not in seen:
                seen.append(entry.txn_id)
        return [txn_id for txn_id in seen if txn_id not in closed]

    def render(self) -> str:
        """Stable one-line-per-record rendering (trace digests)."""
        return "\n".join(entry.render() for entry in self.entries)


# -- the transaction --------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class MigrationSpec:
    """Cost model and budgets for one provider's migrations."""

    transfer_bandwidth_bps: float = 1e9   # checkpoint shipping link
    bridge_endpoint: str = "cloud"        # tunnel used mid-TRANSFER
    max_transfer_attempts: int = 3        # retries for lost checkpoints
    commit_overhead: float = 0.0          # extra control latency at COMMIT

    def __post_init__(self) -> None:
        if self.transfer_bandwidth_bps <= 0:
            raise MigrationError("transfer bandwidth must be positive")
        if self.max_transfer_attempts < 1:
            raise MigrationError("max_transfer_attempts must be >= 1")


@dataclasses.dataclass(frozen=True)
class MigrationResult:
    """Outcome of one migration transaction.

    ``deployment_id`` is the *surviving* deployment: the freshly
    committed target after COMMIT, the intact source after ABORT.
    """

    deployment_id: str
    new_stretch: float
    committed: bool = True
    pending: bool = False          # COMMIT intent journaled, cutover open
    reason: str = ""
    epoch: int = 0
    state_bytes: int = 0           # checkpoint bytes shipped
    restored_services: tuple[str, ...] = ()
    replica_services: tuple[str, ...] = ()   # restored from replica, not live
    handoff_time: float = 0.0      # prepare + transfer + commit on the clock
    transfer_attempts: int = 0


class MigrationPhase(enum.Enum):
    BEGUN = "begun"
    PREPARED = "prepared"
    TRANSFERRED = "transferred"
    COMMITTED = "committed"
    ABORTED = "aborted"


class MigrationTransaction:
    """One two-phase make-before-break handoff.

    Phases are explicit methods so fault injection (and the chaos
    suite) can crash the world between any two of them; the
    coordinator's :meth:`MigrationCoordinator.recover` replays the
    journal to a deterministic outcome afterwards.
    """

    def __init__(
        self,
        txn_id: str,
        coordinator: "MigrationCoordinator",
        source: Deployment,
        new_device_node: str,
        started_at: float,
    ) -> None:
        self.txn_id = txn_id
        self.coordinator = coordinator
        self.manager = coordinator.manager
        self.spec = coordinator.spec
        self.journal = coordinator.journal
        self.fencing = coordinator.fencing
        self.source = source
        self.new_device_node = new_device_node
        self.started_at = started_at
        self.clock = started_at     # logical time inside the transaction
        self.phase = MigrationPhase.BEGUN
        self.reason = ""
        self.transfer_attempts = 0
        self.state_bytes = 0
        # PREPARE artifacts (held by the txn only until COMMIT — an
        # aborted migration leaves no trace in the manager's records).
        self.target_id = ""
        self.target_embedding = None
        self.target_containers: dict[str, Container] = {}
        self.target_hosts: dict[str, str] = {}
        self.target_datapath: PvnDataPath | None = None
        self.checkpoints: dict[str, ContainerCheckpoint] = {}
        # Stale-but-consistent snapshots from the reconciler's state
        # replicator; they stand in for services whose live containers
        # died with their host (crash evacuation).  A live checkpoint
        # always wins over a replica.
        self.replica_checkpoints: dict[str, ContainerCheckpoint] = {}
        self.replica_services: tuple[str, ...] = ()
        self.target_deployment: Deployment | None = None
        self.journal.append(started_at, txn_id, REC_BEGIN,
                            f"{source.deployment_id} -> {new_device_node}")

    # -- phase 1: PREPARE --------------------------------------------------

    def prepare(self) -> bool:
        """Instantiate the target chain at the new attachment point.

        The source keeps serving throughout (make *before* break).  On
        any failure the transaction is abortable with zero cleanup debt
        beyond the target containers launched so far.
        """
        if self.phase is not MigrationPhase.BEGUN:
            raise MigrationError(f"cannot prepare from {self.phase.value}")
        source = self.source
        if source.state is not DeploymentState.ACTIVE:
            self.reason = f"source deployment is {source.state.value}"
            return False
        if source.env is None:
            self.reason = "source deployment has no user environment"
            return False

        live_hosts = {
            name: host for name, host in self.manager.hosts.items()
            if host.alive
        }
        try:
            self.target_embedding = embed_pvn(
                source.compiled, self.manager.topo, live_hosts,
                device_node=self.new_device_node,
                optimizer=self.manager.optimizer,
            )
        except ReproError as exc:
            self.reason = f"target embedding failed: {exc}"
            return False

        middleboxes = build_middleboxes(
            source.compiled, source.env, self.manager.store_factories
        )
        # Shared instances, like physical boxes, are provider-operated:
        # the target launches no per-user container for them.
        reused = {
            d.service for d in self.target_embedding.plan.decisions
            if d.reused_physical or d.shared
        }
        host_by_service = {
            d.service: d.node for d in self.target_embedding.plan.decisions
        }
        self.target_id = self.manager.allocate_deployment_id(source.user)
        for service, middlebox in middleboxes.items():
            if service in reused:
                continue
            container = Container(middlebox, spec=self.manager.container_spec,
                                  owner=source.user)
            node = host_by_service.get(service, "")
            host = live_hosts.get(node)
            try:
                if host is not None:
                    host.launch(container, sim=self.manager.sim,
                                now=self.clock)
                else:
                    container.start_immediately(self.clock)
            except ReproError as exc:
                self.reason = f"target launch of {service} failed: {exc}"
                return False
            self.target_containers[service] = container
            self.target_hosts[service] = node

        # Injected migration-window fault: the target dies mid-PREPARE.
        if self.coordinator.consume_target_crash():
            for container in self.target_containers.values():
                container.crash(self.clock)
            self.reason = "target containers crashed during PREPARE"
            return False

        if self.target_containers:
            self.clock += self.manager.container_spec.instantiation_time

        grants = dict(source.compiled.capability_grants)
        sandboxes = {
            service: Sandbox(
                middlebox, owner=source.user,
                capabilities=grants.get(service, Capability.OBSERVE),
            )
            for service, middlebox in middleboxes.items()
        }
        keyring = make_keyring(
            self.target_id, list(source.compiled.deployment_services)
        )
        self.target_datapath = PvnDataPath(
            deployment_id=self.target_id,
            compiled=source.compiled,
            middleboxes=middleboxes,
            sandboxes=sandboxes,
            keyring=keyring,
            container_spec=self.manager.container_spec,
            skip_services=source.datapath.skip_services,
            trusted_execution=source.datapath.trusted_execution,
            containers=self.target_containers,
        )
        # Make before break at the pool too: the target joins its
        # shared instances while the source keeps its memberships; the
        # loser's are released at COMMIT/ABORT.
        if self.manager.optimizer is not None:
            self.manager.optimizer.commit_plan(
                self.target_id, self.target_embedding.plan,
                sim=self.manager.sim, now=self.clock,
            )

        self.phase = MigrationPhase.PREPARED
        self.journal.append(
            self.clock, self.txn_id, REC_PREPARE_DONE,
            f"target {self.target_id} on "
            + ",".join(f"{s}@{n}" for s, n in sorted(self.target_hosts.items())),
        )
        return True

    # -- phase 2: TRANSFER -------------------------------------------------

    def transfer(self) -> bool:
        """Checkpoint the source chain and ship state to the target.

        The source data path bridges through the tunneling fallback for
        the duration — the user's policies stay enforced end-to-end
        while the chain state is in flight.  Lost transfers (injected
        via :mod:`repro.faults`) are retried up to the spec's budget.
        """
        if self.phase is not MigrationPhase.PREPARED:
            raise MigrationError(f"cannot transfer from {self.phase.value}")
        self.source.datapath.bridging_to = self.spec.bridge_endpoint

        source_hosts = {
            d.service: d.node for d in self.source.embedding.plan.decisions
        }
        for service, container in sorted(self.source.containers.items()):
            if container.state not in (ContainerState.RUNNING,
                                       ContainerState.INSTANTIATING):
                continue    # crashed state is unrecoverable; ship the rest
            self.checkpoints[service] = container.checkpoint(self.clock)
        # Crash evacuation: services whose containers died with their
        # host restore from the replicator's last snapshot instead —
        # stale-but-consistent beats lost.
        replicated: list[str] = []
        for service, checkpoint in sorted(self.replica_checkpoints.items()):
            if service in self.checkpoints:
                continue
            if service not in self.target_containers:
                continue
            self.checkpoints[service] = checkpoint
            replicated.append(service)
        self.replica_services = tuple(replicated)
        self.state_bytes = sum(
            c.size_bytes for c in self.checkpoints.values()
        )

        # Per-service shipping time: source-host -> target-host path
        # latency plus serialization over the migration link; services
        # ship in parallel, so one attempt costs the slowest transfer.
        attempt_time = 0.0
        for service, checkpoint in self.checkpoints.items():
            src_node = source_hosts.get(service, "")
            dst_node = self.target_hosts.get(service, src_node)
            latency = 0.0
            if src_node and dst_node and src_node != dst_node:
                try:
                    latency = self.manager.topo.path_latency(
                        self.manager.topo.shortest_path(src_node, dst_node)
                    )
                except ReproError:
                    latency = 0.0
            attempt_time = max(
                attempt_time,
                latency
                + checkpoint.size_bytes * 8.0 / self.spec.transfer_bandwidth_bps,
            )

        while True:
            self.transfer_attempts += 1
            self.clock += attempt_time
            if self.coordinator.consume_transfer_loss():
                self.journal.append(
                    self.clock, self.txn_id, REC_TRANSFER_LOST,
                    f"attempt {self.transfer_attempts}/"
                    f"{self.spec.max_transfer_attempts}",
                )
                if self.transfer_attempts >= self.spec.max_transfer_attempts:
                    self.reason = (
                        "checkpoint transfer lost "
                        f"{self.transfer_attempts} times; budget exhausted"
                    )
                    return False
                continue
            break

        self.phase = MigrationPhase.TRANSFERRED
        self.journal.append(
            self.clock, self.txn_id, REC_TRANSFER_DONE,
            f"{len(self.checkpoints)} checkpoints, {self.state_bytes} bytes, "
            f"{self.transfer_attempts} attempt(s)",
        )
        return True

    # -- phase 3: COMMIT or ABORT ------------------------------------------

    def commit(self) -> bool:
        """Atomic cutover to the target deployment.

        The COMMIT intent is journaled *before* any mutation — after
        that record exists the transaction's fate is decided, and crash
        recovery rolls it forward rather than back.  Raises
        :class:`~repro.errors.MigrationError` when the provider goes
        silent mid-commit (injected fault); the open intent is then
        resolved by :meth:`MigrationCoordinator.recover`.
        """
        if self.phase is not MigrationPhase.TRANSFERRED:
            raise MigrationError(f"cannot commit from {self.phase.value}")
        self.clock += self.spec.commit_overhead
        self.journal.append(self.clock, self.txn_id, REC_COMMIT_INTENT,
                            f"cutover {self.source.deployment_id} -> "
                            f"{self.target_id}")
        silence = self.coordinator.consume_commit_silence()
        if silence:
            self.journal.append(self.clock, self.txn_id, REC_INTERRUPTED,
                                f"provider silent during COMMIT ({silence})")
            raise MigrationError(
                f"provider went silent during COMMIT of {self.txn_id}"
            )
        self._finish_commit()
        return True

    def _finish_commit(self) -> None:
        """Apply the cutover (idempotent; also the roll-forward path)."""
        if self.phase is MigrationPhase.COMMITTED:
            return
        source, manager = self.source, self.manager
        lineage = source.lineage_id

        # 1. Restore shipped state into the target chain.
        for service, checkpoint in self.checkpoints.items():
            container = self.target_containers.get(service)
            if container is not None:
                container.restore(checkpoint)

        # 2. Advance the fence: the source epoch is now stale.
        epoch = self.fencing.advance(lineage)

        # 3. Register the target deployment under the same lineage.
        target = Deployment(
            deployment_id=self.target_id,
            user=source.user,
            compiled=source.compiled,
            embedding=self.target_embedding,
            containers=self.target_containers,
            datapath=self.target_datapath,
            subnet=source.subnet,
            price_paid=source.price_paid,
            created_at=self.started_at,
            ready_at=self.clock,
            attestation=None,
            env=source.env,
            epoch=epoch,
            lineage=lineage,
        )
        if manager.platform is not None:
            target.attestation = manager.platform.attest(
                self.target_id,
                source.compiled.pvnc.digest(),
                tuple(s for s in source.compiled.deployment_services
                      if s not in source.datapath.skip_services),
                now=self.clock,
            )
        manager.deployments[self.target_id] = target
        self.fencing.adopt_datapath(target)
        self.target_deployment = target

        # 4. Swap SDN rules: bind the target chain, drop the source's.
        if manager.controller is not None:
            switch = manager.controller.switch(manager.ingress_switch)
            detour = manager._detour_delay(self.target_embedding)
            switch.bind_chain(
                self.target_id,
                manager.chain_executor(self.target_datapath, detour))
            from repro.sdn.actions import ToChain

            manager.controller.install(
                manager.ingress_switch,
                source.compiled.pvn_match,
                (ToChain(self.target_id,
                         resume_neighbor=manager._next_hop_toward_gateway()),),
                priority=200,
                pvn_id=self.target_id,
            )
            manager.controller.remove_pvn(source.deployment_id)
            # Epoch-fence both cache tiers: rule install/removal
            # already flushed them, but advancing the fence token makes
            # the cutover invalidation explicit and unconditional — a
            # cached pipeline compiled against the superseded source
            # can never serve post-cutover traffic from the microflow
            # or the megaflow tier.
            switch.fence((lineage, epoch))

        # 5. Addresses and funding follow the surviving deployment.
        if manager.dhcp is not None:
            manager.dhcp.register_pvn_subnet(self.target_id, source.subnet)
        if self.coordinator.leases is not None:
            self.coordinator.leases.transfer(source.deployment_id,
                                             self.target_id)

        # 6. Fence and drain the source: containers stop, the stale
        # data path survives only to *reject* traffic (split-brain
        # protection), and the record is kept for the audit trail.
        source_hosts = {
            d.service: d.node for d in source.embedding.plan.decisions
        }
        for service, container in source.containers.items():
            host = manager.hosts.get(source_hosts.get(service, ""))
            if host is not None:
                host.terminate(container.container_id)
            elif container.state is not ContainerState.STOPPED:
                container.stop()
        source.datapath.bridging_to = ""
        source.state = DeploymentState.SUPERSEDED
        if manager.optimizer is not None:
            # The superseded source's shared-instance memberships die
            # with it; the target's (joined at PREPARE) survive.
            manager.optimizer.release(source.deployment_id)

        self.phase = MigrationPhase.COMMITTED
        self.journal.append(
            self.clock, self.txn_id, REC_COMMITTED,
            f"{self.target_id} live at epoch {epoch}; "
            f"{source.deployment_id} fenced",
        )

    def abort(self, now: float | None = None, reason: str = "") -> None:
        """Full rollback: the source deployment survives unchanged."""
        if self.phase in (MigrationPhase.COMMITTED, MigrationPhase.ABORTED):
            raise MigrationError(f"cannot abort from {self.phase.value}")
        if now is not None:
            self.clock = max(self.clock, now)
        self.reason = reason or self.reason or "aborted"
        for service, container in self.target_containers.items():
            host = self.manager.hosts.get(self.target_hosts.get(service, ""))
            if host is not None:
                host.terminate(container.container_id)
            elif container.state is not ContainerState.STOPPED:
                container.stop()
        if self.manager.optimizer is not None and self.target_id:
            # Roll back the PREPARE-time joins; the source keeps its
            # memberships (release is idempotent if PREPARE never ran).
            self.manager.optimizer.release(self.target_id)
        self.source.datapath.bridging_to = ""
        self.phase = MigrationPhase.ABORTED
        self.journal.append(self.clock, self.txn_id, REC_ABORTED, self.reason)

    # -- outcome -----------------------------------------------------------

    def result(self) -> MigrationResult:
        committed = self.phase is MigrationPhase.COMMITTED
        pending = (not committed
                   and self.phase is not MigrationPhase.ABORTED
                   and self.journal.has(self.txn_id, REC_COMMIT_INTENT))
        new_stretch = self.source.embedding.stretch
        if committed and self.target_embedding is not None:
            new_stretch = self.target_embedding.stretch
        surviving = self.target_id if committed else self.source.deployment_id
        return MigrationResult(
            deployment_id=surviving,
            new_stretch=new_stretch,
            committed=committed,
            pending=pending,
            reason=self.reason if not committed else "committed",
            epoch=(self.target_deployment.epoch
                   if self.target_deployment is not None else
                   self.source.epoch),
            state_bytes=self.state_bytes,
            restored_services=tuple(sorted(self.checkpoints))
            if committed else (),
            replica_services=self.replica_services if committed else (),
            handoff_time=self.clock - self.started_at,
            transfer_attempts=self.transfer_attempts,
        )


# -- the coordinator --------------------------------------------------------


class MigrationCoordinator:
    """Owns the journal, the epoch fence, and in-flight transactions
    for one provider's deployment manager."""

    def __init__(
        self,
        manager: DeploymentManager,
        spec: MigrationSpec | None = None,
        ledger: "EvidenceLedger | None" = None,
        leases=None,
    ) -> None:
        self.manager = manager
        self.spec = spec or MigrationSpec()
        self.leases = leases        # LeaseTable-like; funding follows commits
        self.journal = MigrationJournal()
        self.fencing = EpochRegistry(provider=manager.provider, ledger=ledger)
        self.transactions: dict[str, MigrationTransaction] = {}
        self._txn_counter = itertools.count(1)
        # Armed migration-window faults (set by repro.faults.injector);
        # consumed by the next transaction that reaches the window.
        self._target_crash_armed = 0
        self._transfer_loss_armed = 0
        self._commit_silence_armed = 0.0

    # -- fault arming (the injector's hooks) -------------------------------

    def arm_target_crash(self, count: int = 1) -> None:
        self._target_crash_armed += count

    def arm_transfer_loss(self, count: int = 1) -> None:
        self._transfer_loss_armed += count

    def arm_commit_silence(self, duration: float = 1.0) -> None:
        self._commit_silence_armed = max(self._commit_silence_armed, duration)

    def consume_target_crash(self) -> bool:
        if self._target_crash_armed > 0:
            self._target_crash_armed -= 1
            return True
        return False

    def consume_transfer_loss(self) -> bool:
        if self._transfer_loss_armed > 0:
            self._transfer_loss_armed -= 1
            return True
        return False

    def consume_commit_silence(self) -> float:
        duration, self._commit_silence_armed = self._commit_silence_armed, 0.0
        return duration

    # -- transactions ------------------------------------------------------

    def begin(self, deployment_id: str, new_device_node: str,
              now: float) -> MigrationTransaction:
        source = self.manager.deployment(deployment_id)
        if source.state is not DeploymentState.ACTIVE:
            raise DeploymentError(
                f"deployment {deployment_id} is {source.state.value}, "
                "not migratable"
            )
        self.fencing.adopt_datapath(source)
        txn_id = f"{source.lineage_id}.m{next(self._txn_counter)}"
        txn = MigrationTransaction(txn_id, self, source, new_device_node, now)
        self.transactions[txn_id] = txn
        return txn

    def run(self, txn: MigrationTransaction) -> MigrationResult:
        """Drive one transaction to COMMIT or ABORT.

        A commit interrupted by provider silence returns a *pending*
        result — the COMMIT intent is journaled, and the next
        :meth:`recover` pass rolls it forward.

        With observability enabled each phase runs in its own span
        (``migration.prepare``/``transfer``/``commit``) timed on the
        transaction's logical clock, and the outcome lands in
        ``repro_migrations_total{provider=...,outcome=...}``.
        """
        obs = obs_runtime.current()
        clock = lambda: txn.clock  # noqa: E731

        try:
            with obs_runtime.span("migration.prepare", clock,
                                  txn_id=txn.txn_id):
                prepared = txn.prepare()
            if not prepared:
                txn.abort()
            else:
                with obs_runtime.span("migration.transfer", clock,
                                      txn_id=txn.txn_id):
                    transferred = txn.transfer()
                if not transferred:
                    txn.abort()
                else:
                    with obs_runtime.span("migration.commit", clock,
                                          txn_id=txn.txn_id):
                        txn.commit()
        except MigrationError:
            pass    # pending: recover() rolls the intent forward
        self._charge_sim(txn)
        result = txn.result()
        if obs is not None:
            outcome = ("committed" if result.committed
                       else "pending" if result.pending else "aborted")
            obs.metrics.counter(
                "repro_migrations",
                "Migration transaction outcomes",
                ("provider", "outcome"),
            ).labels(provider=self.manager.provider, outcome=outcome).inc()
        return result

    def migrate(self, deployment_id: str, new_device_node: str,
                now: float) -> MigrationResult:
        """begin + run in one call (the :func:`migrate_device` path)."""
        return self.run(self.begin(deployment_id, new_device_node, now))

    def evacuate(
        self,
        deployment_id: str,
        now: float,
        replicas: dict[str, ContainerCheckpoint] | None = None,
    ) -> MigrationResult:
        """Move a deployment off a crashed host, same journal, same
        fencing, same make-before-break discipline as a roaming
        migration — the device just isn't going anywhere.

        ``replicas`` (service -> checkpoint) substitute for containers
        that died with the host; services covered by neither a live
        container nor a replica restart from factory state inside the
        fresh target chain, which still beats losing the policy.
        """
        source = self.manager.deployment(deployment_id)
        txn = self.begin(deployment_id, source.embedding.device_node, now)
        txn.replica_checkpoints = dict(replicas or {})
        return self.run(txn)

    def _charge_sim(self, txn: MigrationTransaction) -> None:
        """Charge the handoff wall-time on the simulator clock.

        Instantiation is already event-scheduled by ``host.launch``;
        this advances the clock through the transfer/commit window so
        downstream events (supervisor ticks, probes) observe the cost.
        When called from inside an event (e.g. journal replay on a
        supervisor tick) the clock cannot be driven re-entrantly; a
        marker event at the handoff's end time charges it instead.
        """
        sim = self.manager.sim
        if sim is None or txn.clock <= sim.now:
            return
        if getattr(sim, "_running", False):
            sim.schedule_at(txn.clock, lambda: None)
        else:
            sim.run(until=txn.clock)

    # -- crash recovery ----------------------------------------------------

    def recover(self, now: float) -> list[tuple[str, str, str]]:
        """Replay the journal over open transactions.

        Deterministic WAL semantics: an open transaction whose COMMIT
        intent is journaled rolls *forward* (the cutover is completed
        exactly as it would have been); any other open transaction
        rolls *back* to the intact source deployment.  Returns
        ``(txn_id, action, detail)`` per resolved transaction.
        """
        resolved: list[tuple[str, str, str]] = []
        for txn_id in self.journal.open_transactions():
            txn = self.transactions.get(txn_id)
            if txn is None:
                continue    # journaled by a previous incarnation
            if txn.phase in (MigrationPhase.COMMITTED,
                             MigrationPhase.ABORTED):
                continue
            if self.journal.has(txn_id, REC_COMMIT_INTENT):
                txn.clock = max(txn.clock, now)
                txn._finish_commit()
                self._charge_sim(txn)
                resolved.append((txn_id, "rolled_forward",
                                 f"commit intent replayed for "
                                 f"{txn.target_id}"))
            else:
                txn.abort(now, reason="crash recovery: no commit intent")
                resolved.append((txn_id, "rolled_back", txn.reason))
        return resolved


def ensure_coordinator(
    manager: DeploymentManager,
    spec: MigrationSpec | None = None,
    ledger: "EvidenceLedger | None" = None,
    leases=None,
) -> MigrationCoordinator:
    """The manager's coordinator, created on first use.

    Later calls can late-bind a ledger or lease table onto an existing
    coordinator (a session wires the device ledger in after faults or
    robustness are enabled).
    """
    coordinator = manager.migration_coordinator
    if coordinator is None:
        coordinator = MigrationCoordinator(manager, spec=spec,
                                           ledger=ledger, leases=leases)
        manager.migration_coordinator = coordinator
    else:
        if ledger is not None and coordinator.fencing.ledger is None:
            coordinator.fencing.ledger = ledger
        if leases is not None and coordinator.leases is None:
            coordinator.leases = leases
    return coordinator
