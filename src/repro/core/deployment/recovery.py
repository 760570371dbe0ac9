"""The robustness supervisor: detect -> repair -> degrade.

A :class:`RobustnessSupervisor` runs periodic health checks on the
simulator clock over every deployment a manager holds.  The state
machine per deployment::

    ACTIVE --crash detected--> repairing --success--> ACTIVE
       repairing --attempts exhausted--> DEGRADED (VPN fallback)

Every detection, repair, and degradation is appended to the
supervisor's event log and — when a device's evidence ledger is
attached — recorded as ``fault:*`` evidence, so the §3.1 audit trail
accounts for the full fault history, not just policy violations.
"""

from __future__ import annotations

import dataclasses

from repro.core.deployment.lifecycle import (
    degrade_to_tunnel,
    health_check,
    repair_deployment,
)
from repro.core.deployment.manager import DeploymentManager, DeploymentState
from repro.core.tunneling.vpn import FullTunnel
from repro.errors import ConfigurationError
from repro.netsim.simulator import Simulator

if False:  # pragma: no cover - typing only
    from repro.core.auditor.violations import EvidenceLedger


@dataclasses.dataclass(frozen=True)
class RecoveryPolicy:
    """When to check, how often to retry, where to fall back."""

    check_interval: float = 0.25
    max_repair_attempts: int = 3       # per continuous outage
    fallback_endpoint: str = "cloud"

    def __post_init__(self) -> None:
        if self.check_interval <= 0:
            raise ConfigurationError("check_interval must be positive")
        if self.max_repair_attempts < 1:
            raise ConfigurationError("max_repair_attempts must be >= 1")


@dataclasses.dataclass(frozen=True)
class RecoveryEvent:
    """One supervisor action."""

    time: float
    deployment_id: str
    kind: str       # detected | repaired | repair_failed | degraded
    detail: str


class RobustnessSupervisor:
    """Periodic health checks with a bounded repair budget."""

    def __init__(
        self,
        manager: DeploymentManager,
        sim: Simulator,
        policy: RecoveryPolicy | None = None,
        ledger: "EvidenceLedger | None" = None,
    ) -> None:
        self.manager = manager
        self.sim = sim
        self.policy = policy or RecoveryPolicy()
        self.ledger = ledger
        self.events: list[RecoveryEvent] = []
        self.tunnels: dict[str, FullTunnel] = {}   # deployment -> fallback
        self._attempts: dict[str, int] = {}        # per continuous outage
        self._running = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Begin periodic checks (idempotent)."""
        if self._running:
            return
        self._running = True
        self.sim.schedule(self.policy.check_interval, self._tick)

    def stop(self) -> None:
        self._running = False

    # -- the check loop ---------------------------------------------------

    def _tick(self) -> None:
        if not self._running:
            return
        self._replay_migrations()
        for deployment_id in sorted(self.manager.deployments):
            deployment = self.manager.deployments[deployment_id]
            if deployment.state is not DeploymentState.ACTIVE:
                continue
            report = health_check(self.manager, deployment_id)
            if report.healthy:
                self._attempts.pop(deployment_id, None)
                continue
            self._handle_outage(deployment_id, report)
        self.sim.schedule(self.policy.check_interval, self._tick)

    def _replay_migrations(self) -> None:
        """Resolve migrations stranded mid-transaction.

        The migration coordinator's WAL journal makes the outcome
        deterministic: a transaction whose COMMIT intent was journaled
        before the crash rolls *forward* to the target deployment; any
        other open transaction rolls *back* to the intact source.  Each
        resolution is emitted (and ledgered) like any other recovery
        action.
        """
        coordinator = self.manager.migration_coordinator
        if coordinator is None:
            return
        for txn_id, action, detail in coordinator.recover(self.sim.now):
            txn = coordinator.transactions.get(txn_id)
            deployment_id = (
                txn.source.deployment_id if txn is not None else txn_id
            )
            self._emit(deployment_id, f"migration_{action}",
                       f"{txn_id}: {detail}")

    def _handle_outage(self, deployment_id: str, report) -> None:
        now = self.sim.now
        self._emit(deployment_id, "detected",
                   f"crashed={','.join(report.crashed_services) or '-'} "
                   f"dead_hosts={','.join(report.dead_hosts) or '-'}")
        attempts = self._attempts.get(deployment_id, 0)
        result = repair_deployment(self.manager, deployment_id, now)
        if result.repaired:
            self._attempts.pop(deployment_id, None)
            self._emit(
                deployment_id, "repaired",
                f"restarted={','.join(result.restarted) or '-'} "
                f"moved={','.join(result.moved) or '-'}",
            )
            return
        attempts += 1
        self._attempts[deployment_id] = attempts
        self._emit(
            deployment_id, "repair_failed",
            f"attempt {attempts}/{self.policy.max_repair_attempts}: "
            f"{result.reason}",
        )
        if attempts >= self.policy.max_repair_attempts:
            tunnel = degrade_to_tunnel(
                self.manager, deployment_id, self.policy.fallback_endpoint,
            )
            self.tunnels[deployment_id] = tunnel
            self._attempts.pop(deployment_id, None)
            self._emit(
                deployment_id, "degraded",
                f"fell back to VPN tunnel via "
                f"{self.policy.fallback_endpoint} after {attempts} "
                "failed repairs",
            )
            # Snapshot the datapath's pipeline counters at the moment
            # of degradation (the setter just flushed its compiled
            # pipelines), so chaos experiments can see the compiled
            # fast path being torn down, not just the recovery event.
            deployment = self.manager.deployments.get(deployment_id)
            if deployment is not None:
                deployment.datapath.publish_counters()

    def _emit(self, deployment_id: str, kind: str, detail: str) -> None:
        event = RecoveryEvent(
            time=self.sim.now, deployment_id=deployment_id,
            kind=kind, detail=detail,
        )
        self.events.append(event)
        if self.ledger is not None:
            self.ledger.record_fault(
                event.time, self.manager.provider, deployment_id,
                kind=kind, detail=detail,
            )

    # -- accounting -------------------------------------------------------

    def events_for(self, deployment_id: str) -> list[RecoveryEvent]:
        return [e for e in self.events if e.deployment_id == deployment_id]

    def resolution_of(self, deployment_id: str) -> str:
        """'repaired', 'degraded', or 'unresolved' — the *final* fate
        of the deployment's most recent outage."""
        for event in reversed(self.events_for(deployment_id)):
            if event.kind in ("repaired", "degraded"):
                return event.kind
        return "unresolved"

    def unresolved(self) -> list[str]:
        """Deployments currently unhealthy with no repair/degradation
        recorded after the outage — the 'silent hang' the chaos suite
        asserts never happens."""
        hanging = []
        for deployment_id in sorted(self.manager.deployments):
            deployment = self.manager.deployments[deployment_id]
            if deployment.state is DeploymentState.ACTIVE:
                if (deployment.crashed_services()
                        and self.resolution_of(deployment_id) != "repaired"):
                    hanging.append(deployment_id)
        return hanging
