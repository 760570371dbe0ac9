"""The deterministic fault injector.

A :class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan`
to one access provider's moving parts — topology links, NFV hosts, the
deployment manager's live containers, and the discovery service — and
schedules every event on the simulator clock.  Each applied fault is
appended to :attr:`FaultInjector.applied` (the *event trace*: same
seed, same trace) and, when an evidence ledger is attached, recorded
as a ``fault:<kind>`` evidence event so the auditor's log accounts for
every injected fault.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.faults.events import (
    HOST_KINDS,
    AppliedFault,
    FaultEvent,
    FaultKind,
    render_event,
)
from repro.faults.plan import FaultPlan, parse_fault_plan
from repro.nfv.container import ContainerState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.auditor.violations import EvidenceLedger
    from repro.core.provider import AccessProvider
    from repro.netsim.simulator import Simulator

#: Container states a crash event can hit.
_LIVE = (ContainerState.CREATED, ContainerState.INSTANTIATING,
         ContainerState.RUNNING)

#: Kinds whose targets name NFV hosts (for a partition, ``*`` is all).
_HOST_TARGETED = HOST_KINDS | {FaultKind.NETWORK_PARTITION}


class FaultInjector:
    """Schedules fault events against one provider on the sim clock."""

    def __init__(
        self,
        sim: "Simulator",
        provider: "AccessProvider",
        ledger: "EvidenceLedger | None" = None,
    ) -> None:
        self.sim = sim
        self.provider = provider
        self.ledger = ledger
        self.applied: list[AppliedFault] = []

    # -- scheduling -------------------------------------------------------

    def schedule_plan(self, plan: FaultPlan | str) -> FaultPlan:
        """Schedule every event of ``plan`` (a plan or DSL text).

        Raises :class:`~repro.errors.ConfigurationError`, with nothing
        scheduled, if an event lies in the past or names a host this
        provider does not have.
        """
        if isinstance(plan, str):
            plan = parse_fault_plan(plan)
        for event in plan:
            if event.time < self.sim.now:
                raise ConfigurationError(
                    f"fault at t={event.time} is in the past "
                    f"(now={self.sim.now})"
                )
            self._check_hosts(event)
        for event in plan:
            self.sim.schedule_at(event.time, self._apply, event)
        return plan

    def inject_now(self, event: FaultEvent) -> AppliedFault:
        """Apply one event immediately (bypasses the scheduler)."""
        self._check_hosts(event)
        return self._apply(event)

    def _check_hosts(self, event: FaultEvent) -> None:
        """The parse cannot know the world: refuse a host the provider
        does not have here, rather than apply a no-op mid-run."""
        if event.kind not in _HOST_TARGETED:
            return
        for name in event.target:
            if name != "*" and name not in self.provider.hosts:
                raise ConfigurationError(
                    f"unknown NFV host {name!r} in {render_event(event)!r}")

    # -- application ------------------------------------------------------

    def _apply(self, event: FaultEvent) -> AppliedFault:
        handler = {
            FaultKind.LINK_DOWN: self._link_down,
            FaultKind.LINK_UP: self._link_up,
            FaultKind.LINK_LOSS: self._link_loss,
            FaultKind.MIDDLEBOX_CRASH: self._crash,
            FaultKind.HOST_DOWN: self._host_down,
            FaultKind.HOST_UP: self._host_up,
            FaultKind.PROVIDER_SILENCE: self._silence,
            FaultKind.DM_DROP: self._dm_drop,
            FaultKind.MIGRATION_TARGET_CRASH: self._migration_target_crash,
            FaultKind.MIGRATION_TRANSFER_LOSS: self._migration_transfer_loss,
            FaultKind.MIGRATION_COMMIT_SILENCE: self._migration_commit_silence,
            FaultKind.HOST_CRASH: self._host_crash,
            FaultKind.NETWORK_PARTITION: self._partition,
            FaultKind.HEARTBEAT_LOSS: self._heartbeat_loss,
        }[event.kind]
        detail, deployment_ids = handler(event)
        applied = AppliedFault(
            time=self.sim.now, kind=event.kind, target=event.target,
            detail=detail, deployment_ids=deployment_ids,
        )
        self.applied.append(applied)
        self._record(applied)
        return applied

    def _record(self, applied: AppliedFault) -> None:
        if self.ledger is None:
            return
        targets = applied.deployment_ids or ("-",)
        for deployment_id in targets:
            self.ledger.record_fault(
                applied.time, self.provider.name, deployment_id,
                kind=applied.kind.value, detail=applied.detail,
            )

    # -- handlers ---------------------------------------------------------

    def _link_down(self, event: FaultEvent):
        a, b = event.target
        self.provider.topo.set_link_down(a, b)
        return f"link {a}<->{b} down", ()

    def _link_up(self, event: FaultEvent):
        a, b = event.target
        self.provider.topo.set_link_up(a, b)
        return f"link {a}<->{b} up", ()

    def _link_loss(self, event: FaultEvent):
        a, b = event.target
        rate = event.param("rate", 0.5)
        duration = event.param("duration", 0.1)
        previous = self.provider.topo.set_link_loss(a, b, rate)

        def _restore() -> None:
            self.provider.topo.set_link_loss(a, b, previous)

        self.sim.schedule(duration, _restore)
        return (f"loss burst {rate:g} on {a}<->{b} for {duration:g}s", ())

    def _crash(self, event: FaultEvent):
        service = event.target[0] if event.target else "*"
        crashed: list[str] = []
        deployment_ids: list[str] = []
        manager = self.provider.manager
        for deployment_id in sorted(manager.deployments):
            deployment = manager.deployments[deployment_id]
            for name, container in sorted(deployment.containers.items()):
                if service not in ("*", name):
                    continue
                if container.state not in _LIVE:
                    continue
                container.crash(self.sim.now)
                crashed.append(f"{deployment_id}:{name}")
                if deployment_id not in deployment_ids:
                    deployment_ids.append(deployment_id)
        if not crashed:
            return f"crash {service}: no live middlebox matched", ()
        return f"crashed {', '.join(crashed)}", tuple(deployment_ids)

    def _host_down(self, event: FaultEvent):
        name = event.target[0]
        host = self.provider.hosts[name]
        count = host.fail(self.sim.now)
        touched = tuple(sorted(
            deployment_id
            for deployment_id, d in self.provider.manager.deployments.items()
            if any(c.state is ContainerState.CRASHED
                   for c in d.containers.values())
        ))
        return f"host {name} down ({count} containers crashed)", touched

    def _host_up(self, event: FaultEvent):
        name = event.target[0]
        self.provider.hosts[name].recover()
        return f"host {name} back up", ()

    def _silence(self, event: FaultEvent):
        duration = event.param("duration", 1.0)
        self.provider.discovery.silence_for(duration, now=self.sim.now)
        return f"provider silent for {duration:g}s", ()

    def _dm_drop(self, event: FaultEvent):
        count = int(event.param("count", 1))
        self.provider.discovery.drop_next_dms += count
        return f"next {count} DMs will be dropped", ()

    # Migration-window faults arm the provider's migration coordinator;
    # the next transaction reaching the matching two-phase-commit window
    # consumes the armed fault deterministically.

    def _coordinator(self):
        from repro.core.deployment.migration import ensure_coordinator

        return ensure_coordinator(self.provider.manager, ledger=self.ledger)

    def _migration_target_crash(self, event: FaultEvent):
        count = int(event.param("count", 1))
        self._coordinator().arm_target_crash(count)
        return f"next {count} migration PREPARE(s) will crash the target", ()

    def _migration_transfer_loss(self, event: FaultEvent):
        count = int(event.param("count", 1))
        self._coordinator().arm_transfer_loss(count)
        return f"next {count} checkpoint transfer(s) will be lost", ()

    def _migration_commit_silence(self, event: FaultEvent):
        duration = event.param("duration", 1.0)
        self._coordinator().arm_commit_silence(duration)
        return f"provider will go silent {duration:g}s at next COMMIT", ()

    # Host-level chaos feeds the health plane (phi-accrual detector +
    # heartbeats), created lazily like the migration coordinator.

    def _health(self):
        from repro.health import ensure_health

        return ensure_health(self.provider, self.sim)

    def _host_crash(self, event: FaultEvent):
        name = event.target[0]
        host = self.provider.hosts[name]
        self._health()   # make sure the detector was watching
        touched = tuple(sorted(
            deployment_id
            for deployment_id, d in self.provider.manager.deployments.items()
            if any(getattr(c, "_host", None) is host
                   for c in d.containers.values())
        ))
        count = host.crash(self.sim.now)
        return f"host {name} crashed ({count} containers lost)", touched

    def _partition(self, event: FaultEvent):
        target = event.target[0] if event.target else "*"
        duration = event.param("duration", 1.0)
        heal = self._health().partition(target, duration, self.sim.now)
        return f"{target} partitioned from control plane until t={heal:g}", ()

    def _heartbeat_loss(self, event: FaultEvent):
        name = event.target[0]
        count = int(event.param("count", 1))
        self._health().drop_heartbeats(name, count)
        return f"next {count} heartbeats from {name} will be lost", ()

    # -- the event trace --------------------------------------------------

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for applied in self.applied:
            out[applied.kind.value] = out.get(applied.kind.value, 0) + 1
        return out

    def trace(self) -> str:
        """The applied-fault trace, one line per fault."""
        return "\n".join(render_event(a) for a in self.applied)
