"""Host health: failure detection, heartbeats, overload protection.

The package the self-healing control plane stands on
(:mod:`repro.core.deployment.reconciler` consumes it):

* :mod:`repro.health.detector` — phi-accrual suspicion levels from
  heartbeat inter-arrival history;
* :mod:`repro.health.heartbeat` — per-host beats routed over the
  simulated topology, so crashes, partitions, and slow hosts each
  produce a *different* signal;
* :mod:`repro.health.overload` — token buckets, priority-class load
  shedding, and circuit breakers for flash crowds during recovery.

:class:`HealthService` bundles a monitor + detector for one provider
world; :func:`ensure_health` attaches one lazily, mirroring
``ensure_coordinator`` on the migration side.
"""

from __future__ import annotations

from repro.health.detector import (
    DetectorPolicy,
    HostState,
    PhiAccrualDetector,
)
from repro.health.heartbeat import HeartbeatMonitor, HeartbeatPolicy
from repro.health.overload import (
    PRIORITY_ATTACH,
    PRIORITY_CRITICAL,
    PRIORITY_RENEW,
    AdmissionController,
    SheddingPolicy,
)
from repro.netsim.simulator import Simulator
from repro.netsim.topology import PhysicalTopology
from repro.nfv.hypervisor import NfvHost

__all__ = [
    "AdmissionController",
    "HealthService",
    "HostState",
    "PRIORITY_ATTACH",
    "PRIORITY_CRITICAL",
    "PRIORITY_RENEW",
    "SheddingPolicy",
    "ensure_health",
]


class HealthService:
    """One provider world's health plane: heartbeats + detector."""

    def __init__(
        self,
        sim: Simulator,
        topo: PhysicalTopology,
        hosts: dict[str, NfvHost],
        detector_policy: DetectorPolicy | None = None,
        heartbeat_policy: HeartbeatPolicy | None = None,
    ) -> None:
        self.sim = sim
        self.hosts = hosts
        self.detector = PhiAccrualDetector(detector_policy)
        self.monitor = HeartbeatMonitor(
            sim, topo, hosts, self.detector,
            policy=heartbeat_policy,
        )

    def start(self) -> None:
        self.monitor.start()

    def stop(self) -> None:
        self.monitor.stop()

    # -- fault hooks (driven by the injector) -----------------------------

    def partition(self, target: str, duration: float, now: float) -> float:
        """Open a partition window (``"*"`` = every host)."""
        return self.monitor.partition(target, duration, now)

    def drop_heartbeats(self, host: str, count: int) -> None:
        self.monitor.drop_beats(host, count)

    # -- interrogation ----------------------------------------------------

    def state_of(self, host: str, now: float) -> HostState:
        return self.detector.state_of(host, now)

    def phi(self, host: str, now: float) -> float:
        return self.detector.phi(host, now)

    def partitioned(self, host: str, now: float) -> bool:
        return self.monitor.partitioned(host, now)

    def resume(self, host: str) -> None:
        """Restart beats for a recovered host."""
        self.monitor.resume(host)


def ensure_health(provider, sim: Simulator) -> HealthService:
    """The provider's :class:`HealthService`, created on first use.

    ``provider`` is duck-typed (an :class:`~repro.core.provider.
    AccessProvider` or an experiment shim): it needs ``.topo`` and
    ``.hosts``, and the service is cached on ``provider._health``.
    """
    service = getattr(provider, "_health", None)
    if service is None:
        service = HealthService(sim, provider.topo, provider.hosts)
        provider._health = service
        service.start()
    return service
