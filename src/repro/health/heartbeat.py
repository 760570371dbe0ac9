"""Heartbeats over the simulated network.

Each monitored :class:`~repro.nfv.hypervisor.NfvHost` emits a periodic
heartbeat toward the control node.  The beat is *routed*: it only
arrives if the host is alive **and** a live-link path exists from the
host to the control node on the physical topology, and it arrives one
path latency later.  That single design choice is what makes failure
modes distinguishable downstream:

* **crash** — the host stops beating forever; phi accrues without
  bound until the detector declares DEAD;
* **partition** — beats are dropped while the partition window is
  open, then resume; phi spikes and then collapses on the first
  post-heal beat.  The control plane also *knows about* its own
  partition windows (the link-state analogy: an operator can see the
  cut from the other side), so the reconciler can defer the expensive
  evacuation decision for a host that is DEAD-but-partitioned;
* **slow host** — :meth:`drop_beats` loses a handful of beats; phi
  rises toward SUSPECT and recovers, never reaching the dead
  threshold when detector windows are sized sanely.

Everything runs on the simulation clock via ``sim.schedule``; the
stream is perfectly deterministic for a given world.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError, ReproError
from repro.health.detector import PhiAccrualDetector
from repro.netsim.simulator import Simulator
from repro.netsim.topology import PhysicalTopology
from repro.nfv.hypervisor import NfvHost

#: Size of one heartbeat datagram on the wire.
BEAT_BYTES = 64


@dataclasses.dataclass(frozen=True)
class HeartbeatPolicy:
    """How often hosts beat."""

    interval: float = 0.1

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError("heartbeat interval must be positive")


class HeartbeatMonitor:
    """Emits per-host beats into a :class:`PhiAccrualDetector`."""

    def __init__(
        self,
        sim: Simulator,
        topo: PhysicalTopology,
        hosts: dict[str, NfvHost],
        detector: PhiAccrualDetector,
        policy: HeartbeatPolicy | None = None,
    ) -> None:
        self.sim = sim
        self.topo = topo
        self.hosts = hosts
        self.detector = detector
        self.control_node = "gw"
        self.policy = policy or HeartbeatPolicy()
        self.delivered: dict[str, int] = {}
        self.dropped: dict[str, int] = {}       # host -> beats lost
        self._partitioned_until: dict[str, float] = {}
        self._drop_budget: dict[str, int] = {}  # HEARTBEAT_LOSS counters
        self._running = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Begin beating (idempotent).  The first beats go out after
        one interval so the detector's bootstrap window applies."""
        if self._running:
            return
        self._running = True
        for name in sorted(self.hosts):
            self.sim.schedule(
                self.policy.interval, self._beat, name,
            )

    def stop(self) -> None:
        self._running = False

    # -- fault hooks ------------------------------------------------------

    def partition(self, host: str, duration: float, now: float) -> float:
        """Open a partition window for ``host`` (``"*"`` = every
        host); beats are dropped until ``now + duration``.  Returns
        the heal time.  Overlapping windows extend, never shrink."""
        heal = now + duration
        targets = sorted(self.hosts) if host == "*" else [host]
        for name in targets:
            self._partitioned_until[name] = max(
                heal, self._partitioned_until.get(name, 0.0)
            )
        return heal

    def partitioned(self, host: str, now: float) -> bool:
        """Is the control plane aware of an open partition window for
        ``host``?  (This is the operator-visible link-state signal the
        reconciler uses to defer evacuation.)"""
        return self._partitioned_until.get(host, 0.0) > now

    def drop_beats(self, host: str, count: int) -> None:
        """Silently lose the next ``count`` beats from ``host`` — a
        live host that merely *looks* slow to the detector."""
        self._drop_budget[host] = self._drop_budget.get(host, 0) + count

    # -- the beat loop ----------------------------------------------------

    def _beat(self, host_name: str) -> None:
        if not self._running:
            return
        host = self.hosts.get(host_name)
        now = self.sim.now
        if host is not None and host.alive:
            self._send(host_name, now)
            self.sim.schedule(self.policy.interval, self._beat, host_name)
        # A dead host stops rescheduling itself; recovery restarts the
        # stream via resume().

    def resume(self, host_name: str) -> None:
        """Restart the beat stream for a recovered host and reset its
        arrival history (it must re-earn trust from a fresh window)."""
        self.detector.forget(host_name)
        if self._running:
            self.sim.schedule(self.policy.interval, self._beat, host_name)

    def _send(self, host_name: str, now: float) -> None:
        if self._drop_budget.get(host_name, 0) > 0:
            self._drop_budget[host_name] -= 1
            self._drop(host_name)
            return
        if self.partitioned(host_name, now):
            self._drop(host_name)
            return
        try:
            path = self.topo.shortest_path(host_name, self.control_node)
        except ReproError:
            # Physically partitioned: no live-link path to the control
            # node (e.g. a LINK_DOWN cut, not a declared window).
            self._drop(host_name)
            return
        latency = self.topo.path_latency(path, BEAT_BYTES)
        self.sim.schedule(latency, self._deliver, host_name)

    def _deliver(self, host_name: str) -> None:
        self.detector.heartbeat(host_name, self.sim.now)
        self.delivered[host_name] = self.delivered.get(host_name, 0) + 1

    def _drop(self, host_name: str) -> None:
        self.dropped[host_name] = self.dropped.get(host_name, 0) + 1
