"""NFV hosts: capacity accounting and container lifecycle.

An :class:`NfvHost` models one physical server in the access network
that runs PVN containers.  Admission is by memory and CPU-share
capacity; the E1 scalability experiment packs thousands of per-user
containers onto a small number of hosts and measures when admission
starts failing.

A host's load is the sum over the containers admitted to it.  The host
keeps that sum as counters, updated on every container state
transition, so an admission check reads them in O(1) instead of
scanning the container table; the tests check the counters against a
rescan after every step.
"""

from __future__ import annotations

import dataclasses

from repro.errors import CapacityError
from repro.netsim.simulator import Simulator
from repro.nfv.container import Container, ContainerState


@dataclasses.dataclass
class HostCapacity:
    """Static capacity of one NFV host."""

    memory_bytes: int = 8_000_000_000     # 8 GB
    cpu_cores: float = 16.0

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0 or self.cpu_cores <= 0:
            raise CapacityError("host capacity must be positive")


class NfvHost:
    """One container host with admission control.

    ``per_owner_memory_fraction`` caps any single subscriber's share of
    host memory (the §3.3 fairness control against a user "unfair[ly]
    us[ing] network and computational resources"); ``None`` disables
    the cap.
    """

    def __init__(
        self,
        name: str,
        capacity: HostCapacity | None = None,
        per_owner_memory_fraction: float | None = None,
    ) -> None:
        self.name = name
        self.capacity = capacity or HostCapacity()
        if per_owner_memory_fraction is not None and not (
            0.0 < per_owner_memory_fraction <= 1.0
        ):
            raise CapacityError("per-owner fraction must be in (0,1]")
        self.per_owner_memory_fraction = per_owner_memory_fraction
        self._containers: dict[int, Container] = {}
        # owner -> ids of its admitted containers, in admission order
        # (an insertion-ordered set), so a teardown touches only its own.
        self._ids_of_owner: dict[str, dict[int, None]] = {}
        self.launches = 0
        self.rejections = 0
        self.alive = True
        self.failures = 0
        # Residual-capacity index: counters maintained by container
        # state transitions (O(1) per attach/detach/migrate) instead of
        # summed over the container table on every admission check.
        self._memory_in_use = 0
        self._cpu_in_use = 0.0
        self._live_count = 0
        self._owner_memory: dict[str, int] = {}

    # -- accounting ----------------------------------------------------------

    def _account(self, container: Container, old_state: ContainerState,
                 new_state: ContainerState) -> None:
        """Apply one container state transition to the residual index.

        Only the STOPPED boundary matters: a stopped container releases
        its reservation, every other state (including CRASHED, which
        stays admitted for repair) holds it.
        """
        was_live = old_state is not ContainerState.STOPPED
        is_live = new_state is not ContainerState.STOPPED
        if was_live and not is_live:
            self._charge(container, -1)
        elif is_live and not was_live:
            self._charge(container, +1)

    def _charge(self, container: Container, sign: int) -> None:
        self._memory_in_use += sign * container.spec.memory_bytes
        self._cpu_in_use += sign * container.spec.cpu_share
        self._live_count += sign
        owner_memory = (
            self._owner_memory.get(container.owner, 0)
            + sign * container.spec.memory_bytes
        )
        if owner_memory:
            self._owner_memory[container.owner] = owner_memory
        else:
            self._owner_memory.pop(container.owner, None)

    @property
    def memory_in_use(self) -> int:
        return self._memory_in_use

    @property
    def cpu_in_use(self) -> float:
        return self._cpu_in_use

    @property
    def container_count(self) -> int:
        return self._live_count

    def memory_of_owner(self, owner: str) -> int:
        return self._owner_memory.get(owner, 0)

    def can_admit(self, container: Container) -> bool:
        if not self.alive:
            return False
        fits = (
            self.memory_in_use + container.spec.memory_bytes
            <= self.capacity.memory_bytes
            and self.cpu_in_use + container.spec.cpu_share
            <= self.capacity.cpu_cores
        )
        if not fits:
            return False
        if self.per_owner_memory_fraction is not None:
            cap = self.per_owner_memory_fraction * self.capacity.memory_bytes
            owner_use = self.memory_of_owner(container.owner)
            if owner_use + container.spec.memory_bytes > cap:
                return False
        return True

    # -- lifecycle -------------------------------------------------------------

    def launch(self, container: Container, sim: Simulator | None = None,
               now: float = 0.0) -> Container:
        """Admit and start a container (event-driven when ``sim`` given)."""
        if not self.can_admit(container):
            self.rejections += 1
            raise CapacityError(
                f"{self.name} cannot admit {container.name}: "
                f"mem {self.memory_in_use}/{self.capacity.memory_bytes}, "
                f"cpu {self.cpu_in_use:.1f}/{self.capacity.cpu_cores}"
            )
        self._containers[container.container_id] = container
        self._ids_of_owner.setdefault(container.owner, {})[
            container.container_id] = None
        container._host = self
        if container.state is not ContainerState.STOPPED:
            # Admitted live (CREATED/CRASHED): the reservation starts
            # now; subsequent transitions flow through _account.
            self._charge(container, +1)
        if sim is not None:
            container.start(sim)
        else:
            container.start_immediately(now)
        self.launches += 1
        return container

    def terminate(self, container_id: int) -> bool:
        container = self._containers.pop(container_id, None)
        if container is None:
            return False
        owned = self._ids_of_owner[container.owner]
        del owned[container_id]
        if not owned:
            del self._ids_of_owner[container.owner]
        if container.state is not ContainerState.STOPPED:
            self._charge(container, -1)
        container._host = None
        container.stop()
        return True

    def terminate_owner(self, owner: str) -> int:
        """Stop every container belonging to ``owner`` (PVN teardown)."""
        doomed = list(self._ids_of_owner.get(owner, ()))
        for cid in doomed:
            self.terminate(cid)
        return len(doomed)

    def containers(self) -> list[Container]:
        return list(self._containers.values())

    # -- fault injection -------------------------------------------------------

    def fail(self, now: float = 0.0) -> int:
        """The whole host dies: every live container crashes, and
        admission refuses new work until :meth:`recover`."""
        self.alive = False
        self.failures += 1
        crashed = 0
        for container in self._containers.values():
            if container.state is not ContainerState.STOPPED:
                container.crash(now)
                crashed += 1
        return crashed

    def crash(self, now: float = 0.0) -> int:
        """Abrupt host death: the machine is gone, not merely down.

        Unlike :meth:`fail` (a planned outage that keeps the container
        table so a later HOST_UP can repair in place), a crash loses
        every container *and its reservation*: the residual-capacity
        counters are torn down so a recovered or replacement host
        starts from a clean accounting slate, and each container's
        host backref is cleared so a later ``stop()`` on a doomed
        container cannot double-release capacity it no longer holds.

        Containers are crashed (not silently dropped) before eviction
        so deployment-layer health checks still observe them as
        CRASHED through their own references.
        """
        self.alive = False
        self.failures += 1
        evicted = 0
        for container in list(self._containers.values()):
            if container.state is not ContainerState.STOPPED:
                container.crash(now)
                self._charge(container, -1)
                evicted += 1
            container._host = None
        self._containers.clear()
        self._ids_of_owner.clear()
        return evicted

    def recover(self) -> None:
        """The host comes back; crashed containers stay crashed until
        the deployment layer restarts them."""
        self.alive = True
