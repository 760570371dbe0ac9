"""Container-modelled middlebox instances.

§3.3 argues PVN overhead is negligible by citing ClickOS numbers
(Martins et al., NSDI'14): containers "can be instantiated in 30
milliseconds, add only 45 microseconds of delay, and consume only 6 MB
of memory".  Those three constants are the defaults of
:class:`ContainerSpec` and drive the E1 scalability experiment.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools

from repro.errors import SimulationError
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.nfv.middlebox import Middlebox, ProcessingContext, Verdict
from repro.units import MB, MICROSECOND, MILLISECOND

_container_ids = itertools.count(1)


def encode_state(obj) -> bytes:
    """Deterministically serialize middlebox state for size accounting.

    A bencode-like canonical encoding over the JSON-ish value space
    middleboxes export (dict/list/tuple/str/bytes/bool/int/float/None).
    Checkpoint transfer time is charged from ``len(encode_state(...))``,
    so the encoding must be stable across runs — dict items are emitted
    in sorted key order.
    """
    if obj is None:
        return b"n"
    if isinstance(obj, bool):
        return b"t" if obj else b"f"
    if isinstance(obj, int):
        return b"i" + str(obj).encode() + b"e"
    if isinstance(obj, float):
        return b"x" + repr(obj).encode() + b"e"
    if isinstance(obj, str):
        data = obj.encode()
        return b"s" + str(len(data)).encode() + b":" + data
    if isinstance(obj, (bytes, bytearray)):
        return b"b" + str(len(obj)).encode() + b":" + bytes(obj)
    if isinstance(obj, (list, tuple)):
        return b"l" + b"".join(encode_state(item) for item in obj) + b"e"
    if isinstance(obj, dict):
        parts = [b"d"]
        for key in sorted(obj, key=str):
            parts.append(encode_state(str(key)))
            parts.append(encode_state(obj[key]))
        parts.append(b"e")
        return b"".join(parts)
    raise SimulationError(
        f"middlebox state is not checkpointable: {type(obj).__name__}"
    )


@dataclasses.dataclass(frozen=True)
class ContainerCheckpoint:
    """A serialized snapshot of one container's middlebox state.

    ``size_bytes`` (the canonical encoding length) is what migration
    charges against the transfer link; ``state`` is the live dict the
    target container restores from.
    """

    service: str
    container_id: int
    created_at: float
    state: dict
    size_bytes: int

    @classmethod
    def capture(cls, container: "Container", now: float,
                service: str = "") -> "ContainerCheckpoint":
        state = container.middlebox.export_state()
        return cls(
            service=service or container.middlebox.service,
            container_id=container.container_id,
            created_at=now,
            state=state,
            size_bytes=len(encode_state(state)),
        )


@dataclasses.dataclass(frozen=True)
class ContainerSpec:
    """Resource model for one middlebox container.

    Defaults are the ClickOS figures the paper cites in §3.3.
    """

    instantiation_time: float = 30 * MILLISECOND
    per_packet_delay: float = 45 * MICROSECOND
    memory_bytes: int = 6 * MB
    cpu_share: float = 0.1      # fraction of one core

    def __post_init__(self) -> None:
        if self.instantiation_time < 0 or self.per_packet_delay < 0:
            raise SimulationError("container delays must be >= 0")
        if self.memory_bytes <= 0 or self.cpu_share <= 0:
            raise SimulationError("container resources must be positive")


class ContainerState(enum.Enum):
    CREATED = "created"
    INSTANTIATING = "instantiating"
    RUNNING = "running"
    STOPPED = "stopped"
    CRASHED = "crashed"


class Container:
    """A running (or starting) instance of one middlebox.

    Slotted: an attach launches one per deployed service.
    """

    __slots__ = (
        "container_id", "middlebox", "spec", "owner", "state",
        "started_at", "packets_processed",
        "_start_epoch", "_host",
    )

    def __init__(
        self,
        middlebox: Middlebox,
        spec: ContainerSpec | None = None,
        owner: str = "",
    ) -> None:
        self.container_id = next(_container_ids)
        self.middlebox = middlebox
        self.spec = spec or ContainerSpec()
        self.owner = owner
        self.state = ContainerState.CREATED
        self.started_at: float | None = None
        self.packets_processed = 0
        self._start_epoch = 0     # invalidates stale instantiation events
        # Back-reference set by the admitting NfvHost so state
        # transitions feed its incremental capacity counters.
        self._host = None

    def _set_state(self, new_state: "ContainerState") -> None:
        """Transition to ``new_state``, notifying the hosting NfvHost.

        Every state assignment funnels through here; the host keeps its
        residual-capacity counters exact by observing each transition
        instead of rescanning its container table.
        """
        old_state = self.state
        self.state = new_state
        if self._host is not None and old_state is not new_state:
            self._host._account(self, old_state, new_state)

    @property
    def name(self) -> str:
        return f"{self.middlebox.name}#{self.container_id}"

    def start(self, sim: Simulator) -> None:
        """Begin instantiation; RUNNING after ``instantiation_time``.

        Restart after a crash is the same operation: a fresh boot at
        full instantiation cost.  A crash *during* instantiation
        invalidates the pending boot (epoch check), so the stale event
        cannot resurrect a crashed container.
        """
        if self.state not in (ContainerState.CREATED, ContainerState.STOPPED,
                              ContainerState.CRASHED):
            raise SimulationError(f"cannot start container in {self.state}")
        self._set_state(ContainerState.INSTANTIATING)
        self.started_at = sim.now
        self._start_epoch += 1
        sim.schedule(self.spec.instantiation_time, self._booted, sim,
                     self._start_epoch)

    def _booted(self, sim: Simulator, epoch: int) -> None:
        """The boot event :meth:`start` schedules: RUNNING, unless a
        crash, stop or restart has moved the epoch on since."""
        if (self._start_epoch == epoch
                and self.state is ContainerState.INSTANTIATING):
            self._set_state(ContainerState.RUNNING)

    def start_immediately(self, now: float) -> None:
        """Synchronous start for non-event-driven experiments."""
        self._set_state(ContainerState.RUNNING)
        self.started_at = now
        self._start_epoch += 1

    def stop(self) -> None:
        self._set_state(ContainerState.STOPPED)
        self._start_epoch += 1

    def crash(self, now: float) -> None:
        """Fault injection: the instance dies until restarted."""
        if self.state is ContainerState.STOPPED:
            return
        self._set_state(ContainerState.CRASHED)
        self._start_epoch += 1

    def process(self, packet: Packet, context: ProcessingContext) -> Verdict:
        """Run the packet through the middlebox, charging per-packet delay."""
        if self.state is not ContainerState.RUNNING:
            raise SimulationError(
                f"container {self.name} is {self.state.value}, not running"
            )
        self.packets_processed += 1
        return self.middlebox.process(packet, context)

    # -- checkpoint/restore ------------------------------------------------

    def checkpoint(self, now: float) -> ContainerCheckpoint:
        """Snapshot the middlebox state for migration.

        Only a live instance can be checkpointed — a crashed container
        has no consistent state to ship.
        """
        if self.state not in (ContainerState.RUNNING,
                              ContainerState.INSTANTIATING):
            raise SimulationError(
                f"cannot checkpoint container {self.name} in "
                f"{self.state.value}"
            )
        return ContainerCheckpoint.capture(self, now)

    def restore(self, checkpoint: ContainerCheckpoint) -> None:
        """Load a checkpoint into this container's middlebox."""
        if self.state in (ContainerState.STOPPED, ContainerState.CRASHED):
            raise SimulationError(
                f"cannot restore into container {self.name} in "
                f"{self.state.value}"
            )
        if checkpoint.service != self.middlebox.service:
            raise SimulationError(
                f"checkpoint of {checkpoint.service!r} does not fit "
                f"container running {self.middlebox.service!r}"
            )
        self.middlebox.import_state(checkpoint.state)
