"""Fault-event vocabulary.

A :class:`FaultEvent` is one scheduled misbehaviour of the access
network: a link going down or up, a burst of packet loss, a middlebox
container crashing, an NFV host dying, a provider going silent on
discovery, or discovery messages being swallowed by the network.
Events are plain frozen dataclasses so fault plans compare, hash, and
render deterministically — the chaos regression tests rely on
``FaultEvent`` equality and on :func:`render_event` producing the same
byte string for the same seed.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import re

from repro.errors import ConfigurationError


class FaultKind(enum.Enum):
    """What kind of misbehaviour an event injects."""

    LINK_DOWN = "link_down"
    LINK_UP = "link_up"
    LINK_LOSS = "link_loss"              # burst loss; auto-restores
    MIDDLEBOX_CRASH = "middlebox_crash"
    HOST_DOWN = "host_down"
    HOST_UP = "host_up"
    PROVIDER_SILENCE = "provider_silence"
    DM_DROP = "dm_drop"
    # Migration-window faults: armed on the provider's migration
    # coordinator and consumed by the next transaction that reaches
    # the matching two-phase-commit window.
    MIGRATION_TARGET_CRASH = "migration_target_crash"     # during PREPARE
    MIGRATION_TRANSFER_LOSS = "migration_transfer_loss"   # checkpoint lost
    MIGRATION_COMMIT_SILENCE = "migration_commit_silence"  # during COMMIT
    # Host-level chaos: HOST_CRASH is abrupt death with container and
    # reservation loss (vs the HOST_DOWN/HOST_UP planned-outage pair);
    # NETWORK_PARTITION cuts a host off from the control plane without
    # killing it; HEARTBEAT_LOSS drops health beats so a live host
    # merely *looks* slow to the failure detector.
    HOST_CRASH = "host_crash"
    NETWORK_PARTITION = "network_partition"
    HEARTBEAT_LOSS = "heartbeat_loss"


#: Kinds whose target names a link (two endpoint nodes).
LINK_KINDS = frozenset(
    {FaultKind.LINK_DOWN, FaultKind.LINK_UP, FaultKind.LINK_LOSS}
)

#: Kinds whose target names exactly one NFV host.
HOST_KINDS = frozenset({
    FaultKind.HOST_DOWN, FaultKind.HOST_UP, FaultKind.HOST_CRASH,
    FaultKind.HEARTBEAT_LOSS,
})


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Parameters
    ----------
    time:
        Absolute simulation time at which the fault fires.
    kind:
        The :class:`FaultKind`.
    target:
        Kind-dependent names: ``(a, b)`` link endpoints, a service
        name (or ``"*"``) for crashes, a host name, or empty.
    params:
        Sorted ``(name, value)`` numeric parameters — ``duration`` for
        loss bursts and silences, ``rate`` for loss bursts, ``count``
        for DM drops.

    Construction rejects, with :class:`ConfigurationError`, what the
    injector could only fail on mid-simulation: a negative or
    non-finite time or param, a link fault without two endpoints, a
    host fault without exactly one host name (``"*"`` is no host), a
    fractional ``count`` and a ``rate`` of 1 or more.
    """

    time: float
    kind: FaultKind
    target: tuple[str, ...] = ()
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.time < math.inf:
            raise ConfigurationError(
                f"fault time must be finite and >= 0, got {self.time}")
        if self.kind in LINK_KINDS and len(self.target) != 2:
            raise ConfigurationError(
                f"{self.kind.value} needs two link endpoints, got {self.target}"
            )
        if self.kind in HOST_KINDS and (len(self.target) != 1
                                        or self.target[0] == "*"):
            raise ConfigurationError(
                f"{self.kind.value} needs exactly one host name, "
                f"got {self.target}"
            )
        for name, value in self.params:
            if not 0 <= value < math.inf:
                raise ConfigurationError(
                    f"{self.kind.value} {name} must be finite and >= 0, "
                    f"got {value}")
            if name == "count" and value != int(value):
                raise ConfigurationError(
                    f"{self.kind.value} count must be whole, got {value}")
            if name == "rate" and value >= 1:
                raise ConfigurationError(
                    f"{self.kind.value} rate must be below 1, got {value}")

    def param(self, name: str, default: float = 0.0) -> float:
        for key, value in self.params:
            if key == name:
                return value
        return default

    @property
    def sort_key(self) -> tuple:
        return (self.time, self.kind.value, self.target, self.params)


def make_event(
    time: float, kind: FaultKind, *target: str, **params: float
) -> FaultEvent:
    """Convenience constructor with canonically sorted params."""
    return FaultEvent(
        time=float(time), kind=kind, target=tuple(target),
        params=tuple(sorted((k, float(v)) for k, v in params.items())),
    )


@dataclasses.dataclass(frozen=True)
class AppliedFault:
    """The injector's record of one fault it actually applied."""

    time: float
    kind: FaultKind
    target: tuple[str, ...]
    detail: str
    deployment_ids: tuple[str, ...] = ()   # deployments the fault touched


def render_event(event: FaultEvent | AppliedFault) -> str:
    """A stable one-line rendering (one line of the applied-fault trace)."""
    if isinstance(event, AppliedFault):
        return (f"{event.time:.6f} {event.kind.value} "
                f"{'/'.join(event.target)} :: {event.detail}")
    params = " ".join(f"{k}={v:g}" for k, v in event.params)
    return (f"{event.time:.6f} {event.kind.value} "
            f"{'/'.join(event.target)} {params}").rstrip()


def normalise_ids(text: str) -> str:
    """Alias deployment counters by first appearance.

    Deployment ids embed a process-global counter (``alice/pvn7``), so
    two executions inside one process name the same logical deployment
    differently.  Rewriting each distinct ``pvn<N>`` to ``pvn#<k>`` in
    first-seen order makes traces from separate runs byte-comparable.
    """
    mapping: dict[str, str] = {}

    def repl(match: re.Match) -> str:
        token = match.group(0)
        if token not in mapping:
            mapping[token] = f"pvn#{len(mapping) + 1}"
        return mapping[token]

    return re.sub(r"pvn\d+", repl, text)
