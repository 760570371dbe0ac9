"""The software-middlebox programming model.

A middlebox receives packets and returns a :class:`Verdict`: pass,
drop, rewrite, or redirect-to-tunnel.  This is the "limited code that
interposes on traffic" of the paper's abstract; the sandbox
(:mod:`repro.nfv.sandbox`) controls which verdict kinds a given module
may produce and whose traffic it may see.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any

from repro.netsim.packet import Packet


class VerdictKind(enum.Enum):
    """What a middlebox wants done with a packet."""

    PASS = "pass"
    DROP = "drop"
    REWRITE = "rewrite"        # packet modified in place, forward it
    TUNNEL = "tunnel"          # send via the named tunnel endpoint

    # Members are singletons that compare by identity, so the identity
    # hash agrees with ``==`` and runs in C; ``Enum.__hash__`` is a
    # Python call, paid per packet by every dict keyed by a kind
    # (middlebox stats, step labels).
    __hash__ = object.__hash__


@dataclasses.dataclass(frozen=True)
class Verdict:
    """A middlebox decision plus structured detail for traces/audits."""

    kind: VerdictKind
    reason: str = ""
    tunnel_endpoint: str = ""
    annotations: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def passed(cls, reason: str = "") -> "Verdict":
        return cls(VerdictKind.PASS, reason=reason)

    @classmethod
    def dropped(cls, reason: str) -> "Verdict":
        return cls(VerdictKind.DROP, reason=reason)

    @classmethod
    def rewritten(cls, reason: str, **annotations: Any) -> "Verdict":
        return cls(VerdictKind.REWRITE, reason=reason,
                   annotations=tuple(sorted(annotations.items())))

    @classmethod
    def tunneled(cls, endpoint: str, reason: str = "") -> "Verdict":
        return cls(VerdictKind.TUNNEL, reason=reason,
                   tunnel_endpoint=endpoint)


@dataclasses.dataclass
class ProcessingContext:
    """Environment handed to a middlebox with each packet."""

    now: float
    owner: str
    trusted_execution: bool = False   # SGX-like enclave available (§4)
    extras: dict[str, Any] = dataclasses.field(default_factory=dict)

    def reset(self, now: float, owner: str) -> "ProcessingContext":
        """Re-arm this context for another packet (pooling support).

        Pipelines reuse one context across packets instead of
        allocating per packet; everything packet-scoped (``now``,
        ``owner``, ``extras``) is wiped here so no middlebox can see
        another packet's leftovers.
        """
        self.now = now
        self.owner = owner
        if self.extras:
            self.extras.clear()
        return self


class Middlebox:
    """Base class: override :meth:`inspect`.

    Subclasses set ``service`` (the catalogue name used by placement and
    the PVN Store) and may override the resource attributes.
    """

    service = "noop"

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__
        self.stats: dict[str, int] = {
            "processed": 0, "passed": 0, "dropped": 0,
            "rewritten": 0, "tunneled": 0,
        }

    def inspect(self, packet: Packet, context: ProcessingContext) -> Verdict:
        """Decide what happens to ``packet``.  Default: pass."""
        return _PASSED

    # -- checkpoint/restore ------------------------------------------------

    def export_state(self) -> dict:
        """Serializable snapshot of this middlebox's mutable state.

        Subclasses with state beyond the verdict counters extend the
        base dict.  The contract (property-tested) is that
        ``import_state(export_state())`` on a fresh instance is an
        identity: the restored instance exports byte-identical state.
        """
        return {"stats": dict(self.stats)}

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        self.stats.update(state.get("stats", {}))

    def process(self, packet: Packet, context: ProcessingContext) -> Verdict:
        """Run :meth:`inspect` with verdict-count bookkeeping."""
        verdict = self.inspect(packet, context)
        self.stats["processed"] += 1
        self.stats[_STAT_FOR_KIND[verdict.kind]] += 1
        return verdict


#: The default verdict, built once instead of per packet.
_PASSED = Verdict.passed()

_STAT_FOR_KIND = {
    VerdictKind.PASS: "passed",
    VerdictKind.DROP: "dropped",
    VerdictKind.REWRITE: "rewritten",
    VerdictKind.TUNNEL: "tunneled",
}
