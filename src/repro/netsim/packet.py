"""Simulated packets.

A :class:`Packet` is a five-tuple plus a stack of protocol payloads
(objects from :mod:`repro.netproto`) and bookkeeping: creation and
delivery times and a drop mark.  A packet keeps no record of the nodes
it traverses; each middlebox waypoint stamps a keyed MAC into
``metadata`` instead (:mod:`repro.core.auditor.path_proof`), and the
links count what they carry (``Link.stats``).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any

_packet_ids = itertools.count(1)


@dataclasses.dataclass(slots=True)
class Packet:
    """One simulated packet (or packet-train for flow-level models).

    Slotted: packets are allocated per event in replay loops, and the
    fixed layout removes the per-instance ``__dict__`` (see the
    allocation guard in ``benchmarks/test_bench_micro.py``).

    Attributes
    ----------
    src, dst:
        IPv4 addresses as dotted strings.
    protocol:
        Transport protocol name: ``"tcp"``, ``"udp"``, or ``"icmp"``.
    src_port, dst_port:
        Transport ports (0 for ICMP).
    size:
        Total size in bytes, headers included.
    payload:
        Optional application-layer object (HTTP message, DNS message,
        TLS record, raw bytes...).  Middleboxes inspect and may rewrite
        this.
    flow_id:
        Stable identifier shared by packets of the same flow.
    owner:
        Identifier of the subscriber/device whose traffic this is; PVN
        isolation is enforced and audited on this field.
    metadata:
        Free-form annotations (middlebox verdicts, classifier labels,
        tunnel markers).  Never used for forwarding decisions by the
        data plane itself.
    """

    src: str
    dst: str
    protocol: str = "tcp"
    src_port: int = 0
    dst_port: int = 0
    size: int = 1500
    payload: Any = None
    flow_id: int = 0
    owner: str = ""
    packet_id: int = dataclasses.field(default_factory=lambda: next(_packet_ids))
    created_at: float = 0.0
    delivered_at: float | None = None
    dropped: bool = False
    drop_reason: str = ""
    metadata: dict[str, Any] = dataclasses.field(default_factory=dict)

    def five_tuple(self) -> tuple[str, str, str, int, int]:
        """The (src, dst, protocol, src_port, dst_port) key."""
        return (self.src, self.dst, self.protocol, self.src_port, self.dst_port)

    def flow_key(self) -> tuple[str, str, str, int, int, str]:
        """The exact-match microflow key: five-tuple plus ``owner``.

        ``owner`` is part of the key because flow rules match on it
        (per-user isolation), so two packets identical in the five-tuple
        but owned by different subscribers can win different rules.
        """
        return (self.src, self.dst, self.protocol,
                self.src_port, self.dst_port, self.owner)

    def mark_dropped(self, reason: str) -> None:
        """Mark the packet dropped with a reason for traces and audits."""
        self.dropped = True
        self.drop_reason = reason

    def reply_template(self, size: int | None = None) -> "Packet":
        """A new packet going the opposite direction on the same flow."""
        return Packet(
            src=self.dst,
            dst=self.src,
            protocol=self.protocol,
            src_port=self.dst_port,
            dst_port=self.src_port,
            size=self.size if size is None else size,
            flow_id=self.flow_id,
            owner=self.owner,
        )

