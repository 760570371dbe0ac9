"""Match fields for flow rules, and wildcard masks over them.

A :class:`Match` is a conjunction of optional predicates over the
packet five-tuple plus the PVN ``owner`` tag.  ``owner`` is how
per-user isolation is expressed in the data plane: the compiler tags
every rule of a user's PVN with that user, so a rule can never capture
another subscriber's traffic (§3.3 "Avoiding harm from user
configurations").

Unset fields are wildcards.  IP fields accept CIDR prefixes.

A :class:`MatchMask` is the dual object the megaflow layer needs: it
records *which* fields (and, for IP fields, how many prefix bits) a
classification decision actually examined.  Two packets that agree on
every masked field are guaranteed to classify identically, so the mask
plus the masked key (:meth:`MatchMask.key_for`) is a sound wildcard
cache entry (see :mod:`repro.sdn.flowcache`).
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

from repro.netproto.addresses import ip_in_subnet, ip_to_int
from repro.netsim.packet import Packet


def _prefix_len(cidr: str) -> int:
    return int(cidr.split("/")[1]) if "/" in cidr else 32


def _mask_ip(ip: str, prefix_len: int) -> int:
    """The first ``prefix_len`` bits of ``ip`` as an integer."""
    if prefix_len <= 0:
        return 0
    mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF
    return ip_to_int(ip) & mask


#: The exact (non-prefix) match fields, in the order both
#: :meth:`Match.matches` tests them and :class:`MatchMask` declares them.
EXACT_FIELDS = ("protocol", "src_port", "dst_port", "owner")


class MatchMask(NamedTuple):
    """Which classification fields a decision depended on.

    IP fields carry a prefix length (0 = fully wildcarded); exact
    fields are boolean (examined or not).  The megaflow derivation
    joins the contribution of every rule ordered before the winner
    with the winner's own, yielding the *minimal* set of bits that
    pins the classification's outcome.

    A tuple, so hashing and equality run in C: a megaflow lookup
    hashes the mask it probes under, several times per packet.
    """

    src_plen: int = 0
    dst_plen: int = 0
    protocol: bool = False
    src_port: bool = False
    dst_port: bool = False
    owner: bool = False

    def key_for(self, packet: Packet) -> tuple:
        """``packet`` projected onto this mask's fields.

        Unexamined fields collapse to fixed sentinels so every packet
        agreeing on the examined bits produces the same key.
        """
        return (
            _mask_ip(packet.src, self.src_plen) if self.src_plen else 0,
            _mask_ip(packet.dst, self.dst_plen) if self.dst_plen else 0,
            packet.protocol if self.protocol else "",
            packet.src_port if self.src_port else -1,
            packet.dst_port if self.dst_port else -1,
            packet.owner if self.owner else "",
        )


#: The fully wildcarded mask (examines nothing; one key for all packets).
EMPTY_MASK = MatchMask()


@dataclasses.dataclass(frozen=True)
class Match:
    """A conjunction of optional packet predicates."""

    src_cidr: str | None = None
    dst_cidr: str | None = None
    protocol: str | None = None
    src_port: int | None = None
    dst_port: int | None = None
    owner: str | None = None

    def matches(self, packet: Packet) -> bool:
        """True iff every set predicate holds for ``packet``."""
        if self.protocol is not None and packet.protocol != self.protocol:
            return False
        if self.src_port is not None and packet.src_port != self.src_port:
            return False
        if self.dst_port is not None and packet.dst_port != self.dst_port:
            return False
        if self.owner is not None and packet.owner != self.owner:
            return False
        if self.src_cidr is not None and not ip_in_subnet(packet.src, self.src_cidr):
            return False
        if self.dst_cidr is not None and not ip_in_subnet(packet.dst, self.dst_cidr):
            return False
        return True

    def mask(self) -> MatchMask:
        """The mask of every field this match examines.

        A packet that *matches* this rule was compared against every
        set predicate, so the megaflow for it must pin all of them.
        """
        return MatchMask(
            src_plen=_prefix_len(self.src_cidr) if self.src_cidr else 0,
            dst_plen=_prefix_len(self.dst_cidr) if self.dst_cidr else 0,
            protocol=self.protocol is not None,
            src_port=self.src_port is not None,
            dst_port=self.dst_port is not None,
            owner=self.owner is not None,
        )

    def specificity(self) -> int:
        """How many bits of packet this match constrains (for conflicts).

        IP prefixes contribute their prefix length; exact fields
        contribute fixed weights.  Higher = more specific.
        """
        score = 0
        for cidr in (self.src_cidr, self.dst_cidr):
            if cidr is not None:
                score += int(cidr.split("/")[1]) if "/" in cidr else 32
        if self.protocol is not None:
            score += 8
        for port in (self.src_port, self.dst_port):
            if port is not None:
                score += 16
        if self.owner is not None:
            score += 16
        return score


#: The lowest-priority catch-all used for table-miss handling.
MATCH_ANY = Match()
