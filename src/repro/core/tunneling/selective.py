"""Selective redirection (Fig. 1(c), §4).

"PVNs can provide flexible tunneling options, e.g., to selectively
tunnel traffic needing TLS interception to trusted cloud-based VMs,
without tunneling all of a device's traffic."

A :class:`SelectiveRedirector` holds an ordered list of
(predicate, endpoint) rules.  Packets matching a rule are redirected to
that endpoint; everything else stays on the in-network fast path.  The
E2/ablation benches compare this against full tunneling: the mean
latency penalty scales with the *fraction* of traffic that actually
needs the trusted environment, not with all of it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.errors import TunnelError
from repro.netsim.packet import Packet

Predicate = Callable[[Packet], bool]


@dataclasses.dataclass(frozen=True)
class RedirectRule:
    """One selective-redirection rule."""

    name: str
    predicate: Predicate
    endpoint: str


def needs_tls_interception(packet: Packet) -> bool:
    """The canonical Fig. 1(c) predicate: HTTPS flows whose policy
    requires payload inspection."""
    return (
        packet.dst_port == 443
        and bool(packet.metadata.get("needs_inspection"))
    )


def is_sensitive_destination(sensitive_cidrs: list[str]) -> Predicate:
    """Factory: redirect traffic to user-designated sensitive prefixes."""
    from repro.netproto.addresses import ip_in_subnet

    def predicate(packet: Packet) -> bool:
        return any(ip_in_subnet(packet.dst, cidr) for cidr in sensitive_cidrs)

    return predicate


class SelectiveRedirector:
    """Ordered-rule packet redirection with traffic accounting."""

    def __init__(self, rules: list[RedirectRule]) -> None:
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise TunnelError("redirect rule names must be unique")
        self.rules = list(rules)
        self.redirected = 0
        self.kept_local = 0

    def route(self, packet: Packet) -> str | None:
        """The tunnel endpoint for ``packet``, or None for the local path."""
        for rule in self.rules:
            if rule.predicate(packet):
                self.redirected += 1
                packet.metadata["redirected_via"] = rule.name
                return rule.endpoint
        self.kept_local += 1
        return None

    @property
    def redirect_fraction(self) -> float:
        total = self.redirected + self.kept_local
        return self.redirected / total if total else 0.0
