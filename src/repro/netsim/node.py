"""Simulation nodes: link attachment points and hosts.

The class hierarchy is deliberately small:

* :class:`Node` — attachment points for links, hop recording.
* :class:`Host` — an endpoint with an IPv4 address; delivers packets to
  registered application handlers and can originate traffic.

SDN switches live in :mod:`repro.sdn.switch` and subclass :class:`Node`
too; every subclass defines its own ``receive``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError
from repro.netsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.link import Link
    from repro.netsim.simulator import Simulator

PacketHandler = Callable[[Packet], None]


class Node:
    """A named attachment point in the simulated network."""

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self.links: dict[str, "Link"] = {}

    def attach_link(self, link: "Link") -> None:
        """Register a link whose far end is another node (Link calls this)."""
        peer = link.a if link.b is self else link.b
        self.links[peer.name] = link

    def link_to(self, peer_name: str) -> "Link":
        """The link toward a directly connected peer."""
        try:
            return self.links[peer_name]
        except KeyError:
            raise ConfigurationError(
                f"{self.name} has no link to {peer_name}; "
                f"neighbors: {sorted(self.links)}"
            ) from None

    def send(self, packet: Packet, via: str) -> None:
        """Transmit ``packet`` over the link to neighbor ``via``."""
        link = self.links.get(via)
        if link is None:
            link = self.link_to(via)        # raises the typed error
        link.transmit(packet, self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


class Host(Node):
    """An endpoint with an address, app handlers, and delivery records."""

    def __init__(self, sim: "Simulator", name: str, ip: str) -> None:
        super().__init__(sim, name)
        self.ip = ip
        self.delivered: list[Packet] = []
        self._handlers: dict[int, PacketHandler] = {}
        self._default_handler: PacketHandler | None = None

    def bind(self, port: int, handler: PacketHandler) -> None:
        """Deliver packets addressed to ``port`` to ``handler``."""
        self._handlers[port] = handler

    def bind_default(self, handler: PacketHandler) -> None:
        """Handler for packets with no port-specific binding."""
        self._default_handler = handler

    def receive(self, packet: Packet, link: "Link") -> None:
        packet.delivered_at = self.sim._now
        self.delivered.append(packet)
        handler = self._handlers.get(packet.dst_port, self._default_handler)
        if handler is not None:
            handler(packet)

    def originate(self, packet: Packet, via: str) -> None:
        """Stamp creation time and transmit toward ``via``."""
        packet.created_at = self.sim._now
        self.send(packet, via)
