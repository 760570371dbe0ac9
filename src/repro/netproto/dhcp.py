"""DHCP with a PVN-discovery option.

§3.1 of the paper suggests PVN discovery "could be done during DHCP
negotiation", and that a successful PVN deployment "triggers a DHCP
refresh to obtain the new addresses".  This module models both: the
four-message DORA exchange, an option namespace carrying the PVN
deployment-server pointer, and lease refresh that can hand the client a
new address inside its freshly deployed virtual network.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.errors import ProtocolError
from repro.netproto.addresses import SubnetAllocator

#: DHCP option key used to advertise PVN support (a made-up option
#: number in the site-specific range, as the paper's deployment would).
OPTION_PVN_SERVER = "option_224_pvn_server"

_transaction_ids = itertools.count(1)


@dataclasses.dataclass(frozen=True)
class DhcpMessage:
    """One DHCP message (DISCOVER/OFFER/REQUEST/ACK/NAK)."""

    kind: str
    transaction_id: int
    client_mac: str
    your_ip: str = ""
    server_id: str = ""
    options: tuple[tuple[str, str], ...] = ()

    def option(self, key: str) -> str:
        """The option's value, or ``""`` when the message lacks it."""
        for name, value in self.options:
            if name == key:
                return value
        return ""


@dataclasses.dataclass
class Lease:
    """An active address lease."""

    client_mac: str
    ip: str
    expires_at: float


class DhcpServer:
    """The access network's DHCP server.

    Parameters
    ----------
    subnet:
        CIDR block to allocate client addresses from.
    pvn_server:
        Location (name/address) of the PVN deployment server to
        advertise, or empty when the network does not support PVNs.
    lease_time:
        Lease lifetime in seconds.
    """

    def __init__(
        self,
        subnet: str,
        pvn_server: str = "",
    ) -> None:
        self._allocator = SubnetAllocator(subnet)
        self.pvn_server = pvn_server
        self.lease_time = 3600.0
        self.leases: dict[str, Lease] = {}
        self._pvn_allocators: dict[str, SubnetAllocator] = {}

    def _options(self) -> tuple[tuple[str, str], ...]:
        if self.pvn_server:
            return ((OPTION_PVN_SERVER, self.pvn_server),)
        return ()

    def handle_discover(self, message: DhcpMessage, now: float) -> DhcpMessage:
        if message.kind != "DISCOVER":
            raise ProtocolError(f"expected DISCOVER, got {message.kind}")
        existing = self.leases.get(message.client_mac)
        ip = existing.ip if existing else self._allocator.allocate()
        return DhcpMessage(
            kind="OFFER",
            transaction_id=message.transaction_id,
            client_mac=message.client_mac,
            your_ip=ip,
            server_id="dhcp",
            options=self._options(),
        )

    def handle_request(self, message: DhcpMessage, now: float) -> DhcpMessage:
        if message.kind != "REQUEST":
            raise ProtocolError(f"expected REQUEST, got {message.kind}")
        if not message.your_ip:
            return DhcpMessage(
                kind="NAK",
                transaction_id=message.transaction_id,
                client_mac=message.client_mac,
                server_id="dhcp",
            )
        self.leases[message.client_mac] = Lease(
            client_mac=message.client_mac,
            ip=message.your_ip,
            expires_at=now + self.lease_time,
        )
        return DhcpMessage(
            kind="ACK",
            transaction_id=message.transaction_id,
            client_mac=message.client_mac,
            your_ip=message.your_ip,
            server_id="dhcp",
            options=self._options(),
        )

    def register_pvn_subnet(self, deployment_id: str, subnet: str) -> None:
        """Reserve an address block for a deployed PVN (manager calls this)."""
        self._pvn_allocators[deployment_id] = SubnetAllocator(subnet)

    def refresh_into_pvn(
        self, client_mac: str, deployment_id: str, now: float
    ) -> Lease:
        """The post-deployment DHCP refresh from §3.1.

        Moves the client's lease onto an address inside its PVN's
        address block.
        """
        if deployment_id not in self._pvn_allocators:
            raise ProtocolError(f"unknown PVN deployment {deployment_id!r}")
        if client_mac not in self.leases:
            raise ProtocolError(f"no lease for {client_mac!r} to refresh")
        ip = self._pvn_allocators[deployment_id].allocate()
        lease = Lease(
            client_mac=client_mac,
            ip=ip,
            expires_at=now + self.lease_time,
        )
        self.leases[client_mac] = lease
        return lease


class DhcpClient:
    """A device-side DHCP state machine."""

    def __init__(self, mac: str) -> None:
        self.mac = mac
        self.ip = ""
        self.pvn_server = ""
        self.acked = False

    def discover(self) -> DhcpMessage:
        return DhcpMessage(
            kind="DISCOVER",
            transaction_id=next(_transaction_ids),
            client_mac=self.mac,
        )

    def request_from_offer(self, offer: DhcpMessage) -> DhcpMessage:
        if offer.kind != "OFFER":
            raise ProtocolError(f"expected OFFER, got {offer.kind}")
        return DhcpMessage(
            kind="REQUEST",
            transaction_id=offer.transaction_id,
            client_mac=self.mac,
            your_ip=offer.your_ip,
            server_id=offer.server_id,
        )

    def absorb_ack(self, ack: DhcpMessage) -> None:
        if ack.kind == "NAK":
            self.acked = False
            return
        if ack.kind != "ACK":
            raise ProtocolError(f"expected ACK, got {ack.kind}")
        self.ip = ack.your_ip
        self.pvn_server = ack.option(OPTION_PVN_SERVER)
        self.acked = True

    def run_exchange(self, server: DhcpServer, now: float) -> bool:
        """Run the full DORA exchange; returns True on ACK."""
        offer = server.handle_discover(self.discover(), now)
        ack = server.handle_request(self.request_from_offer(offer), now)
        self.absorb_ack(ack)
        return self.acked

    @property
    def network_supports_pvn(self) -> bool:
        return bool(self.pvn_server)
