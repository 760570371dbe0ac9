"""Full-tunnel VPN baseline (§2, §3.2).

"There are tunneling overheads in terms of additional interdomain
traffic and its associated latency; e.g., 10s of ms for well connected
networks, but potentially 100s of ms for poorly connected networks.
Second, the tunneled traffic may be subject to policies (e.g.,
shaping) that do not apply to untunneled traffic.  Last, port blocking
and service unavailability can also impact the effectiveness of such
solutions."

:class:`FullTunnel` models all three costs so the E2 experiment can
compare in-network PVNs against tunneling to cloud/home deployments.
"""

from __future__ import annotations

import dataclasses

from repro.errors import TunnelError
from repro.netsim.tcp import PathCharacteristics
from repro.netsim.topology import PhysicalTopology

#: IPsec-ish per-packet encapsulation overhead.
ENCAP_OVERHEAD_BYTES = 73


@dataclasses.dataclass(frozen=True)
class EncapSpec:
    """One calibrated encapsulation variant (cipher x compression).

    ``overhead_bytes`` is per-packet wire overhead from protocol
    arithmetic (outer IP/UDP plus the cipher's framing: IV/nonce,
    auth tag or HMAC, packet counter, CBC padding where applicable).
    CPU costs split the way VPN profiles do: ``cpu_us_per_packet``
    is the size-independent cost (tun read/write, context switch,
    framing) and ``cpu_us_per_kib`` the cipher+auth throughput term.
    ``compression_ratio`` is the expected payload multiplier on mixed
    traffic (1.0 = off; modern flows are mostly already-compressed,
    so even LZO only shaves ~10%).  Constants are documented estimates
    — protocol maths plus published OpenSSL ``speed`` / single-core
    OpenVPN throughput figures — see DESIGN.md §13 for provenance.
    """

    name: str
    overhead_bytes: int
    cpu_us_per_packet: float = 0.0
    cpu_us_per_kib: float = 0.0
    compression_ratio: float = 1.0

    def wire_bytes(self, payload_bytes: int) -> float:
        """On-the-wire size of one encapsulated payload."""
        return payload_bytes * self.compression_ratio + self.overhead_bytes

    def cpu_seconds(self, payload_bytes: int) -> float:
        """Single-core CPU time to encapsulate one payload."""
        return (self.cpu_us_per_packet
                + self.cpu_us_per_kib * (payload_bytes / 1024.0)) * 1e-6

    def crypto_bps(self) -> float:
        """Payload throughput one encap core sustains at 1500-byte
        packets (the CPU-side bandwidth cap on tunneled traffic)."""
        seconds = self.cpu_seconds(1500)
        if seconds <= 0.0:
            return float("inf")
        return 1500 * 8.0 / seconds

    def goodput_fraction(self) -> float:
        """Payload fraction of wire bytes at 1500-byte packets."""
        payload = 1500 - self.overhead_bytes
        return payload / self.wire_bytes(payload)


#: Legacy-constant variant: ESP-style AES-128-CBC + HMAC-SHA1 framing
#: (the seed's 73-byte overhead), modest AES-NI-era CPU cost.  The
#: default so existing cost models are unchanged.
ESP_AES_CBC_SHA1 = EncapSpec(
    name="esp-aes-cbc-sha1", overhead_bytes=ENCAP_OVERHEAD_BYTES,
    cpu_us_per_packet=20.0, cpu_us_per_kib=1.3,
)

#: Calibrated cipher/compression menu (OpenVPN UDP data-channel
#: framing: outer IP 20 + UDP 8 + opcode/peer-id 4 = 32 bytes before
#: the cipher's contribution).  See DESIGN.md §13 for the arithmetic
#: and the published figures behind each CPU constant.
ENCAP_VARIANTS: dict[str, EncapSpec] = {
    spec.name: spec
    for spec in (
        ESP_AES_CBC_SHA1,
        # 32 + packet-id 4 + GCM tag 16 = 52
        EncapSpec("aes-128-gcm", 52, 15.0, 0.40),
        EncapSpec("aes-256-gcm", 52, 15.0, 0.55),
        # Same AEAD framing; no AES-NI advantage
        EncapSpec("chacha20-poly1305", 52, 15.0, 0.70),
        # 32 + IV 8 + HMAC-SHA1 20 + packet-id 4 + ~4 CBC padding = 68;
        # Blowfish is dog-slow per byte (no hardware support)
        EncapSpec("bf-cbc-sha1", 68, 20.0, 15.0),
        # AEAD + LZO: ~2.5 us/KiB compressor, ~10% shave on mixed
        # traffic, +1 framing byte
        EncapSpec("aes-128-gcm-lzo", 53, 17.0, 2.90,
                  compression_ratio=0.9),
        # Framing only (--cipher none): the floor any variant pays
        EncapSpec("null", 36, 12.0, 0.0),
    )
}

#: Backwards-compatible default for every existing call site.
DEFAULT_ENCAP = ESP_AES_CBC_SHA1


@dataclasses.dataclass(frozen=True)
class TunnelCosts:
    """The §3.2 cost model for one tunnel."""

    added_rtt: float                 # detour latency, round trip
    shaped_to_bps: float = 0.0       # 0 = no shaping of tunneled traffic
    port_blocked: bool = False       # VPN port blocked on this network
    cpu_us_per_packet: float = 0.0   # single-core encap cost at MTU


class FullTunnel:
    """A device-to-remote-network tunnel over a physical topology."""

    def __init__(
        self,
        topo: PhysicalTopology,
        device_node: str,
        endpoint_node: str,
        shaped_to_bps: float = 0.0,
        port_blocked: bool = False,
        encap: EncapSpec | str = DEFAULT_ENCAP,
    ) -> None:
        for node in (device_node, endpoint_node):
            if not topo.has_node(node):
                raise TunnelError(f"unknown topology node {node!r}")
        self.topo = topo
        self.device_node = device_node
        self.endpoint_node = endpoint_node
        self.gateway_node = "gw"
        self.shaped_to_bps = shaped_to_bps
        self.port_blocked = port_blocked
        if isinstance(encap, str):
            try:
                encap = ENCAP_VARIANTS[encap]
            except KeyError:
                raise TunnelError(
                    f"unknown encap variant {encap!r} "
                    f"(have {sorted(ENCAP_VARIANTS)})"
                ) from None
        self.encap = encap

    def costs(self) -> TunnelCosts:
        """Detour RTT vs the direct device->gateway path, plus the
        encap variant's per-packet size and CPU costs."""
        direct = self.topo.rtt(self.device_node, self.gateway_node)
        via = (
            self.topo.rtt(self.device_node, self.endpoint_node)
            + self.topo.rtt(self.endpoint_node, self.gateway_node)
        )
        return TunnelCosts(
            added_rtt=max(0.0, via - direct),
            shaped_to_bps=self.shaped_to_bps,
            port_blocked=self.port_blocked,
            cpu_us_per_packet=self.encap.cpu_seconds(1500) * 1e6,
        )

    def effective_path(
        self, destination_node: str, loss_rate: float = 0.0
    ) -> PathCharacteristics:
        """The path the device actually experiences to ``destination``
        when all traffic hairpins through the tunnel endpoint."""
        if self.port_blocked:
            raise TunnelError(
                f"tunnel to {self.endpoint_node} blocked by the access "
                "network (VPN port filtered)"
            )
        rtt = (
            self.topo.rtt(self.device_node, self.endpoint_node)
            + self.topo.rtt(self.endpoint_node, destination_node)
        )
        leg1 = self.topo.shortest_path(self.device_node, self.endpoint_node)
        leg2 = self.topo.shortest_path(self.endpoint_node, destination_node)
        bandwidth = min(
            self.topo.path_bottleneck_bps(leg1),
            self.topo.path_bottleneck_bps(leg2),
        )
        if self.shaped_to_bps > 0:
            bandwidth = min(bandwidth, self.shaped_to_bps)
        # A single encap core also caps tunneled throughput: at MTU-
        # sized packets the cipher's per-packet + per-byte CPU cost
        # bounds packets/sec regardless of link capacity.
        bandwidth = min(bandwidth, self.encap.crypto_bps())
        path_loss = 1.0 - (
            (1.0 - self.topo.path_loss_rate(leg1))
            * (1.0 - self.topo.path_loss_rate(leg2))
            * (1.0 - loss_rate)
        )
        return PathCharacteristics(
            rtt=rtt, loss_rate=path_loss, bandwidth_bps=bandwidth
        )


def direct_path(
    topo: PhysicalTopology,
    device_node: str,
    destination_node: str,
    loss_rate: float = 0.0,
) -> PathCharacteristics:
    """The untunneled baseline path for the same topology."""
    route = topo.shortest_path(device_node, destination_node)
    return PathCharacteristics(
        rtt=topo.rtt(device_node, destination_node),
        loss_rate=1.0 - (1.0 - topo.path_loss_rate(route)) * (1.0 - loss_rate),
        bandwidth_bps=topo.path_bottleneck_bps(route),
    )
