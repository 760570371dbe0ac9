"""Packet routing proofs (§3.1 "Auditor").

"The device will need to obtain proofs that packets sent to the PVN
were actually routed correctly through the PVN."

Each PVN waypoint (middlebox/chain element) holds a per-deployment
proof key and stamps traversing packets with a chained MAC:
``mac_i = HMAC(key_i, packet_id || mac_{i-1})``.  The device, which
receives all the keys inside the deployment ACK (over the attested
channel), recomputes the chain and checks that every required waypoint
contributed.  A provider that skips a middlebox cannot forge that
middlebox's MAC without its key.

A packet carries its proof as two atomic values, so stamping leaves no
container object behind for the collector to track:

* ``metadata[PROOF_KEY]`` — the 16-byte MACs, concatenated in hop
  order, as one ``bytes``;
* ``metadata[HOPS_KEY]`` — the waypoint names joined by
  :data:`HOP_SEPARATOR`, as one ``str``.  A :class:`ProofStamp` maps
  each previous hop string to its extension once, so every packet on
  one path shares one string object.

:func:`proof_chain` gives the ``[(waypoint, mac), ...]`` view.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac

from repro.errors import AuditError
from repro.netsim.packet import Packet

try:
    # The C function ``hmac.digest`` dispatches to: one call, no Python
    # frame.  Same bytes as ``hmac.new(key, payload, sha256).digest()``.
    from _hashlib import hmac_digest as _hmac_digest
except ImportError:  # pragma: no cover - Python built without OpenSSL
    _hmac_digest = hmac.digest

#: Metadata key of the concatenated MACs (``bytes``).
PROOF_KEY = "path_proof"
#: Metadata key of the joined waypoint names (``str``).
HOPS_KEY = "path_proof_hops"
#: Joins waypoint names under :data:`HOPS_KEY`; no name may contain it.
HOP_SEPARATOR = ","
#: Bytes of one hop's MAC (a truncated HMAC-SHA256).
MAC_BYTES = 16

#: SHA-256 block size, and the RFC 2104 pads as translation tables.
_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


def key_schedule(key: bytes):
    """The RFC 2104 inner and outer SHA-256 states of ``key``.

    One-shot HMAC calls pay this key setup on every message; a
    :class:`ProofStamp` computes it once, when its hop is compiled, and
    copies the states per packet.
    """
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK, b"\0")
    return (hashlib.sha256(key.translate(_IPAD)),
            hashlib.sha256(key.translate(_OPAD)))


@dataclasses.dataclass(frozen=True)
class ProofKeyring:
    """Per-deployment waypoint keys, shared with the device at deploy."""

    deployment_id: str
    keys: tuple[tuple[str, bytes], ...]    # (waypoint name, key), in order

    def key_for(self, waypoint: str) -> bytes:
        for name, key in self.keys:
            if name == waypoint:
                return key
        raise AuditError(f"no proof key for waypoint {waypoint!r}")


def make_keyring(deployment_id: str, waypoints: list[str]) -> ProofKeyring:
    """Derive independent waypoint keys from the deployment id."""
    for waypoint in waypoints:
        if HOP_SEPARATOR in waypoint:
            raise AuditError(
                f"waypoint name {waypoint!r} contains the hop separator "
                f"{HOP_SEPARATOR!r}"
            )
    keys = tuple(
        (
            waypoint,
            hashlib.sha256(
                f"proof:{deployment_id}:{waypoint}".encode()
            ).digest(),
        )
        for waypoint in waypoints
    )
    return ProofKeyring(deployment_id=deployment_id, keys=keys)


class ProofStamp:
    """The stamp one waypoint applies to each packet it handles.

    Built when the hop is compiled, from the hop's proof key
    (``key == keyring.key_for(waypoint)``): it holds the key's
    :func:`key_schedule` and a map from each previous hop string to
    that string extended by this waypoint, so packets on one path share
    one hop string.  Slotted: one object per compiled hop.
    """

    __slots__ = ("waypoint", "_inner", "_outer", "_extended")

    def __init__(self, waypoint: str, key: bytes) -> None:
        self.waypoint = waypoint
        self._inner, self._outer = key_schedule(key)
        self._extended: dict[str, str] = {}

    def __call__(self, packet: Packet) -> None:
        metadata = packet.metadata
        chain = metadata.get(PROOF_KEY, b"")
        if chain:
            previous = metadata[HOPS_KEY]
            hops = self._extended.get(previous)
            if hops is None:
                hops = self._extended[previous] = (
                    previous + HOP_SEPARATOR + self.waypoint)
        else:
            hops = self.waypoint
        # HMAC from the precomputed states: the digest of the key-padded
        # inner state over the message, under the outer state.
        inner = self._inner.copy()
        inner.update(str(packet.packet_id).encode() + chain[-MAC_BYTES:])
        outer = self._outer.copy()
        outer.update(inner.digest())
        metadata[PROOF_KEY] = chain + outer.digest()[:MAC_BYTES]
        metadata[HOPS_KEY] = hops


def proof_chain(packet: Packet) -> list[tuple[str, bytes]]:
    """The packet's proofs as ``[(waypoint, mac), ...]`` in hop order.

    The last MAC takes every byte past the ones before it, so a chain
    whose length disagrees with its hop count shows up as a MAC of the
    wrong size rather than disappearing.
    """
    metadata = packet.metadata
    hops = metadata.get(HOPS_KEY)
    if hops is None:
        return []
    chain = metadata.get(PROOF_KEY, b"")
    names = hops.split(HOP_SEPARATOR)
    last = len(names) - 1
    return [
        (name, chain[i * MAC_BYTES:None if i == last else (i + 1) * MAC_BYTES])
        for i, name in enumerate(names)
    ]


def verify_path(packet: Packet, keyring: ProofKeyring,
                required_waypoints: list[str]) -> None:
    """Raise :class:`AuditError` unless the packet's proof chain shows
    an honest traversal of ``required_waypoints`` in order."""
    proofs = proof_chain(packet)
    visited = [name for name, _ in proofs]
    if visited != list(required_waypoints):
        raise AuditError(
            f"packet {packet.packet_id} visited {visited}, "
            f"required {list(required_waypoints)}"
        )
    previous = b""
    for waypoint, mac in proofs:
        # Checked with the stock one-shot HMAC, not the stamps' own
        # key schedules.
        expected = _hmac_digest(
            keyring.key_for(waypoint),
            str(packet.packet_id).encode() + previous, "sha256",
        )[:MAC_BYTES]
        if not hmac.compare_digest(expected, mac):
            raise AuditError(
                f"forged proof at waypoint {waypoint!r} for packet "
                f"{packet.packet_id}"
            )
        previous = mac


def path_proof_ok(packet: Packet, keyring: ProofKeyring,
                  required_waypoints: list[str]) -> bool:
    """Boolean form of :func:`verify_path` for bulk audits."""
    try:
        verify_path(packet, keyring, required_waypoints)
    except AuditError:
        return False
    return True
