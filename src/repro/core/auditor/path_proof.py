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

#: Metadata key under which proofs accumulate on a packet.
PROOF_KEY = "path_proof"


def _mac(key: bytes, payload: bytes) -> bytes:
    return _hmac_digest(key, payload, "sha256")[:16]


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


def stamp_keyed(packet: Packet, waypoint: str, key: bytes) -> None:
    """Called by the data path as the packet traverses ``waypoint``,
    with the hop's proof key resolved when it was compiled
    (``key == keyring.key_for(waypoint)``)."""
    proofs: list[tuple[str, bytes]] = packet.metadata.setdefault(PROOF_KEY, [])
    previous = proofs[-1][1] if proofs else b""
    # ``_mac`` in line: this runs once per hop of every packet.
    proofs.append((waypoint, _hmac_digest(
        key, str(packet.packet_id).encode() + previous, "sha256")[:16]))


def verify_path(packet: Packet, keyring: ProofKeyring,
                required_waypoints: list[str]) -> None:
    """Raise :class:`AuditError` unless the packet's proof chain shows
    an honest traversal of ``required_waypoints`` in order."""
    proofs: list[tuple[str, bytes]] = packet.metadata.get(PROOF_KEY, [])
    visited = [name for name, _ in proofs]
    if visited != list(required_waypoints):
        raise AuditError(
            f"packet {packet.packet_id} visited {visited}, "
            f"required {list(required_waypoints)}"
        )
    previous = b""
    for waypoint, mac in proofs:
        expected = _mac(
            keyring.key_for(waypoint),
            str(packet.packet_id).encode() + previous,
        )
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
