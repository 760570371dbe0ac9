"""Seamless encryption everywhere (§4 "Other applications").

The paper lists "seamless encryption everywhere" among the PVN
applications it cannot detail for space.  The mechanism: the PVN's
ingress middlebox opportunistically seals any *unencrypted* payload
under a per-deployment key before it crosses untrusted segments, and a
paired egress middlebox unseals it.  Legacy apps get transport
confidentiality without changing a line of code.

Sealing is a deterministic XOR keystream derived with SHA-256 in
counter mode — not production crypto, but it has the two properties
the experiments check: ciphertext reveals nothing matchable by an
eavesdropper, and only a holder of the key can invert it.
"""

from __future__ import annotations

import hashlib

from repro.netproto.http import HttpRequest, HttpResponse
from repro.netsim.packet import Packet
from repro.nfv.middlebox import Middlebox, ProcessingContext, Verdict

#: Metadata flag marking sealed packets.
SEALED_KEY = "sealed_by"


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < length:
        blocks.append(hashlib.sha256(
            key + nonce + counter.to_bytes(8, "big")
        ).digest())
        counter += 1
    return b"".join(blocks)[:length]


def seal(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """Encrypt ``plaintext`` (symmetric; :func:`unseal` inverts)."""
    stream = _keystream(key, nonce, len(plaintext))
    return bytes(a ^ b for a, b in zip(plaintext, stream))


def unseal(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    """Invert :func:`seal`."""
    return seal(key, nonce, ciphertext)


#: Constant verdicts, built once instead of per packet.
_ALREADY_ENCRYPTED = Verdict.passed("already encrypted")
_NOTHING_TO_SEAL = Verdict.passed("no sealable payload")
_NOT_SEALED = Verdict.passed("not sealed")


class EncryptionEverywhere(Middlebox):
    """Seals unencrypted HTTP payloads under the deployment key."""

    service = "encryptor"

    def __init__(self, key: bytes) -> None:
        super().__init__("encryptor")
        if not key:
            raise ValueError("encryptor needs a non-empty key")
        self._key = key
        self.sealed_count = 0

    def _nonce(self, packet: Packet) -> bytes:
        return packet.packet_id.to_bytes(8, "big")

    def inspect(self, packet: Packet, context: ProcessingContext) -> Verdict:
        payload = packet.payload
        if isinstance(payload, HttpRequest):
            if payload.https:
                return _ALREADY_ENCRYPTED
            payload.body = seal(self._key, self._nonce(packet), payload.body)
        elif isinstance(payload, HttpResponse):
            payload.body = seal(self._key, self._nonce(packet), payload.body)
        elif isinstance(payload, bytes):
            packet.payload = seal(self._key, self._nonce(packet), payload)
        else:
            return _NOTHING_TO_SEAL
        packet.metadata[SEALED_KEY] = self.name
        self.sealed_count += 1
        return Verdict.rewritten("payload sealed")


class DecryptionGateway(Middlebox):
    """The egress pair: unseals packets sealed by this deployment."""

    service = "decryptor"

    def __init__(self, key: bytes) -> None:
        super().__init__("decryptor")
        self._key = key

    def inspect(self, packet: Packet, context: ProcessingContext) -> Verdict:
        if SEALED_KEY not in packet.metadata:
            return _NOT_SEALED
        nonce = packet.packet_id.to_bytes(8, "big")
        payload = packet.payload
        if isinstance(payload, (HttpRequest, HttpResponse)):
            payload.body = unseal(self._key, nonce, payload.body)
        elif isinstance(payload, bytes):
            packet.payload = unseal(self._key, nonce, payload)
        del packet.metadata[SEALED_KEY]
        return Verdict.rewritten("payload unsealed")
