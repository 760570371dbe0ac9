"""Signed deployment attestations (§3.1 "Auditor", §3.3).

"We propose using trusted hardware/software stacks that provide
client-verifiable attestations that the specified network
configurations and software middleboxes were installed and executed as
requested."

A :class:`TrustedPlatform` models the provider's trusted stack: it
holds a platform key (provisioned by the hardware vendor in reality)
and signs statements binding a deployment id to the digest of the PVNC
it runs.  The device verifies with :class:`AttestationVerifier`, which
knows the platform keys of vendors it trusts.  A dishonest provider
without a trusted platform cannot produce a verifiable attestation for
a tampered configuration — the property E9 exercises.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac

from repro.errors import AttestationError


def _sign(key: bytes, payload: bytes) -> bytes:
    return hmac.new(key, payload, hashlib.sha256).digest()


@dataclasses.dataclass(frozen=True)
class Attestation:
    """One signed deployment statement."""

    deployment_id: str
    pvnc_digest: bytes
    services: tuple[str, ...]        # what is actually installed
    platform: str
    issued_at: float
    signature: bytes

    def payload(self) -> bytes:
        return b"|".join([
            self.deployment_id.encode(),
            self.pvnc_digest,
            ",".join(self.services).encode(),
            self.platform.encode(),
            f"{self.issued_at}".encode(),
        ])


class TrustedPlatform:
    """The provider-side signer (trusted hardware stand-in)."""

    def __init__(self, platform: str, key: bytes) -> None:
        self.platform = platform
        self._key = key

    def vendor_key(self) -> bytes:
        """The verification key, as distributed by the hardware vendor.

        (HMAC stands in for asymmetric attestation keys; distributing
        the verification key is the vendor's root-of-trust role.)
        """
        return self._key

    def attest(
        self,
        deployment_id: str,
        pvnc_digest: bytes,
        services: tuple[str, ...],
        now: float,
    ) -> Attestation:
        unsigned = Attestation(
            deployment_id=deployment_id,
            pvnc_digest=pvnc_digest,
            services=tuple(services),
            platform=self.platform,
            issued_at=now,
            signature=b"",
        )
        return dataclasses.replace(
            unsigned, signature=_sign(self._key, unsigned.payload())
        )


class AttestationVerifier:
    """Device-side verification against trusted platform keys."""

    #: Seconds an attestation stays fresh.
    max_age = 300.0

    def __init__(self) -> None:
        self._platform_keys: dict[str, bytes] = {}

    def trust_platform(self, platform: str, key: bytes) -> None:
        self._platform_keys[platform] = key

    def verify(
        self,
        attestation: Attestation,
        expected_digest: bytes,
        expected_services: tuple[str, ...],
        now: float,
    ) -> None:
        """Raise :class:`AttestationError` on any mismatch."""
        key = self._platform_keys.get(attestation.platform)
        if key is None:
            raise AttestationError(
                f"untrusted platform {attestation.platform!r}"
            )
        expected_sig = _sign(key, attestation.payload())
        if not hmac.compare_digest(expected_sig, attestation.signature):
            raise AttestationError("attestation signature invalid")
        if attestation.pvnc_digest != expected_digest:
            raise AttestationError(
                "attested configuration differs from the PVNC sent "
                "(provider tampered with the configuration)"
            )
        if tuple(attestation.services) != tuple(expected_services):
            raise AttestationError(
                f"attested services {attestation.services} differ from "
                f"accepted services {expected_services}"
            )
        if now - attestation.issued_at > self.max_age:
            raise AttestationError("attestation is stale")
