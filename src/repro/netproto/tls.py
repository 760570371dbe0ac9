"""TLS: certificates, chains, validation, handshakes, and interception.

This models exactly the parts of the TLS ecosystem the paper's §4
*HTTPS/TLS Enhancements* middlebox operates on: certificate chains,
their validation failures (expiry, hostname mismatch, untrusted issuer,
revocation, bad signatures), apps that skip validation (the [23]
motivation), and man-in-the-middle interception that substitutes an
attacker-issued chain.

Keys are opaque byte strings; signing is HMAC-SHA256 with the issuer's
key.  This preserves the property the experiments need — only a party
holding a CA's key can issue certificates that validate against a trust
store containing that CA — without pulling in a real PKI.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import itertools

from repro.errors import ProtocolError

_serials = itertools.count(1000)


def _sign(key: bytes, payload: bytes) -> bytes:
    return hmac.new(key, payload, hashlib.sha256).digest()


@dataclasses.dataclass(frozen=True)
class Certificate:
    """An X.509-shaped certificate."""

    subject: str                   # hostname or CA name ("*.cdn.example" ok)
    issuer: str
    public_key_id: bytes           # stand-in for the subject's public key
    not_before: float
    not_after: float
    serial: int
    is_ca: bool = False
    signature: bytes = b""

    def signing_payload(self) -> bytes:
        return "|".join(
            [self.subject, self.issuer, self.public_key_id.hex(),
             f"{self.not_before}", f"{self.not_after}", f"{self.serial}",
             f"{self.is_ca}"]
        ).encode()

    def matches_hostname(self, hostname: str) -> bool:
        """Exact or single-label-wildcard hostname match."""
        if self.subject == hostname:
            return True
        if self.subject.startswith("*."):
            suffix = self.subject[2:]
            remainder, _, rest = hostname.partition(".")
            return bool(remainder) and rest == suffix
        return False


class CertificateAuthority:
    """A CA that can issue end-entity and intermediate certificates."""

    def __init__(self, name: str, key: bytes) -> None:
        self.name = name
        self._key = key
        self.public_key_id = hashlib.sha256(b"pub:" + key).digest()[:8]

    def self_signed(self, now: float, lifetime: float = 10 * 365 * 86400
                    ) -> Certificate:
        cert = Certificate(
            subject=self.name, issuer=self.name,
            public_key_id=self.public_key_id,
            not_before=now, not_after=now + lifetime,
            serial=next(_serials), is_ca=True,
        )
        return dataclasses.replace(
            cert, signature=_sign(self._key, cert.signing_payload())
        )

    def issue(
        self,
        subject: str,
        now: float,
        lifetime: float = 90 * 86400,
        is_ca: bool = False,
        subject_key_id: bytes | None = None,
    ) -> Certificate:
        if subject_key_id is None:
            subject_key_id = hashlib.sha256(subject.encode()).digest()[:8]
        cert = Certificate(
            subject=subject, issuer=self.name,
            public_key_id=subject_key_id,
            not_before=now, not_after=now + lifetime,
            serial=next(_serials), is_ca=is_ca,
        )
        return dataclasses.replace(
            cert, signature=_sign(self._key, cert.signing_payload())
        )

    def verify(self, cert: Certificate) -> bool:
        """True iff this CA signed ``cert`` (issuer key check)."""
        if cert.issuer != self.name:
            return False
        expected = _sign(self._key, cert.signing_payload())
        return hmac.compare_digest(expected, cert.signature)


class RevocationList:
    """A CRL: the set of revoked serial numbers."""

    def __init__(self) -> None:
        self._revoked: set[int] = set()

    def revoke(self, serial: int) -> None:
        self._revoked.add(serial)

    def is_revoked(self, serial: int) -> bool:
        return serial in self._revoked


#: Validation failure reasons, in report order.
FAILURE_EXPIRED = "expired"
FAILURE_NOT_YET_VALID = "not_yet_valid"
FAILURE_HOSTNAME_MISMATCH = "hostname_mismatch"
FAILURE_UNTRUSTED_ROOT = "untrusted_root"
FAILURE_BAD_SIGNATURE = "bad_signature"
FAILURE_REVOKED = "revoked"
FAILURE_EMPTY_CHAIN = "empty_chain"
FAILURE_NOT_A_CA = "issuer_not_a_ca"


@dataclasses.dataclass(frozen=True)
class ValidationResult:
    """Outcome of chain validation."""

    valid: bool
    failures: tuple[str, ...] = ()

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.valid


class TrustStore:
    """Root CAs trusted for verification plus an optional CRL."""

    def __init__(self) -> None:
        self._roots: dict[str, CertificateAuthority] = {}
        self.crl = RevocationList()

    def add_root(self, ca: CertificateAuthority) -> None:
        self._roots[ca.name] = ca

    def validate_chain(
        self,
        chain: list[Certificate],
        hostname: str,
        now: float,
        check_revocation: bool = True,
        intermediate_cas: dict[str, CertificateAuthority] | None = None,
    ) -> ValidationResult:
        """Full validation of leaf-first ``chain`` for ``hostname``.

        ``intermediate_cas`` maps intermediate-CA name to the CA object
        capable of verifying signatures it produced (the simulation's
        stand-in for extracting the public key from the intermediate
        certificate itself).
        """
        failures: list[str] = []
        if not chain:
            return ValidationResult(False, (FAILURE_EMPTY_CHAIN,))
        leaf = chain[0]

        for cert in chain:
            if now > cert.not_after:
                failures.append(FAILURE_EXPIRED)
                break
            if now < cert.not_before:
                failures.append(FAILURE_NOT_YET_VALID)
                break

        if not leaf.matches_hostname(hostname):
            failures.append(FAILURE_HOSTNAME_MISMATCH)

        if check_revocation and any(
            self.crl.is_revoked(cert.serial) for cert in chain
        ):
            failures.append(FAILURE_REVOKED)

        failures.extend(self._check_signatures(chain, intermediate_cas or {}))

        deduped = tuple(dict.fromkeys(failures))
        return ValidationResult(valid=not deduped, failures=deduped)

    def _check_signatures(
        self,
        chain: list[Certificate],
        intermediates: dict[str, CertificateAuthority],
    ) -> list[str]:
        for index, cert in enumerate(chain):
            issuer_ca = None
            if index + 1 < len(chain):
                candidate = chain[index + 1]
                if candidate.subject == cert.issuer:
                    if not candidate.is_ca:
                        return [FAILURE_NOT_A_CA]
                    issuer_ca = intermediates.get(candidate.subject)
            if issuer_ca is None:
                issuer_ca = self._roots.get(cert.issuer)
            if issuer_ca is None:
                issuer_ca = intermediates.get(cert.issuer)
            if issuer_ca is None:
                return [FAILURE_UNTRUSTED_ROOT]
            if not issuer_ca.verify(cert):
                return [FAILURE_BAD_SIGNATURE]
            if cert.issuer == cert.subject:
                return []  # reached a self-signed trusted root
        # Chain ended on a cert whose issuer we found in the trust store.
        return []


@dataclasses.dataclass(frozen=True)
class TlsHandshake:
    """A (simplified) TLS handshake transcript.

    ``presented_chain`` is whatever the peer sent — under MITM this is
    the interceptor's chain, not the origin's.
    """

    sni: str
    presented_chain: tuple[Certificate, ...]
    interceptor: str = ""


class TlsServer:
    """An origin server with a certificate chain to present."""

    def __init__(self, hostname: str, chain: list[Certificate]) -> None:
        if not chain:
            raise ProtocolError("server needs a certificate chain")
        self.hostname = hostname
        self.chain = tuple(chain)

    def respond(self, sni: str) -> TlsHandshake:
        return TlsHandshake(sni=sni, presented_chain=self.chain)


class MitmInterceptor:
    """A man-in-the-middle that re-signs connections with its own CA.

    With ``ca`` installed in the victim's trust store this models
    "authorized" TLS interception middleboxes; without, it models the
    §2.1 attack the PVN validator must catch.
    """

    def __init__(self, name: str, ca: CertificateAuthority, now: float) -> None:
        self.name = name
        self.ca = ca
        self.now = now

    def intercept(self, upstream: TlsHandshake) -> TlsHandshake:
        forged_leaf = self.ca.issue(upstream.sni, now=self.now)
        forged_root = self.ca.self_signed(now=self.now)
        return TlsHandshake(
            sni=upstream.sni,
            presented_chain=(forged_leaf, forged_root),
            interceptor=self.name,
        )


def make_web_pki(
    now: float, hostnames: list[str]
) -> tuple[CertificateAuthority, TrustStore, dict[str, TlsServer]]:
    """Convenience: a root CA, a trust store, and servers for hostnames."""
    root = CertificateAuthority("RootCA", key=b"key:RootCA")
    store = TrustStore()
    store.add_root(root)
    servers = {
        host: TlsServer(host, [root.issue(host, now=now)])
        for host in hostnames
    }
    return root, store, servers
