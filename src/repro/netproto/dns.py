"""DNS: messages, zones, resolvers, and DNSSEC-like signing.

Supports the paper's §4 *DNS Validation* middlebox: a PVN module that
(a) validates signed records against a trust anchor even when the
access ISP's resolver does not, and (b) cross-checks unsigned names
against a collection of open resolvers so a single forged mapping
cannot redirect the client.

The adversary — a forging resolver run by a malicious or compromised
ISP — lives in :class:`ForgingResolver`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
from collections import Counter

from repro.errors import ProtocolError

RTYPE_A = "A"
RTYPE_AAAA = "AAAA"
RTYPE_CNAME = "CNAME"



@dataclasses.dataclass(frozen=True)
class ResourceRecord:
    """One DNS record, optionally carrying a DNSSEC-like signature."""

    name: str
    rtype: str
    value: str
    ttl: int = 300
    signature: bytes | None = None

    def signing_payload(self) -> bytes:
        return f"{self.name}|{self.rtype}|{self.value}|{self.ttl}".encode()


@dataclasses.dataclass(frozen=True)
class DnsQuery:
    """A DNS question."""

    name: str
    rtype: str = RTYPE_A


@dataclasses.dataclass(frozen=True)
class DnsResponse:
    """A DNS answer (possibly empty = NXDOMAIN)."""

    query: DnsQuery
    records: tuple[ResourceRecord, ...]

    @property
    def nxdomain(self) -> bool:
        return not self.records

    def first_value(self) -> str | None:
        return self.records[0].value if self.records else None


class ZoneSigner:
    """Signs a zone's records with a per-zone key (DNSSEC stand-in).

    Key possession models the real PKI: only the zone owner can produce
    valid signatures; a :class:`TrustAnchor` holding the public half
    (here: the same key, as HMAC) can verify them.
    """

    def __init__(self, zone: str, key: bytes) -> None:
        self.zone = zone
        self._key = key

    def sign(self, record: ResourceRecord) -> ResourceRecord:
        signature = hmac.new(
            self._key, record.signing_payload(), hashlib.sha256
        ).digest()
        return dataclasses.replace(record, signature=signature)


class TrustAnchor:
    """Verifies record signatures for the zones it knows keys for."""

    def __init__(self) -> None:
        self._keys: dict[str, bytes] = {}

    def add_zone(self, zone: str, key: bytes) -> None:
        self._keys[zone] = key

    def knows_zone_for(self, name: str) -> bool:
        return self._zone_for(name) is not None

    def _zone_for(self, name: str) -> str | None:
        labels = name.split(".")
        for start in range(len(labels)):
            candidate = ".".join(labels[start:])
            if candidate in self._keys:
                return candidate
        return None

    def verify(self, record: ResourceRecord) -> bool:
        """True iff the record carries a valid signature for its zone."""
        zone = self._zone_for(record.name)
        if zone is None or record.signature is None:
            return False
        expected = hmac.new(
            self._keys[zone], record.signing_payload(), hashlib.sha256
        ).digest()
        return hmac.compare_digest(expected, record.signature)


class Zone:
    """An authoritative zone: name -> records, optionally signed."""

    def __init__(self, origin: str, signer: ZoneSigner | None = None) -> None:
        self.origin = origin
        self.signer = signer
        self._records: dict[tuple[str, str], list[ResourceRecord]] = {}

    def add(self, name: str, rtype: str, value: str) -> None:
        if not name.endswith(self.origin):
            raise ProtocolError(
                f"{name!r} is not inside zone {self.origin!r}"
            )
        record = ResourceRecord(name, rtype, value, 300)
        if self.signer is not None:
            record = self.signer.sign(record)
        self._records.setdefault((name, rtype), []).append(record)

    def lookup(self, name: str, rtype: str) -> list[ResourceRecord]:
        return list(self._records.get((name, rtype), []))


class Resolver:
    """A recursive resolver over a set of authoritative zones."""

    def __init__(self, name: str, zones: list[Zone]) -> None:
        self.name = name
        self._zones = list(zones)

    def resolve(self, query: DnsQuery) -> DnsResponse:
        records = self._answer(query)
        return DnsResponse(query=query, records=tuple(records))

    def _answer(self, query: DnsQuery) -> list[ResourceRecord]:
        for zone in self._zones:
            found = zone.lookup(query.name, query.rtype)
            if found:
                return found
            # Follow one CNAME level, as real resolvers do.
            cname = zone.lookup(query.name, RTYPE_CNAME)
            if cname:
                target = cname[0].value
                chased = self._answer(DnsQuery(target, query.rtype))
                return cname + chased
        return []


class ForgingResolver(Resolver):
    """A malicious resolver that forges mappings for targeted names.

    Forged answers carry **no valid signature** (the adversary does not
    hold the zone key) — exactly the asymmetry the PVN DNS validator
    exploits.
    """

    def __init__(
        self,
        name: str,
        zones: list[Zone],
        forged: dict[str, str],
        strip_signatures: bool = True,
    ) -> None:
        super().__init__(name, zones)
        self.forged = dict(forged)
        self.strip_signatures = strip_signatures

    def resolve(self, query: DnsQuery) -> DnsResponse:
        if query.name in self.forged and query.rtype == RTYPE_A:
            fake = ResourceRecord(query.name, RTYPE_A, self.forged[query.name])
            return DnsResponse(query=query, records=(fake,))
        response = super().resolve(query)
        if self.strip_signatures:
            stripped = tuple(
                dataclasses.replace(r, signature=None) for r in response.records
            )
            response = dataclasses.replace(response, records=stripped)
        return response


def cross_check(
    query: DnsQuery, resolvers: list[Resolver]
) -> tuple[str | None, dict[str, int]]:
    """Resolve via several resolvers and majority-vote the answer.

    Returns ``(winning_value_or_None, vote_counts)``; a value wins
    with a strict majority of the resolvers asked.  This is the
    paper's "collection of open resolvers" defence for unsigned names.
    """
    if not resolvers:
        raise ProtocolError("cross_check requires at least one resolver")
    quorum = len(resolvers) // 2 + 1
    votes: Counter[str] = Counter()
    for resolver in resolvers:
        value = resolver.resolve(query).first_value()
        if value is not None:
            votes[value] += 1
    if not votes:
        return None, {}
    value, count = votes.most_common(1)[0]
    if count >= quorum:
        return value, dict(votes)
    return None, dict(votes)
