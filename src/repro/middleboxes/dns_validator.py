"""DNS validation middlebox (§4).

"Even if the ISP does not support DNSSEC, a PVN DNSSEC module can
provide secure DNS resolution on behalf of the user.  Further, when
accessing name entries that are not secured, the PVN can use a
collection of open resolvers to ensure that clients are not maliciously
sent to invalid addresses for a name."

The module inspects :class:`~repro.netproto.dns.DnsResponse` payloads:

1. names in zones the trust anchor covers must carry valid signatures
   (otherwise: drop and, when possible, substitute the validated
   answer);
2. unsigned names are cross-checked against open resolvers; answers
   that lose the majority vote are replaced or dropped.
"""

from __future__ import annotations

import dataclasses

from repro.netproto.dns import (
    DnsQuery,
    DnsResponse,
    Resolver,
    ResourceRecord,
    TrustAnchor,
    cross_check,
)
from repro.netsim.packet import Packet
from repro.nfv.middlebox import Middlebox, ProcessingContext, Verdict


#: Constant verdicts, built once instead of per packet.
_NOT_A_DNS_RESPONSE = Verdict.passed("not a DNS response")
_NXDOMAIN = Verdict.passed("nxdomain")
_DNSSEC_VALID = Verdict.passed("dnssec valid")
_UNSIGNED_UNCHECKED = Verdict.passed("unsigned, no open resolvers configured")
_CROSS_CHECK_AGREED = Verdict.passed("cross-check agreed")


class DnsValidator(Middlebox):
    """Signature validation + open-resolver cross-checking."""

    service = "dns_validator"

    def __init__(
        self,
        trust_anchor: TrustAnchor,
        open_resolvers: list[Resolver] | None = None,
        substitute_correct_answer: bool = True,
    ) -> None:
        super().__init__("dns_validator")
        self.trust_anchor = trust_anchor
        self.open_resolvers = list(open_resolvers or [])
        self.substitute_correct_answer = substitute_correct_answer

    def inspect(self, packet: Packet, context: ProcessingContext) -> Verdict:
        response = packet.payload
        if not isinstance(response, DnsResponse):
            return _NOT_A_DNS_RESPONSE
        if response.nxdomain:
            return _NXDOMAIN

        name = response.query.name
        if self.trust_anchor.knows_zone_for(name):
            return self._validate_signed(packet, response)
        return self._cross_check_unsigned(packet, response)

    # -- signed path ---------------------------------------------------------

    def _validate_signed(
        self, packet: Packet, response: DnsResponse,
    ) -> Verdict:
        if all(self.trust_anchor.verify(r) for r in response.records):
            return _DNSSEC_VALID
        return self._reject(packet, response, "invalid DNSSEC signature")

    # -- unsigned path ----------------------------------------------------------

    def _cross_check_unsigned(
        self, packet: Packet, response: DnsResponse,
    ) -> Verdict:
        if not self.open_resolvers:
            return _UNSIGNED_UNCHECKED
        majority, _ = cross_check(
            DnsQuery(response.query.name, response.query.rtype),
            self.open_resolvers,
        )
        answer = response.first_value()
        if majority is None or answer == majority:
            return _CROSS_CHECK_AGREED
        return self._reject(packet, response, "cross-check mismatch",
                            corrected_value=majority)

    def _reject(
        self,
        packet: Packet,
        response: DnsResponse,
        reason: str,
        corrected_value: str | None = None,
    ) -> Verdict:
        """Either substitute the verified answer or drop the response."""
        if self.substitute_correct_answer and corrected_value is None:
            corrected_value = self._resolve_validated(response.query)
        if self.substitute_correct_answer and corrected_value is not None:
            corrected = ResourceRecord(
                response.query.name, response.query.rtype, corrected_value
            )
            packet.payload = dataclasses.replace(
                response, records=(corrected,)
            )
            return Verdict.rewritten(f"{reason}; substituted validated answer",
                                     corrected=corrected_value)
        return Verdict.dropped(reason)

    def _resolve_validated(self, query: DnsQuery) -> str | None:
        """Ask open resolvers for an answer that verifies."""
        for resolver in self.open_resolvers:
            candidate = resolver.resolve(DnsQuery(query.name, query.rtype))
            for record in candidate.records:
                if record.rtype == query.rtype and self.trust_anchor.verify(record):
                    return record.value
        return None
