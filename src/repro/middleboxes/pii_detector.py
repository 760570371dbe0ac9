"""PII detection and blocking middlebox (§2.3, §4).

A ReCon-style [30] network-level detector: inspects HTTP request
payloads for personally identifiable information — emails, phone
numbers, SSN-shaped ids, GPS coordinates, passwords, device
identifiers, and user-registered custom strings — and, per policy,
reports, scrubs, or blocks the leaking flow.

Encrypted payloads (HTTPS) are only inspectable when the processing
context offers trusted execution (the paper's SGX case); otherwise the
module can flag them for selective tunneling to a trusted environment
(Fig. 1(c)) via a TUNNEL verdict.
"""

from __future__ import annotations

import re

from repro.netproto.http import HttpRequest
from repro.netsim.packet import Packet
from repro.nfv.middlebox import Middlebox, ProcessingContext, Verdict

MODE_DETECT = "detect"
MODE_SCRUB = "scrub"
MODE_BLOCK = "block"

#: Built-in PII pattern library: type -> compiled regex over the body.
PII_PATTERNS: dict[str, re.Pattern[bytes]] = {
    "email": re.compile(rb"[a-zA-Z0-9._%+-]+@[a-zA-Z0-9.-]+\.[a-zA-Z]{2,}"),
    "phone": re.compile(rb"\b\d{3}[-.]\d{3}[-.]\d{4}\b"),
    "ssn": re.compile(rb"\b\d{3}-\d{2}-\d{4}\b"),
    "location": re.compile(
        rb"lat(?:itude)?=-?\d{1,3}\.\d+&?lon(?:gitude)?=-?\d{1,3}\.\d+"
    ),
    "password": re.compile(rb"(?:password|passwd|pwd)=[^&\s]+"),
    "device_id": re.compile(rb"\b(?:imei|android_id|idfa|ad_id)=[A-Za-z0-9-]+"),
}


#: Constant verdicts, built once instead of per packet.
_NOT_A_REQUEST = Verdict.passed("not an HTTP request")
_ENCRYPTED = Verdict.passed("encrypted; uninspectable here")
_NO_PII = Verdict.passed("no PII")


class PiiDetector(Middlebox):
    """Detect / scrub / block PII in HTTP requests."""

    service = "pii_detector"

    def __init__(
        self,
        mode: str = MODE_SCRUB,
        custom_strings: list[bytes] | None = None,
        tunnel_encrypted_to: str = "",
    ) -> None:
        super().__init__("pii_detector")
        if mode not in (MODE_DETECT, MODE_SCRUB, MODE_BLOCK):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.custom_strings = list(custom_strings or [])
        self.tunnel_encrypted_to = tunnel_encrypted_to
        self.leaks_scrubbed = 0

    # -- detection ------------------------------------------------------------

    def scan(self, body: bytes) -> list[tuple[str, bytes]]:
        """All (type, value) PII matches in ``body``."""
        hits: list[tuple[str, bytes]] = []
        for pii_type, pattern in PII_PATTERNS.items():
            hits.extend((pii_type, m) for m in pattern.findall(body))
        for custom in self.custom_strings:
            if custom and custom in body:
                hits.append(("custom", custom))
        return hits

    @staticmethod
    def scrub(body: bytes, hits: list[tuple[str, bytes]]) -> bytes:
        """Replace every matched value with a redaction marker."""
        for _, value in hits:
            body = body.replace(value, b"[REDACTED]")
        return body

    # -- middlebox hook ----------------------------------------------------------

    def inspect(self, packet: Packet, context: ProcessingContext) -> Verdict:
        request = packet.payload
        if not isinstance(request, HttpRequest):
            return _NOT_A_REQUEST

        if request.https and not context.trusted_execution:
            # Cannot inspect ciphertext here; optionally redirect to a
            # trusted enclave/cloud for limited interception (Fig. 1(c)).
            if self.tunnel_encrypted_to:
                return Verdict.tunneled(
                    self.tunnel_encrypted_to,
                    reason="encrypted payload needs trusted execution",
                )
            return _ENCRYPTED

        # Body and path are scanned separately: concatenating them
        # would let a match span the boundary and defeat scrubbing.
        body_hits = self.scan(request.body)
        path_hits = self.scan(request.path.encode())
        hits = body_hits + path_hits
        if not hits:
            return _NO_PII

        if self.mode == MODE_BLOCK:
            return Verdict.dropped(
                f"PII leak to {request.host}: "
                + ",".join(sorted({t for t, _ in hits}))
            )
        if self.mode == MODE_SCRUB:
            request.body = self.scrub(request.body, body_hits)
            request.path = self.scrub(
                request.path.encode(), path_hits
            ).decode("utf-8", errors="replace")
            self.leaks_scrubbed += 1
            return Verdict.rewritten("PII scrubbed",
                                     types=",".join(t for t, _ in hits))
        return Verdict.rewritten("PII detected (report-only)",
                                 types=",".join(t for t, _ in hits))
