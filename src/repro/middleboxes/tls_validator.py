"""HTTPS/TLS enhancement middlebox (§4).

Performs "certificate validity checks beyond those provided by mobile
OSes and apps, and reject[s] connections for (or at least present[s]
warnings for) those using invalid certificates".  Operating on
:class:`~repro.netproto.tls.TlsHandshake` payloads, it:

* validates the presented chain against the *user's* trust store
  (hostname, validity window, issuer, signature, revocation),
* in ``block`` mode drops failing handshakes; in ``warn`` mode
  annotates and passes (the paper's "at least present warnings"),
* detects unauthorized interception: a handshake marked intercepted
  whose chain does not validate is counted as a caught MITM.
"""

from __future__ import annotations

from repro.netproto.tls import TlsHandshake, TrustStore
from repro.netsim.packet import Packet
from repro.nfv.middlebox import Middlebox, ProcessingContext, Verdict

MODE_BLOCK = "block"
MODE_WARN = "warn"


#: Constant verdicts, built once instead of per packet.
_NOT_A_HANDSHAKE = Verdict.passed("not a TLS handshake")
_CHAIN_VALID = Verdict.passed("chain valid")


class TlsValidator(Middlebox):
    """Chain validation for every TLS handshake in the PVN."""

    service = "tls_validator"

    def __init__(
        self,
        trust_store: TrustStore,
        mode: str = MODE_BLOCK,
        check_revocation: bool = True,
    ) -> None:
        super().__init__("tls_validator")
        if mode not in (MODE_BLOCK, MODE_WARN):
            raise ValueError(f"mode must be block|warn, got {mode!r}")
        self.trust_store = trust_store
        self.mode = mode
        self.check_revocation = check_revocation

    def inspect(self, packet: Packet, context: ProcessingContext) -> Verdict:
        handshake = packet.payload
        if not isinstance(handshake, TlsHandshake):
            return _NOT_A_HANDSHAKE
        result = self.trust_store.validate_chain(
            list(handshake.presented_chain),
            hostname=handshake.sni,
            now=context.now,
            check_revocation=self.check_revocation,
        )
        if result.valid:
            return _CHAIN_VALID
        detail = ",".join(result.failures)
        if self.mode == MODE_BLOCK:
            return Verdict.dropped(f"invalid certificate chain: {detail}")
        packet.metadata["tls_warning"] = detail
        return Verdict.rewritten("warned about invalid chain",
                                 failures=detail)
