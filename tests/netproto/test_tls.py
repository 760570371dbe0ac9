"""Tests for the TLS substrate: PKI, validation failures, MITM."""

import pytest

from repro.errors import ProtocolError
from repro.netproto import CertificateAuthority, MitmInterceptor
from repro.netproto.tls import (
    FAILURE_BAD_SIGNATURE,
    FAILURE_EMPTY_CHAIN,
    FAILURE_EXPIRED,
    FAILURE_HOSTNAME_MISMATCH,
    FAILURE_NOT_YET_VALID,
    FAILURE_REVOKED,
    FAILURE_UNTRUSTED_ROOT,
    TlsServer,
    TrustStore,
    make_web_pki,
)

NOW = 1_000_000.0


@pytest.fixture
def pki():
    return make_web_pki(NOW, ["shop.example.com", "bank.example.com"])


class TestIssuance:
    def test_issued_cert_verifies_against_issuer(self, pki):
        root, _, servers = pki
        leaf = servers["shop.example.com"].chain[0]
        assert root.verify(leaf)

    def test_other_ca_does_not_verify(self, pki):
        _, _, servers = pki
        leaf = servers["shop.example.com"].chain[0]
        other = CertificateAuthority("OtherCA", key=b"other")
        assert not other.verify(leaf)

    def test_serials_unique(self, pki):
        root, _, _ = pki
        a = root.issue("a.example.com", now=NOW)
        b = root.issue("b.example.com", now=NOW)
        assert a.serial != b.serial

    def test_server_requires_chain(self):
        with pytest.raises(ProtocolError):
            TlsServer("x.example.com", [])


class TestHostnameMatching:
    def test_exact(self, pki):
        root, _, _ = pki
        cert = root.issue("www.example.com", now=NOW)
        assert cert.matches_hostname("www.example.com")
        assert not cert.matches_hostname("mail.example.com")

    def test_wildcard_single_label(self, pki):
        root, _, _ = pki
        cert = root.issue("*.cdn.example.com", now=NOW)
        assert cert.matches_hostname("a.cdn.example.com")
        assert not cert.matches_hostname("a.b.cdn.example.com")
        assert not cert.matches_hostname("cdn.example.com")


class TestChainValidation:
    def test_valid_chain(self, pki):
        _, store, servers = pki
        handshake = servers["shop.example.com"].respond("shop.example.com")
        result = store.validate_chain(
            list(handshake.presented_chain), "shop.example.com", now=NOW
        )
        assert result.valid
        assert result.failures == ()

    def test_empty_chain(self, pki):
        _, store, _ = pki
        result = store.validate_chain([], "x", now=NOW)
        assert result.failures == (FAILURE_EMPTY_CHAIN,)

    def test_expired(self, pki):
        root, store, _ = pki
        cert = root.issue("old.example.com", now=NOW, lifetime=10.0)
        result = store.validate_chain([cert], "old.example.com",
                                      now=NOW + 100)
        assert FAILURE_EXPIRED in result.failures

    def test_not_yet_valid(self, pki):
        root, store, _ = pki
        cert = root.issue("future.example.com", now=NOW + 500)
        result = store.validate_chain([cert], "future.example.com", now=NOW)
        assert FAILURE_NOT_YET_VALID in result.failures

    def test_hostname_mismatch(self, pki):
        _, store, servers = pki
        chain = list(servers["shop.example.com"].chain)
        result = store.validate_chain(chain, "bank.example.com", now=NOW)
        assert FAILURE_HOSTNAME_MISMATCH in result.failures

    def test_untrusted_root(self, pki):
        _, store, _ = pki
        rogue = CertificateAuthority("RogueCA", key=b"rogue")
        cert = rogue.issue("shop.example.com", now=NOW)
        result = store.validate_chain([cert], "shop.example.com", now=NOW)
        assert FAILURE_UNTRUSTED_ROOT in result.failures

    def test_bad_signature(self, pki):
        import dataclasses

        root, store, _ = pki
        cert = root.issue("shop.example.com", now=NOW)
        tampered = dataclasses.replace(cert, signature=b"\x00" * 32)
        result = store.validate_chain([tampered], "shop.example.com", now=NOW)
        assert FAILURE_BAD_SIGNATURE in result.failures

    def test_revoked(self, pki):
        root, store, servers = pki
        leaf = servers["bank.example.com"].chain[0]
        store.crl.revoke(leaf.serial)
        result = store.validate_chain(
            list(servers["bank.example.com"].chain), "bank.example.com", now=NOW
        )
        assert FAILURE_REVOKED in result.failures
        skipped = store.validate_chain(
            list(servers["bank.example.com"].chain), "bank.example.com",
            now=NOW, check_revocation=False,
        )
        assert skipped.valid

    def test_intermediate_chain(self):
        root = CertificateAuthority("Root", key=b"root")
        store = TrustStore()
        store.add_root(root)
        inter = CertificateAuthority("Inter", key=b"inter")
        inter_cert = root.issue("Inter", now=NOW, is_ca=True,
                                subject_key_id=inter.public_key_id)
        leaf = inter.issue("site.example.com", now=NOW)
        result = store.validate_chain(
            [leaf, inter_cert], "site.example.com", now=NOW,
            intermediate_cas={"Inter": inter},
        )
        assert result.valid

    def test_multiple_failures_reported(self, pki):
        _, store, _ = pki
        rogue = CertificateAuthority("RogueCA", key=b"rogue")
        cert = rogue.issue("other.example.com", now=NOW, lifetime=1.0)
        result = store.validate_chain([cert], "shop.example.com",
                                      now=NOW + 100)
        assert FAILURE_EXPIRED in result.failures
        assert FAILURE_HOSTNAME_MISMATCH in result.failures
        assert FAILURE_UNTRUSTED_ROOT in result.failures


class TestMitm:
    def test_interception_marks_handshake(self, pki):
        _, _, servers = pki
        mitm_ca = CertificateAuthority("EvilCA", key=b"evil")
        mitm = MitmInterceptor("evil-box", mitm_ca, now=NOW)
        upstream = servers["bank.example.com"].respond("bank.example.com")
        forged = mitm.intercept(upstream)
        assert forged.interceptor == "evil-box"

    def test_forged_chain_fails_honest_validation(self, pki):
        _, store, servers = pki
        mitm_ca = CertificateAuthority("EvilCA", key=b"evil")
        mitm = MitmInterceptor("evil-box", mitm_ca, now=NOW)
        forged = mitm.intercept(servers["bank.example.com"].respond("bank.example.com"))
        result = store.validate_chain(
            list(forged.presented_chain), "bank.example.com", now=NOW
        )
        assert not result.valid
        assert FAILURE_UNTRUSTED_ROOT in result.failures

    def test_forged_chain_passes_if_attacker_ca_trusted(self, pki):
        """Corporate-interception case: attacker CA in the trust store."""
        _, store, servers = pki
        mitm_ca = CertificateAuthority("CorpCA", key=b"corp")
        store.add_root(mitm_ca)
        mitm = MitmInterceptor("corp-box", mitm_ca, now=NOW)
        forged = mitm.intercept(servers["bank.example.com"].respond("bank.example.com"))
        result = store.validate_chain(
            list(forged.presented_chain), "bank.example.com", now=NOW
        )
        assert result.valid
