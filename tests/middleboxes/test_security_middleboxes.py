"""Tests for the security middleboxes: TLS, DNS, malware, trackers."""

import pytest

from repro.middleboxes import (
    DnsValidator,
    MalwareDetector,
    TlsValidator,
    TrackerBlocker,
)
from repro.middleboxes.malware_detector import MalwareSignature
from repro.netproto import CertificateAuthority, MitmInterceptor
from repro.netproto.dns import (
    DnsQuery,
    ForgingResolver,
    Resolver,
    TrustAnchor,
    Zone,
    ZoneSigner,
)
from repro.netproto.http import HttpRequest
from repro.netproto.tls import make_web_pki
from repro.netsim import Packet
from repro.nfv import ProcessingContext
from repro.nfv.middlebox import VerdictKind

NOW = 1_000_000.0


def ctx(now=NOW, **kwargs):
    return ProcessingContext(now=now, owner="alice", **kwargs)


def pkt(payload=None, **kwargs):
    defaults = dict(src="10.0.0.5", dst="93.184.216.34", owner="alice")
    defaults.update(kwargs)
    return Packet(payload=payload, **defaults)


class TestTlsValidator:
    @pytest.fixture
    def pki(self):
        return make_web_pki(NOW, ["bank.example.com"])

    def test_valid_handshake_passes(self, pki):
        _, store, servers = pki
        validator = TlsValidator(store)
        handshake = servers["bank.example.com"].respond("bank.example.com")
        verdict = validator.process(pkt(handshake), ctx())
        assert verdict.kind is VerdictKind.PASS

    def test_mitm_blocked_and_counted(self, pki):
        _, store, servers = pki
        validator = TlsValidator(store)
        mitm = MitmInterceptor("evil", CertificateAuthority("E", b"e"), NOW)
        forged = mitm.intercept(
            servers["bank.example.com"].respond("bank.example.com")
        )
        verdict = validator.process(pkt(forged), ctx())
        assert verdict.kind is VerdictKind.DROP

    def test_warn_mode_annotates_instead_of_blocking(self, pki):
        _, store, servers = pki
        validator = TlsValidator(store, mode="warn")
        mitm = MitmInterceptor("evil", CertificateAuthority("E", b"e"), NOW)
        forged = mitm.intercept(
            servers["bank.example.com"].respond("bank.example.com")
        )
        packet = pkt(forged)
        verdict = validator.process(packet, ctx())
        assert verdict.kind is VerdictKind.REWRITE
        assert "untrusted_root" in packet.metadata["tls_warning"]

    def test_expired_cert_blocked(self, pki):
        root, store, _ = pki
        from repro.netproto.tls import TlsHandshake

        stale = root.issue("bank.example.com", now=NOW - 100, lifetime=10)
        handshake = TlsHandshake("bank.example.com", (stale,))
        verdict = TlsValidator(store).process(pkt(handshake), ctx())
        assert verdict.kind is VerdictKind.DROP
        assert "expired" in verdict.reason

    def test_non_tls_traffic_ignored(self, pki):
        _, store, _ = pki
        validator = TlsValidator(store)
        verdict = validator.process(pkt(b"just bytes"), ctx())
        assert verdict.kind is VerdictKind.PASS

    def test_invalid_mode_rejected(self, pki):
        _, store, _ = pki
        with pytest.raises(ValueError):
            TlsValidator(store, mode="maybe")


class TestDnsValidator:
    @pytest.fixture
    def world(self):
        signer = ZoneSigner("example.com", key=b"zk")
        zone = Zone("example.com", signer=signer)
        zone.add("www.example.com", "A", "93.184.216.34")
        plain = Zone("plain.org")
        plain.add("site.plain.org", "A", "198.51.100.7")
        anchor = TrustAnchor()
        anchor.add_zone("example.com", b"zk")
        open_resolvers = [Resolver(f"open{i}", [zone, plain]) for i in range(3)]
        return zone, plain, anchor, open_resolvers

    def test_valid_signed_answer_passes(self, world):
        zone, _, anchor, opens = world
        validator = DnsValidator(anchor, opens)
        response = Resolver("isp", [zone]).resolve(DnsQuery("www.example.com"))
        verdict = validator.process(pkt(response), ctx())
        assert verdict.kind is VerdictKind.PASS

    def test_forged_signed_name_corrected(self, world):
        zone, plain, anchor, opens = world
        validator = DnsValidator(anchor, opens)
        evil = ForgingResolver("evil", [zone, plain],
                               forged={"www.example.com": "6.6.6.6"})
        packet = pkt(evil.resolve(DnsQuery("www.example.com")))
        verdict = validator.process(packet, ctx())
        assert verdict.kind is VerdictKind.REWRITE
        assert packet.payload.first_value() == "93.184.216.34"

    def test_forged_signed_name_blocked_without_substitution(self, world):
        zone, plain, anchor, _ = world
        validator = DnsValidator(anchor, [], substitute_correct_answer=False)
        evil = ForgingResolver("evil", [zone, plain],
                               forged={"www.example.com": "6.6.6.6"})
        verdict = validator.process(
            pkt(evil.resolve(DnsQuery("www.example.com"))), ctx()
        )
        assert verdict.kind is VerdictKind.DROP

    def test_unsigned_name_cross_checked(self, world):
        zone, plain, anchor, opens = world
        validator = DnsValidator(anchor, opens)
        evil = ForgingResolver("evil", [zone, plain],
                               forged={"site.plain.org": "6.6.6.6"})
        packet = pkt(evil.resolve(DnsQuery("site.plain.org")))
        verdict = validator.process(packet, ctx())
        assert verdict.kind is VerdictKind.REWRITE
        assert packet.payload.first_value() == "198.51.100.7"

    def test_honest_unsigned_answer_passes(self, world):
        zone, plain, anchor, opens = world
        validator = DnsValidator(anchor, opens)
        response = Resolver("isp", [zone, plain]).resolve(
            DnsQuery("site.plain.org")
        )
        verdict = validator.process(pkt(response), ctx())
        assert verdict.kind is VerdictKind.PASS

    def test_nxdomain_passes(self, world):
        zone, plain, anchor, opens = world
        validator = DnsValidator(anchor, opens)
        response = Resolver("isp", [zone]).resolve(DnsQuery("nope.example.com"))
        assert validator.process(pkt(response), ctx()).kind is VerdictKind.PASS

    def test_non_dns_ignored(self, world):
        _, _, anchor, opens = world
        validator = DnsValidator(anchor, opens)
        assert validator.process(pkt(b"raw"), ctx()).kind is VerdictKind.PASS


class TestMalwareDetector:
    def test_signature_match_blocked(self):
        detector = MalwareDetector()
        body = b"header X5O!P%@AP[4\\PZX54(P^)7CC)7}$ trailer"
        packet = pkt(HttpRequest("POST", "files.example", body=body))
        verdict = detector.process(packet, ctx())
        assert verdict.kind is VerdictKind.DROP
        assert detector.detections[0][0] == "eicar_test"

    def test_clean_traffic_passes(self):
        detector = MalwareDetector()
        packet = pkt(HttpRequest("GET", "example.com", body=b"hello"))
        assert detector.process(packet, ctx()).kind is VerdictKind.PASS

    def test_custom_signatures(self):
        detector = MalwareDetector(
            signatures=(MalwareSignature("custom", b"BADBYTES"),)
        )
        packet = pkt(b"xxBADBYTESxx")
        verdict = detector.process(packet, ctx())
        assert verdict.kind is VerdictKind.DROP
        assert "custom" in verdict.reason

    def test_empty_signature_rejected(self):
        with pytest.raises(ValueError):
            MalwareSignature("empty", b"")

    def test_beaconing_detected(self):
        detector = MalwareDetector(beacon_threshold=4, beacon_interval=60.0)
        verdicts = []
        for i in range(6):
            packet = pkt(b"ping", size=100, dst="203.0.113.9")
            verdicts.append(detector.process(packet, ctx(now=NOW + i * 5)).kind)
        assert VerdictKind.DROP in verdicts
        assert verdicts[0] is VerdictKind.PASS

    def test_beaconing_window_expires(self):
        detector = MalwareDetector(beacon_threshold=4, beacon_interval=10.0)
        for i in range(8):
            packet = pkt(b"ping", size=100, dst="203.0.113.9")
            verdict = detector.process(packet, ctx(now=NOW + i * 20))
            assert verdict.kind is VerdictKind.PASS

    def test_large_transfers_not_beaconing(self):
        detector = MalwareDetector(beacon_threshold=3, beacon_interval=60.0)
        for i in range(6):
            packet = pkt(b"data", size=100_000, dst="203.0.113.9")
            verdict = detector.process(packet, ctx(now=NOW + i))
            assert verdict.kind is VerdictKind.PASS


class TestTrackerBlocker:
    def test_blocks_listed_domain(self):
        blocker = TrackerBlocker()
        packet = pkt(HttpRequest("GET", "tracker.example", "/pixel.gif"))
        verdict = blocker.process(packet, ctx())
        assert verdict.kind is VerdictKind.DROP
        assert blocker.blocked_requests == 1

    def test_blocks_subdomains(self):
        blocker = TrackerBlocker()
        packet = pkt(HttpRequest("GET", "cdn.ads.example", "/x.js"))
        assert blocker.process(packet, ctx()).kind is VerdictKind.DROP

    def test_passes_normal_sites(self):
        blocker = TrackerBlocker()
        packet = pkt(HttpRequest("GET", "news.example.com"))
        assert blocker.process(packet, ctx()).kind is VerdictKind.PASS

    def test_no_substring_false_positives(self):
        blocker = TrackerBlocker()
        packet = pkt(HttpRequest("GET", "notads.example.com"))
        assert blocker.process(packet, ctx()).kind is VerdictKind.PASS

    def test_case_insensitive(self):
        blocker = TrackerBlocker()
        packet = pkt(HttpRequest("GET", "Tracker.Example"))
        assert blocker.process(packet, ctx()).kind is VerdictKind.DROP
