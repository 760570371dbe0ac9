"""Tests for the DNS substrate: zones, signing, resolvers, forgery."""

import pytest

from repro.errors import ProtocolError
from repro.netproto.dns import (
    DnsQuery,
    ForgingResolver,
    RTYPE_A,
    RTYPE_CNAME,
    Resolver,
    TrustAnchor,
    Zone,
    ZoneSigner,
    cross_check,
)


@pytest.fixture
def signed_zone():
    signer = ZoneSigner("example.com", key=b"zone-key")
    zone = Zone("example.com", signer=signer)
    zone.add("www.example.com", RTYPE_A, "93.184.216.34")
    zone.add("cdn.example.com", RTYPE_CNAME, "www.example.com")
    return zone


@pytest.fixture
def anchor():
    trust = TrustAnchor()
    trust.add_zone("example.com", b"zone-key")
    return trust


class TestZones:
    def test_lookup(self, signed_zone):
        records = signed_zone.lookup("www.example.com", RTYPE_A)
        assert len(records) == 1
        assert records[0].value == "93.184.216.34"

    def test_records_signed_when_zone_has_signer(self, signed_zone):
        record = signed_zone.lookup("www.example.com", RTYPE_A)[0]
        assert record.signature is not None

    def test_unsigned_zone(self):
        zone = Zone("plain.org")
        zone.add("a.plain.org", RTYPE_A, "1.2.3.4")
        assert zone.lookup("a.plain.org", RTYPE_A)[0].signature is None

    def test_out_of_zone_rejected(self, signed_zone):
        with pytest.raises(ProtocolError):
            signed_zone.add("www.other.org", RTYPE_A, "1.1.1.1")


class TestTrustAnchor:
    def test_valid_signature_verifies(self, signed_zone, anchor):
        record = signed_zone.lookup("www.example.com", RTYPE_A)[0]
        assert anchor.verify(record)

    def test_tampered_value_fails(self, signed_zone, anchor):
        import dataclasses

        record = signed_zone.lookup("www.example.com", RTYPE_A)[0]
        forged = dataclasses.replace(record, value="6.6.6.6")
        assert not anchor.verify(forged)

    def test_missing_signature_fails(self, anchor):
        from repro.netproto.dns import ResourceRecord

        record = ResourceRecord("www.example.com", RTYPE_A, "1.2.3.4")
        assert not anchor.verify(record)

    def test_unknown_zone_fails(self, signed_zone):
        record = signed_zone.lookup("www.example.com", RTYPE_A)[0]
        assert not TrustAnchor().verify(record)

    def test_knows_zone_for_subdomains(self, anchor):
        assert anchor.knows_zone_for("deep.sub.example.com")
        assert not anchor.knows_zone_for("example.org")


class TestResolver:
    def test_resolves_a_record(self, signed_zone):
        resolver = Resolver("r1", [signed_zone])
        response = resolver.resolve(DnsQuery("www.example.com"))
        assert response.first_value() == "93.184.216.34"

    def test_cname_chased(self, signed_zone):
        resolver = Resolver("r1", [signed_zone])
        response = resolver.resolve(DnsQuery("cdn.example.com"))
        values = [r.value for r in response.records]
        assert values == ["www.example.com", "93.184.216.34"]

    def test_nxdomain(self, signed_zone):
        resolver = Resolver("r1", [signed_zone])
        response = resolver.resolve(DnsQuery("ghost.example.com"))
        assert response.nxdomain
        assert response.first_value() is None


class TestForgingResolver:
    def test_forges_targeted_names(self, signed_zone):
        evil = ForgingResolver(
            "evil", [signed_zone], forged={"www.example.com": "6.6.6.6"}
        )
        response = evil.resolve(DnsQuery("www.example.com"))
        assert response.first_value() == "6.6.6.6"

    def test_forged_records_unsigned(self, signed_zone, anchor):
        evil = ForgingResolver(
            "evil", [signed_zone], forged={"www.example.com": "6.6.6.6"}
        )
        record = evil.resolve(DnsQuery("www.example.com")).records[0]
        assert not anchor.verify(record)

    def test_untargeted_names_resolve_normally(self, signed_zone):
        evil = ForgingResolver("evil", [signed_zone], forged={})
        response = evil.resolve(DnsQuery("www.example.com"))
        assert response.first_value() == "93.184.216.34"

    def test_strip_signatures_mode(self, signed_zone, anchor):
        evil = ForgingResolver("evil", [signed_zone], forged={},
                               strip_signatures=True)
        record = evil.resolve(DnsQuery("www.example.com")).records[0]
        assert record.signature is None


class TestCrossCheck:
    def test_majority_wins_over_single_forger(self, signed_zone):
        honest = [Resolver(f"open{i}", [signed_zone]) for i in range(2)]
        evil = ForgingResolver(
            "evil", [signed_zone], forged={"www.example.com": "6.6.6.6"}
        )
        value, votes = cross_check(
            DnsQuery("www.example.com"), honest + [evil]
        )
        assert value == "93.184.216.34"
        assert votes["6.6.6.6"] == 1

    def test_no_quorum_returns_none(self, signed_zone):
        evil1 = ForgingResolver("e1", [signed_zone],
                                forged={"www.example.com": "6.6.6.6"})
        evil2 = ForgingResolver("e2", [signed_zone],
                                forged={"www.example.com": "7.7.7.7"})
        honest = Resolver("h", [signed_zone])
        value, votes = cross_check(
            DnsQuery("www.example.com"), [evil1, evil2, honest]
        )
        assert value is None
        assert sum(votes.values()) == 3

    def test_requires_resolvers(self):
        with pytest.raises(ProtocolError):
            cross_check(DnsQuery("x.example.com"), [])

    def test_all_nxdomain(self, signed_zone):
        resolvers = [Resolver("r", [signed_zone])]
        value, votes = cross_check(DnsQuery("missing.example.com"), resolvers)
        assert value is None and votes == {}
