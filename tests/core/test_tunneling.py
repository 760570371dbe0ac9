"""Tests for tunneling: VPN baseline, selective redirection, selection."""

import pytest

from repro.core.tunneling.vpn import DEFAULT_ENCAP, EncapSpec
from repro.core.tunneling import (
    ENCAP_VARIANTS,
    EndpointCandidate,
    FullTunnel,
    RedirectRule,
    SelectiveRedirector,
    direct_path,
    needs_tls_interception,
    select_endpoint,
)
from repro.core.tunneling.selective import is_sensitive_destination
from repro.errors import TunnelError
from repro.netsim import Packet
from repro.netsim.topology import (
    attach_device,
    build_access_network,
    build_wide_area,
)


@pytest.fixture
def topo():
    topo = build_wide_area(build_access_network(), cloud_rtt=0.040,
                           home_rtt=0.080)
    attach_device(topo, "dev")
    return topo


def pkt(**kwargs):
    defaults = dict(src="10.0.0.1", dst="198.51.100.10", owner="alice",
                    dst_port=443, size=1000)
    defaults.update(kwargs)
    return Packet(**defaults)


class TestFullTunnel:
    def test_added_rtt_reflects_detour(self, topo):
        tunnel = FullTunnel(topo, "dev", "cloud")
        costs = tunnel.costs()
        # Cloud hairpin: dev->cloud + cloud->gw vs dev->gw directly.
        assert costs.added_rtt > 0.03

    def test_home_tunnel_worse_than_cloud(self, topo):
        cloud = FullTunnel(topo, "dev", "cloud").costs().added_rtt
        home = FullTunnel(topo, "dev", "home").costs().added_rtt
        assert home > cloud

    def test_effective_path_rtt_hairpins(self, topo):
        tunnel = FullTunnel(topo, "dev", "cloud")
        tunneled = tunnel.effective_path("origin")
        untunneled = direct_path(topo, "dev", "origin")
        assert tunneled.rtt > untunneled.rtt

    def test_shaping_caps_bandwidth(self, topo):
        tunnel = FullTunnel(topo, "dev", "cloud", shaped_to_bps=2e6)
        path = tunnel.effective_path("origin")
        assert path.bandwidth_bps == 2e6

    def test_port_blocking_raises(self, topo):
        tunnel = FullTunnel(topo, "dev", "cloud", port_blocked=True)
        with pytest.raises(TunnelError, match="blocked"):
            tunnel.effective_path("origin")

    def test_encap_overhead_fraction(self, topo):
        tunnel = FullTunnel(topo, "dev", "cloud")
        assert 0.9 < tunnel.encap.goodput_fraction() < 1.0

    def test_unknown_node_rejected(self, topo):
        with pytest.raises(TunnelError):
            FullTunnel(topo, "dev", "mars")


class TestEncapSpecs:
    def test_default_preserves_legacy_cost_model(self, topo):
        tunnel = FullTunnel(topo, "dev", "cloud")
        assert tunnel.encap.overhead_bytes == 73
        assert tunnel.encap.name == DEFAULT_ENCAP.name

    def test_variant_selectable_by_name(self, topo):
        tunnel = FullTunnel(topo, "dev", "cloud", encap="aes-128-gcm")
        assert tunnel.encap.overhead_bytes == 52

    def test_unknown_variant_rejected(self, topo):
        with pytest.raises(TunnelError, match="unknown encap"):
            FullTunnel(topo, "dev", "cloud", encap="rot13")

    def test_cpu_cost_splits_per_packet_and_per_byte(self):
        spec = EncapSpec("x", 52, cpu_us_per_packet=10.0,
                         cpu_us_per_kib=2.0)
        assert spec.cpu_seconds(1024) == pytest.approx(12e-6)
        # Per-packet term dominates small packets.
        assert spec.cpu_seconds(0) == pytest.approx(10e-6)

    def test_crypto_bps_caps_path_when_below_link_rate(self, topo):
        baseline = FullTunnel(topo, "dev", "cloud").effective_path("origin")
        # A cipher slow enough that one encap core falls below the
        # access link's 40 Mbps caps the tunnel; every real variant in
        # the menu sustains 100s of Mbps and leaves links the binding
        # constraint.
        glacial = EncapSpec("glacial", 68, cpu_us_per_packet=50.0,
                            cpu_us_per_kib=400.0)
        capped = FullTunnel(topo, "dev", "cloud",
                            encap=glacial).effective_path("origin")
        assert capped.bandwidth_bps < baseline.bandwidth_bps
        assert capped.bandwidth_bps == pytest.approx(glacial.crypto_bps())
        for spec in ENCAP_VARIANTS.values():
            assert spec.crypto_bps() > baseline.bandwidth_bps

    def test_compression_improves_goodput(self):
        plain = ENCAP_VARIANTS["aes-128-gcm"]
        lzo = ENCAP_VARIANTS["aes-128-gcm-lzo"]
        assert lzo.goodput_fraction() > plain.goodput_fraction()
        # ...at a CPU price.
        assert lzo.cpu_seconds(1500) > plain.cpu_seconds(1500)

    def test_goodput_ordering_tracks_framing_size(self):
        null = ENCAP_VARIANTS["null"]
        aead = ENCAP_VARIANTS["aes-128-gcm"]
        legacy = ENCAP_VARIANTS["bf-cbc-sha1"]
        assert (null.goodput_fraction() > aead.goodput_fraction()
                > legacy.goodput_fraction())

class TestSelectiveRedirection:
    def test_tls_interception_predicate(self):
        needs = pkt(metadata={"needs_inspection": True})
        plain = pkt()
        assert needs_tls_interception(needs)
        assert not needs_tls_interception(plain)
        assert not needs_tls_interception(
            pkt(dst_port=80, metadata={"needs_inspection": True})
        )

    def test_sensitive_destination_predicate(self):
        predicate = is_sensitive_destination(["198.51.100.0/24"])
        assert predicate(pkt(dst="198.51.100.7"))
        assert not predicate(pkt(dst="203.0.113.7"))

    def test_routing_and_accounting(self):
        redirector = SelectiveRedirector([
            RedirectRule("tls", needs_tls_interception, "cloud"),
        ])
        sensitive = pkt(metadata={"needs_inspection": True})
        assert redirector.route(sensitive) == "cloud"
        assert sensitive.metadata["redirected_via"] == "tls"
        for _ in range(9):
            assert redirector.route(pkt()) is None
        assert redirector.redirect_fraction == pytest.approx(0.1)

    def test_first_matching_rule_wins(self):
        redirector = SelectiveRedirector([
            RedirectRule("a", lambda p: True, "cloud"),
            RedirectRule("b", lambda p: True, "home"),
        ])
        assert redirector.route(pkt()) == "cloud"

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(TunnelError):
            SelectiveRedirector([
                RedirectRule("x", lambda p: True, "cloud"),
                RedirectRule("x", lambda p: True, "home"),
            ])


class TestEndpointSelection:
    def test_picks_lowest_cost(self):
        result = select_endpoint([
            EndpointCandidate("cloud", probe=lambda: 0.040, price=1.0),
            EndpointCandidate("home", probe=lambda: 0.090, price=0.0),
            EndpointCandidate("next_as", probe=lambda: 0.015, price=2.0),
        ])
        assert result.chosen == "next_as"
        assert result.score_for("home").reachable

    def test_price_weight_shifts_choice(self):
        candidates = [
            EndpointCandidate("cheap_far", probe=lambda: 0.200, price=0.0),
            EndpointCandidate("pricey_near", probe=lambda: 0.010, price=5.0),
        ]
        latency_sensitive = select_endpoint(candidates, price_weight=0.1)
        assert latency_sensitive.chosen == "pricey_near"
        price_sensitive = select_endpoint(candidates, price_weight=100.0)
        assert price_sensitive.chosen == "cheap_far"

    def test_unreachable_endpoints_skipped(self):
        def failing():
            raise TunnelError("unreachable")

        result = select_endpoint([
            EndpointCandidate("dead", probe=failing),
            EndpointCandidate("alive", probe=lambda: 0.050),
        ])
        assert result.chosen == "alive"
        assert not result.score_for("dead").reachable

    def test_non_pvn_endpoints_skipped(self):
        result = select_endpoint([
            EndpointCandidate("plain", probe=lambda: 0.001,
                              supports_pvn=False),
            EndpointCandidate("pvn", probe=lambda: 0.100),
        ])
        assert result.chosen == "pvn"

    def test_nothing_reachable_raises(self):
        def failing():
            raise TunnelError("nope")

        with pytest.raises(TunnelError, match="no PVN-supporting"):
            select_endpoint([EndpointCandidate("dead", probe=failing)])

    def test_empty_candidates_raises(self):
        with pytest.raises(TunnelError):
            select_endpoint([])

    def test_unknown_score_lookup(self):
        result = select_endpoint([EndpointCandidate("a", probe=lambda: 0.01)])
        with pytest.raises(TunnelError):
            result.score_for("b")
