"""Tests for flow-level models and topology builders."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.netsim.topology import (
    AccessNetworkSpec,
    PhysicalTopology,
    attach_device,
    build_access_network,
    build_wide_area,
)
from repro.netsim import PathCharacteristics
from repro.netsim.flows import (
    DEFAULT_BITRATE_LADDER_BPS,
    WebPage,
    page_load_time,
    stream_video,
    synth_page,
)


def rng(seed=0):
    return np.random.default_rng(seed)


GOOD = PathCharacteristics(rtt=0.04, loss_rate=0.001, bandwidth_bps=50e6)
POOR = PathCharacteristics(rtt=0.25, loss_rate=0.02, bandwidth_bps=2e6)


class TestWebPages:
    def test_synth_page_sizes_positive(self):
        page = synth_page(rng())
        assert len(page.object_sizes) == 20
        assert all(size >= 400 for size in page.object_sizes)
        assert page.total_bytes == sum(page.object_sizes)

    def test_plt_worse_on_poor_path(self):
        page = synth_page(rng(1))
        fast = page_load_time(page, GOOD, rng(2))
        slow = page_load_time(page, POOR, rng(2))
        assert slow > 2 * fast

    def test_plt_increases_with_per_request_overhead(self):
        page = WebPage(object_sizes=[10_000] * 12, connections=6)
        base = page_load_time(page, GOOD, rng(3))
        loaded = page_load_time(page, GOOD, rng(3), per_request_overhead=0.05)
        assert loaded > base + 0.05  # at least one object per lane

    def test_more_connections_help(self):
        sizes = [20_000] * 24
        serial = page_load_time(WebPage(sizes, connections=1), GOOD, rng(4))
        parallel = page_load_time(WebPage(sizes, connections=8), GOOD, rng(4))
        assert parallel < serial


class TestVideoStreaming:
    def test_throttle_to_1_5mbps_prevents_hd(self):
        """The Binge On observation: 1.5 Mbps shaping yields sub-HD."""
        session = stream_video(60.0, available_bps=1_500_000)
        assert not session.is_hd
        assert session.chosen_bitrate_bps <= 1_500_000

    def test_unthrottled_fast_link_reaches_hd(self):
        session = stream_video(60.0, available_bps=20e6)
        assert session.is_hd
        assert session.chosen_label == "1080p"

    def test_zero_rating_spares_quota(self):
        rated = stream_video(60.0, available_bps=1_500_000, zero_rated=False)
        free = stream_video(60.0, available_bps=1_500_000, zero_rated=True)
        assert rated.bytes_charged_to_quota == rated.bytes_downloaded > 0
        assert free.bytes_charged_to_quota == 0
        assert free.bytes_downloaded == rated.bytes_downloaded

    def test_rebuffers_when_below_lowest_rung(self):
        session = stream_video(30.0, available_bps=200_000)
        assert session.rebuffer_events > 0
        assert session.chosen_bitrate_bps == DEFAULT_BITRATE_LADDER_BPS[0]

    def test_bytes_scale_with_duration(self):
        short = stream_video(30.0, available_bps=5e6)
        long = stream_video(120.0, available_bps=5e6)
        assert long.bytes_downloaded == pytest.approx(
            4 * short.bytes_downloaded, rel=0.01
        )

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            stream_video(0.0, available_bps=1e6)
        with pytest.raises(ConfigurationError):
            stream_video(10.0, available_bps=0.0)


class TestTopology:
    def test_access_network_has_expected_parts(self):
        topo = build_access_network()
        assert topo.nodes_of_kind("ap") == ["ap0", "ap1"]
        assert topo.nodes_of_kind("nfv") == ["nfv0", "nfv1"]
        assert topo.nodes_of_kind("gateway") == ["gw"]
        assert set(topo.nodes_of_kind("middlebox")) == {"pmb_cache", "pmb_tcp_proxy"}

    def test_attach_device_and_rtt(self):
        topo = build_access_network()
        attach_device(topo, "phone", ap="ap0")
        rtt = topo.rtt("phone", "gw")
        # wireless 8ms + 3 backhaul hops, round trip => ~28ms + serialisation
        assert 0.02 < rtt < 0.05

    def test_wide_area_rtts_reflect_spec(self):
        topo = build_wide_area(build_access_network(), cloud_rtt=0.040)
        rtt = topo.rtt("gw", "cloud", size_bytes=0)
        assert rtt == pytest.approx(0.040, rel=0.01)

    def test_unknown_kind_rejected(self):
        topo = PhysicalTopology()
        with pytest.raises(ConfigurationError):
            topo.add_node("x", kind="blackhole")

    def test_link_to_unknown_node_rejected(self):
        topo = PhysicalTopology()
        topo.add_node("a", kind="switch")
        with pytest.raises(ConfigurationError):
            topo.add_link("a", "ghost", 0.001, 1e9)

    def test_unknown_node_or_link_raises_a_typed_error(self):
        topo = build_access_network()
        assert topo.has_node("agg") and not topo.has_node("ghost")
        for query in (lambda: topo.kind_of("ghost"),
                      lambda: topo.node_attr("ghost", "kind"),
                      lambda: topo.link("agg", "ghost"),
                      lambda: topo.link("ghost", "agg"),
                      lambda: topo.link("ap0", "gw")):
            with pytest.raises(ConfigurationError):
                query()

    def test_node_attrs_merge_on_re_add(self):
        topo = build_access_network()
        assert topo.kind_of("nfv0") == "nfv"
        assert topo.node_attr("nfv0", "cpu") == 16
        assert topo.node_attr("nfv0", "service") is None
        assert topo.node_attr("nfv0", "service", "none") == "none"
        assert topo.node_attr("pmb_cache", "service") == "cache"
        topo.add_node("nfv0", kind="switch", cost_rate=2.5)
        assert topo.kind_of("nfv0") == "switch"
        assert topo.node_attr("nfv0", "cpu") == 16          # kept
        assert topo.node_attr("nfv0", "cost_rate") == 2.5
        assert topo.link("nfv0", "agg")                     # links kept

    def test_a_link_is_one_dict_seen_from_both_ends(self):
        topo = build_access_network()
        assert topo.link("agg", "core") is topo.link("core", "agg")
        topo.set_link_down("core", "agg")
        assert topo.link_is_down("agg", "core")
        assert topo.set_link_loss("core", "agg", 0.25) == 0.0
        assert topo.link("agg", "core")["loss_rate"] == 0.25

    def test_re_adding_a_link_updates_it_in_place(self):
        """A ``down`` flag survives, and the neighbour keeps its place
        in adjacency order, which breaks equal-cost ties."""
        topo = PhysicalTopology()
        for name in "abcd":
            topo.add_node(name, kind="switch")
        for a, b in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
            topo.add_link(a, b, 1, 1e9)
        link = topo.link("a", "b")
        topo.add_link("b", "a", 1, 1e9, loss_rate=0.1)
        assert topo.link("a", "b") is link
        assert link["loss_rate"] == 0.1
        assert topo.shortest_path("a", "d") == ["a", "b", "d"]
        topo.set_link_down("a", "c")
        topo.add_link("a", "c", 1, 1e9)
        assert topo.link_is_down("c", "a")

    def test_links_are_oriented_by_node_age_and_sorted(self):
        topo = PhysicalTopology()
        for name in ("z", "m", "a"):
            topo.add_node(name, kind="switch")
        topo.add_link("a", "z", 1, 1e9)
        topo.add_link("a", "m", 2, 1e9)
        topo.add_link("m", "z", 3, 1e9)
        assert [(a, b, link["latency"]) for a, b, link in topo.links()] == [
            ("m", "a", 2), ("z", "a", 1), ("z", "m", 3)]

    def test_path_metrics(self):
        topo = PhysicalTopology()
        for name in ("a", "b", "c"):
            topo.add_node(name, kind="switch")
        topo.add_link("a", "b", 0.010, 100e6, loss_rate=0.01)
        topo.add_link("b", "c", 0.020, 10e6, loss_rate=0.02)
        path = topo.shortest_path("a", "c")
        assert path == ["a", "b", "c"]
        assert topo.path_latency(path, size_bytes=0) == pytest.approx(0.030)
        assert topo.path_bottleneck_bps(path) == 10e6
        expected_loss = 1 - 0.99 * 0.98
        assert topo.path_loss_rate(path) == pytest.approx(expected_loss)
