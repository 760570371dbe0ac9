"""Tests for links, nodes, hosts, and routing nodes."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.netsim import Host, Link, Packet, Simulator
from repro.netsim.link import link_rtt


def make_pair(sim, **link_kwargs):
    a = Host(sim, "a", "10.0.0.1")
    b = Host(sim, "b", "10.0.0.2")
    link = Link(a, b, **link_kwargs)
    return a, b, link


class TestLinkDelivery:
    def test_delivery_delay_is_latency_plus_serialisation(self):
        sim = Simulator()
        a, b, _ = make_pair(sim, latency=0.010, bandwidth_bps=8e6)
        pkt = Packet(src=a.ip, dst=b.ip, size=1000)  # 1ms serialisation
        a.originate(pkt, via="b")
        sim.run()
        assert pkt.delivered_at == pytest.approx(0.011)
        assert b.delivered == [pkt]

    def test_serialisation_queues_back_to_back_packets(self):
        sim = Simulator()
        a, b, _ = make_pair(sim, latency=0.0, bandwidth_bps=8e6)
        packets = [Packet(src=a.ip, dst=b.ip, size=1000) for _ in range(3)]
        for pkt in packets:
            a.originate(pkt, via="b")
        sim.run()
        deliveries = [pkt.delivered_at for pkt in packets]
        assert deliveries == pytest.approx([0.001, 0.002, 0.003])

    def test_directions_are_independent(self):
        sim = Simulator()
        a, b, _ = make_pair(sim, latency=0.005, bandwidth_bps=8e6)
        fwd = Packet(src=a.ip, dst=b.ip, size=1000)
        rev = Packet(src=b.ip, dst=a.ip, size=1000)
        a.originate(fwd, via="b")
        b.originate(rev, via="a")
        sim.run()
        # Both should arrive at the unloaded one-way delay: no shared queue.
        assert fwd.delivered_at == pytest.approx(0.006)
        assert rev.delivered_at == pytest.approx(0.006)

    def test_loss_rate_drops_packets(self):
        sim = Simulator()
        rng = np.random.default_rng(42)
        a, b, link = make_pair(
            sim, latency=0.001, bandwidth_bps=1e9, loss_rate=0.5, rng=rng
        )
        packets = [Packet(src=a.ip, dst=b.ip, size=100) for _ in range(200)]
        for pkt in packets:
            a.originate(pkt, via="b")
        sim.run()
        delivered = len(b.delivered)
        assert 60 < delivered < 140  # ~100 expected
        stats = link.stats_from(a)
        assert stats.sent == 200
        assert stats.delivered == delivered
        assert stats.lost == 200 - delivered

    def test_loss_without_rng_uses_default_stream(self):
        # A lossy link no longer demands a caller-supplied rng: draws
        # come from the seeded per-link stream in netsim.randomness.
        from repro.netsim.randomness import seed_default_streams

        def deliveries(seed):
            seed_default_streams(seed)
            sim = Simulator()
            a, b, _ = make_pair(
                sim, latency=0.001, bandwidth_bps=1e9, loss_rate=0.5
            )
            for _ in range(100):
                a.originate(Packet(src=a.ip, dst=b.ip, size=100), via="b")
            sim.run()
            return len(b.delivered)

        first = deliveries(seed=7)
        assert 20 < first < 80          # loss actually applies
        assert first == deliveries(seed=7)   # and reproducibly so

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        a = Host(sim, "a", "10.0.0.1")
        b = Host(sim, "b", "10.0.0.2")
        with pytest.raises(ConfigurationError):
            Link(a, b, latency=-1.0)
        with pytest.raises(ConfigurationError):
            Link(a, b, bandwidth_bps=0)

    def test_link_rtt_helper(self):
        sim = Simulator()
        a, b, link = make_pair(sim, latency=0.010, bandwidth_bps=1e9)
        rtt = link_rtt([link], size_bytes=0)
        assert rtt == pytest.approx(0.020)


class TestHost:
    def test_port_handler_dispatch(self):
        sim = Simulator()
        a, b, _ = make_pair(sim)
        got = []
        b.bind(443, lambda pkt: got.append(("tls", pkt)))
        b.bind_default(lambda pkt: got.append(("other", pkt)))
        a.originate(Packet(src=a.ip, dst=b.ip, dst_port=443), via="b")
        a.originate(Packet(src=a.ip, dst=b.ip, dst_port=80), via="b")
        sim.run()
        assert [tag for tag, _ in got] == ["tls", "other"]

    def test_unknown_neighbor_raises(self):
        sim = Simulator()
        a = Host(sim, "a", "10.0.0.1")
        with pytest.raises(ConfigurationError):
            a.send(Packet(src=a.ip, dst="10.0.0.9"), via="nowhere")


class TestBoundedBuffers:
    def test_backlog_beyond_buffer_drops(self):
        """A bounded link drops arrivals once the serialisation backlog
        exceeds the buffer's holding time (drop-tail)."""
        sim = Simulator()
        a = Host(sim, "a", "10.0.0.1")
        b = Host(sim, "b", "10.0.0.2")
        # 1000B at 8 Mbps = 1 ms each; buffer holds 2.5 ms of backlog.
        link = Link(a, b, latency=0.0, bandwidth_bps=8e6,
                    max_queue_delay=0.0025)
        packets = [Packet(src=a.ip, dst=b.ip, size=1000) for _ in range(6)]
        for pkt in packets:
            a.originate(pkt, via="b")
        sim.run()
        delivered = [p for p in packets if p.delivered_at is not None]
        dropped = [p for p in packets if p.dropped]
        assert len(delivered) == 3   # 0ms, 1ms, 2ms backlog fit; 3ms+ don't
        assert len(dropped) == 3
        assert all("buffer overflow" in p.drop_reason for p in dropped)
        assert link.stats_from(a).lost == 3

    def test_unbounded_by_default(self):
        sim = Simulator()
        a = Host(sim, "a", "10.0.0.1")
        b = Host(sim, "b", "10.0.0.2")
        Link(a, b, latency=0.0, bandwidth_bps=8e6)
        packets = [Packet(src=a.ip, dst=b.ip, size=1000) for _ in range(20)]
        for pkt in packets:
            a.originate(pkt, via="b")
        sim.run()
        assert all(p.delivered_at is not None for p in packets)

    def test_negative_buffer_rejected(self):
        sim = Simulator()
        a = Host(sim, "a", "10.0.0.1")
        b = Host(sim, "b", "10.0.0.2")
        with pytest.raises(ConfigurationError):
            Link(a, b, max_queue_delay=-1.0)
