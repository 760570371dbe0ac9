"""Tests for tracing, random streams, and packet bookkeeping."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim import LatencySummary, Packet, RandomStreams, Tracer, derive_seed


class TestTracer:
    def test_emit_and_filter(self):
        tracer = Tracer()
        tracer.emit(1.0, "audit", "isp1", verdict="ok")
        tracer.emit(2.0, "audit", "isp2", verdict="violation")
        tracer.emit(3.0, "mbox", "pii", verdict="blocked")
        assert len(tracer) == 3
        assert tracer.count("audit") == 2
        assert tracer.count("audit", subject="isp2") == 1
        assert tracer.records("mbox")[0].get("verdict") == "blocked"

    def test_values_and_counter(self):
        tracer = Tracer()
        for verdict in ("ok", "ok", "bad"):
            tracer.emit(0.0, "check", "x", verdict=verdict)
        assert tracer.values("check", "verdict") == ["ok", "ok", "bad"]
        assert tracer.counter("check", "verdict") == {"ok": 2, "bad": 1}

    def test_get_default(self):
        tracer = Tracer()
        tracer.emit(0.0, "c", "s", a=1)
        assert tracer.records("c")[0].get("missing", 42) == 42


class TestLatencySummary:
    def test_summary_statistics(self):
        summary = LatencySummary.from_samples([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.count == 5
        assert summary.mean == pytest.approx(3.0)
        assert summary.median == pytest.approx(3.0)
        assert summary.minimum == 1.0
        assert summary.maximum == 5.0

    def test_empty_sample(self):
        summary = LatencySummary.from_samples([])
        assert summary.count == 0
        assert summary.mean == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=1e3), min_size=1, max_size=100))
    def test_invariants(self, samples):
        summary = LatencySummary.from_samples(samples)
        tolerance = 1e-9 * max(1.0, summary.maximum)
        assert summary.minimum <= summary.median <= summary.maximum
        assert summary.minimum - tolerance <= summary.mean
        assert summary.mean <= summary.maximum + tolerance
        assert summary.minimum <= summary.p95 <= summary.maximum


class TestRandomStreams:
    def test_same_name_same_stream(self):
        streams = RandomStreams(seed=7)
        assert streams.get("loss") is streams.get("loss")

    def test_different_names_independent(self):
        streams = RandomStreams(seed=7)
        a = streams.get("a").random(5).tolist()
        b = streams.get("b").random(5).tolist()
        assert a != b

    def test_reproducible_across_instances(self):
        first = RandomStreams(seed=7).get("x").random(5).tolist()
        second = RandomStreams(seed=7).get("x").random(5).tolist()
        assert first == second

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).get("x").random(5).tolist()
        b = RandomStreams(seed=2).get("x").random(5).tolist()
        assert a != b

    def test_spawn_is_namespaced(self):
        parent = RandomStreams(seed=1)
        child = parent.spawn("child")
        assert child.seed != parent.seed
        assert parent.spawn("child").seed == child.seed

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_derive_seed_in_range(self, root, name):
        seed = derive_seed(root, name)
        assert 0 <= seed < 2**63


class TestPacket:
    def test_five_tuple(self):
        pkt = Packet(src="1.1.1.1", dst="2.2.2.2", protocol="udp",
                     src_port=5, dst_port=53)
        assert pkt.five_tuple() == ("1.1.1.1", "2.2.2.2", "udp", 5, 53)

    def test_unique_ids(self):
        a, b = Packet(src="1.1.1.1", dst="2.2.2.2"), Packet(src="1.1.1.1", dst="2.2.2.2")
        assert a.packet_id != b.packet_id

    def test_reply_template_swaps_endpoints(self):
        pkt = Packet(src="1.1.1.1", dst="2.2.2.2", src_port=1000, dst_port=80,
                     flow_id=9, owner="alice")
        reply = pkt.reply_template(size=40)
        assert reply.src == "2.2.2.2" and reply.dst == "1.1.1.1"
        assert reply.src_port == 80 and reply.dst_port == 1000
        assert reply.flow_id == 9 and reply.owner == "alice"
        assert reply.size == 40

    def test_mark_dropped(self):
        pkt = Packet(src="1.1.1.1", dst="2.2.2.2")
        pkt.mark_dropped("policy")
        assert pkt.dropped and pkt.drop_reason == "policy"
