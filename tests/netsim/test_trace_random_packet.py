"""Tests for random streams and packet bookkeeping."""

from hypothesis import given, strategies as st

from repro.netsim import Packet
from repro.netsim.randomness import RandomStreams, derive_seed


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
