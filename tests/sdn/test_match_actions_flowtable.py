"""Tests for match semantics, actions, and the flow table."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.netsim import Packet
from repro.sdn.match import MATCH_ANY, Match
from repro.sdn.actions import Drop, Output
from repro.sdn.flowtable import FlowRule, FlowTable


def pkt(**kwargs):
    defaults = dict(src="10.0.0.5", dst="93.184.216.34", protocol="tcp",
                    src_port=40000, dst_port=443, owner="alice", size=100)
    defaults.update(kwargs)
    return Packet(**defaults)


class TestMatch:
    def test_wildcard_matches_everything(self):
        assert MATCH_ANY.matches(pkt())
        assert MATCH_ANY.matches(pkt(protocol="udp", owner="bob"))

    def test_exact_fields(self):
        match = Match(protocol="tcp", dst_port=443, owner="alice")
        assert match.matches(pkt())
        assert not match.matches(pkt(protocol="udp"))
        assert not match.matches(pkt(dst_port=80))
        assert not match.matches(pkt(owner="bob"))

    def test_cidr_fields(self):
        match = Match(src_cidr="10.0.0.0/8", dst_cidr="93.184.216.34/32")
        assert match.matches(pkt())
        assert not match.matches(pkt(src="192.168.0.1"))
        assert not match.matches(pkt(dst="93.184.216.35"))

    def test_specificity_ordering(self):
        assert Match().specificity() == 0
        narrow = Match(src_cidr="10.0.0.5/32", dst_port=443, owner="a")
        wide = Match(src_cidr="10.0.0.0/8")
        assert narrow.specificity() > wide.specificity()

    @given(
        port=st.integers(min_value=1, max_value=65535),
        owner=st.sampled_from(["alice", "bob", "carol"]),
    )
    def test_match_is_deterministic(self, port, owner):
        match = Match(dst_port=port, owner=owner)
        packet = pkt(dst_port=port, owner=owner)
        assert match.matches(packet)
        assert match.matches(packet)


class TestFlowTable:
    def test_priority_wins(self):
        table = FlowTable()
        low = FlowRule(match=MATCH_ANY, actions=(Output("default"),), priority=1)
        high = FlowRule(match=Match(dst_port=443),
                        actions=(Output("chain"),), priority=200)
        table.install(low)
        table.install(high)
        assert table.lookup(pkt(dst_port=443)) is high
        assert table.lookup(pkt(dst_port=80)) is low

    def test_specificity_breaks_priority_ties(self):
        table = FlowTable()
        wide = FlowRule(match=Match(protocol="tcp"),
                        actions=(Output("a"),), priority=100)
        narrow = FlowRule(match=Match(protocol="tcp", dst_port=443),
                          actions=(Output("b"),), priority=100)
        table.install(wide)
        table.install(narrow)
        assert table.lookup(pkt(dst_port=443)) is narrow

    def test_install_order_breaks_remaining_ties(self):
        table = FlowTable()
        first = FlowRule(match=Match(dst_port=443), actions=(Output("a"),))
        second = FlowRule(match=Match(dst_port=443), actions=(Output("b"),))
        table.install(second)
        table.install(first)
        # Same priority, same specificity: earlier-created rule_id wins.
        assert table.lookup(pkt(dst_port=443) ) is first

    def test_miss_counted(self):
        table = FlowTable()
        assert table.lookup(pkt()) is None
        assert table.misses == 1

    def test_stats_updated(self):
        table = FlowTable()
        rule = FlowRule(match=MATCH_ANY, actions=(Output("x"),))
        table.install(rule)
        table.lookup(pkt(size=100))
        table.lookup(pkt(size=50))
        assert rule.packets_matched == 2
        assert rule.bytes_matched == 150

    def test_remove_by_id_and_pvn(self):
        table = FlowTable()
        keep = FlowRule(match=MATCH_ANY, actions=(Output("x"),), pvn_id="")
        mine = FlowRule(match=Match(owner="alice"), actions=(Drop(),),
                        pvn_id="alice/dep1")
        also = FlowRule(match=Match(owner="alice", dst_port=53),
                        actions=(Drop(),), pvn_id="alice/dep1")
        for rule in (keep, mine, also):
            table.install(rule)
        assert table.remove_pvn("alice/dep1") == 2
        assert len(table) == 1
        assert table.remove(keep.rule_id)
        assert not table.remove(keep.rule_id)

    def test_rule_requires_actions(self):
        with pytest.raises(ConfigurationError):
            FlowRule(match=MATCH_ANY, actions=())

    def test_negative_priority_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowRule(match=MATCH_ANY, actions=(Drop(),), priority=-1)

    def test_rules_for_pvn(self):
        table = FlowTable()
        rule = FlowRule(match=Match(owner="bob"), actions=(Drop(),),
                        pvn_id="bob/d")
        table.install(rule)
        assert table.rules_for_pvn("bob/d") == [rule]
        assert table.rules_for_pvn("ghost") == []
