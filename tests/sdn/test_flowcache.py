"""Tests for the exact-match microflow cache on the SDN fast path.

The load-bearing property (hypothesis-tested below): for *any*
interleaving of rule installs, removals, PVN teardowns, and packets,
the switch is observably equivalent to :class:`LinearSwitch`, a
reference that runs the plain linear table scan per packet — same drop
decisions, same match statistics, same forwarding counters.  The cache
may only be faster, never different.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import Host, Link, Packet, Simulator
from repro.sdn import Controller, SdnSwitch
from repro.sdn.actions import Drop, Output, ToChain
from repro.sdn.flowcache import CacheEntry, FlowCache
from repro.sdn.match import Match
from repro.sdn.flowtable import FlowRule


def remember(cache, packet):
    """Store a no-op entry under ``packet``'s exact-match key."""
    cache.store(packet.flow_key(),
                CacheEntry(rule=None, closure=lambda p: None, generation=0))


def recall(cache, packet):
    """The cached entry for ``packet`` at table generation 0, or None."""
    return cache.lookup(packet.flow_key(), 0)


class LinearSwitch(SdnSwitch):
    """The reference datapath: a linear ``table.lookup`` per packet,
    then the winner's compiled actions or a punt.  No cache tier."""

    def process(self, packet: Packet) -> None:
        self.packets_received += 1
        rule = self.table.lookup(packet)
        self.full_classifications += 1
        if rule is None:
            self._punt(packet)
        else:
            self._compile_actions(rule.actions)(packet)


def make_switch(cached: bool) -> SdnSwitch:
    """The switch (``cached``) or the linear reference."""
    return (SdnSwitch if cached else LinearSwitch)(Simulator(), "sw")


def flow_pkt(owner="alice", dst_port=443, **kwargs):
    defaults = dict(src="10.0.0.1", dst="10.0.1.1", protocol="tcp",
                    src_port=40000, dst_port=dst_port, owner=owner, size=100)
    defaults.update(kwargs)
    return Packet(**defaults)


# -- the equivalence property -------------------------------------------------

# An op is one of:
#   ("install", owner_idx, dst_port|None, priority)
#   ("remove_pvn", owner_idx)
#   ("packet", owner_idx, dst_port)
_ops = st.one_of(
    st.tuples(st.just("install"), st.integers(0, 3),
              st.sampled_from([None, 80, 443]), st.integers(90, 110)),
    st.tuples(st.just("remove_pvn"), st.integers(0, 3)),
    st.tuples(st.just("packet"), st.integers(0, 3),
              st.sampled_from([80, 443])),
)


class TestCachedLookupEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ops, max_size=40))
    def test_cached_switch_equals_linear_switch(self, ops):
        cached = make_switch(cached=True)
        linear = make_switch(cached=False)
        rule_ids = itertools.count(10_000_000)  # same ids in both tables
        installed = 0

        for op in ops:
            if op[0] == "install":
                _, owner_idx, dst_port, priority = op
                rule_id = next(rule_ids)
                installed += 1
                for switch in (cached, linear):
                    switch.table.install(FlowRule(
                        match=Match(owner=f"u{owner_idx}", dst_port=dst_port),
                        actions=(Drop(reason=f"r{rule_id}"),),
                        priority=priority,
                        pvn_id=f"u{owner_idx}/d",
                        rule_id=rule_id,
                    ))
            elif op[0] == "remove_pvn":
                _, owner_idx = op
                for switch in (cached, linear):
                    switch.table.remove_pvn(f"u{owner_idx}/d")
            else:
                _, owner_idx, dst_port = op
                pair = [flow_pkt(owner=f"u{owner_idx}", dst_port=dst_port)
                        for _ in (cached, linear)]
                for switch, packet in zip((cached, linear), pair):
                    switch.process(packet)
                # Identical observable fate for every packet.
                assert pair[0].dropped == pair[1].dropped
                assert pair[0].drop_reason == pair[1].drop_reason

        # Identical aggregate accounting after the whole interleaving.
        assert cached.counters() == linear.counters()
        assert cached.table.misses == linear.table.misses
        assert (
            {r.rule_id: (r.packets_matched, r.bytes_matched)
             for r in cached.table.rules}
            == {r.rule_id: (r.packets_matched, r.bytes_matched)
                for r in linear.table.rules}
        )


# -- exactly-once match statistics (the FlowTable.lookup stats fix) ----------


class TestExactlyOnceStats:
    @pytest.mark.parametrize("cached", [True, False])
    def test_match_stats_counted_once_per_packet(self, cached):
        switch = make_switch(cached)
        rule = FlowRule(match=Match(owner="alice"), actions=(Drop(),))
        switch.table.install(rule)
        for _ in range(3):
            switch.process(flow_pkt(size=100))
        assert rule.packets_matched == 3
        assert rule.bytes_matched == 300

    def test_cache_hits_still_charge_stats(self):
        switch = make_switch(cached=True)
        rule = FlowRule(match=Match(owner="alice"), actions=(Drop(),))
        switch.table.install(rule)
        switch.process(flow_pkt())          # miss: fills the cache
        switch.process(flow_pkt())          # hit: closure path
        assert switch.flow_cache.hits == 1
        assert switch.flow_cache.misses == 1
        assert rule.packets_matched == 2

    def test_table_misses_counted_once_even_when_negative_cached(self):
        switch = make_switch(cached=True)
        switch.process(flow_pkt())
        switch.process(flow_pkt())          # negative entry hit
        assert switch.table.misses == 2
        assert switch.flow_cache.hits == 1


# -- invalidation -------------------------------------------------------------


class TestInvalidation:
    def test_remove_pvn_via_controller_flushes_eagerly(self):
        switch = make_switch(cached=True)
        ctrl = Controller()
        ctrl.adopt(switch)
        ctrl.install("sw", Match(owner="alice"), (Drop(reason="old"),),
                     pvn_id="alice/d")
        switch.process(flow_pkt())
        assert len(switch.flow_cache) == 1
        assert ctrl.remove_pvn("alice/d") == 1
        assert len(switch.flow_cache) == 0
        assert switch.flow_cache.invalidations >= 1
        # The flow now misses and punts; the stale rule is gone.
        packet = flow_pkt()
        switch.process(packet)
        assert ctrl.packet_ins == 1

    def test_priority_shadowing_respected_via_generation_fence(self):
        # Install directly into the table (no controller, so no eager
        # flush): the lazy generation fence alone must catch it.
        switch = make_switch(cached=True)
        switch.table.install(FlowRule(
            match=Match(owner="alice"), actions=(Drop(reason="old"),),
            priority=100,
        ))
        first = flow_pkt()
        switch.process(first)
        assert "old" in first.drop_reason
        switch.table.install(FlowRule(
            match=Match(owner="alice"), actions=(Drop(reason="new"),),
            priority=200,
        ))
        second = flow_pkt()
        switch.process(second)
        assert "new" in second.drop_reason

    def test_negative_entry_invalidated_by_install(self):
        switch = make_switch(cached=True)
        missed = flow_pkt()
        switch.process(missed)              # negative-cached miss (drop)
        assert missed.dropped
        switch.table.install(FlowRule(
            match=Match(owner="alice"), actions=(Drop(reason="matched"),),
        ))
        hit = flow_pkt()
        switch.process(hit)
        assert "matched" in hit.drop_reason

    def test_epoch_fence_flushes_once_per_token_change(self):
        switch = make_switch(cached=True)
        switch.table.install(FlowRule(match=Match(owner="alice"),
                                      actions=(Drop(),)))
        switch.process(flow_pkt())
        assert len(switch.flow_cache) == 1
        switch.flow_cache.fence(("lineage", 1))
        assert len(switch.flow_cache) == 0
        flushes = switch.flow_cache.flushes
        switch.flow_cache.fence(("lineage", 1))   # same token: no flush
        assert switch.flow_cache.flushes == flushes
        switch.process(flow_pkt())
        switch.flow_cache.fence(("lineage", 2))   # advance: flush again
        assert len(switch.flow_cache) == 0

    def test_capacity_eviction_is_lru_and_counted(self):
        cache = FlowCache(capacity=2)
        for port in (1, 2):
            remember(cache, flow_pkt(dst_port=port))
        # Touch port 1: under LRU it becomes most-recent and survives
        # the next eviction; under FIFO it would be the one evicted.
        assert recall(cache, flow_pkt(dst_port=1)) is not None
        remember(cache, flow_pkt(dst_port=3))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert recall(cache, flow_pkt(dst_port=2)) is None
        assert recall(cache, flow_pkt(dst_port=1)) is not None
        assert recall(cache, flow_pkt(dst_port=3)) is not None

    def test_hot_flow_survives_one_shot_flow_pressure(self):
        # The LRU regression guard: a long-lived flow interleaved with
        # a stream of one-packet flows larger than capacity must keep
        # hitting the cache (FIFO would age it out every cycle).
        cache = FlowCache(capacity=8)
        hot = flow_pkt(dst_port=443)
        remember(cache, hot)
        for port in range(1000, 1032):          # 4x capacity of churn
            assert recall(cache, hot) is not None
            remember(cache, flow_pkt(dst_port=port))
        assert recall(cache, hot) is not None
        assert cache.hits == 33


# -- packet conservation ------------------------------------------------------


@pytest.fixture
def wired_switch(request):
    """a -- sw -- b with a controller and chains bound; the switch, or
    the linear reference when parametrized with False."""
    sim = Simulator()
    a = Host(sim, "a", "10.0.0.1")
    b = Host(sim, "b", "10.0.1.1")
    cached = getattr(request, "param", True)
    switch = (SdnSwitch if cached else LinearSwitch)(sim, "sw")
    Link(a, switch, latency=0.001, bandwidth_bps=1e9)
    Link(switch, b, latency=0.001, bandwidth_bps=1e9)
    ctrl = Controller()
    ctrl.adopt(switch)
    switch.bind_chain("eater", lambda packet, chain_id: None)
    return sim, switch, ctrl


def assert_conservation(switch):
    assert switch.packets_received == (
        switch.packets_forwarded + switch.packets_dropped
        + switch.packets_punted + switch.packets_consumed
    )


class TestConservation:
    @pytest.mark.parametrize("wired_switch", [True, False], indirect=True)
    def test_forward_drop_punt_consume_all_accounted(self, wired_switch):
        sim, switch, ctrl = wired_switch
        ctrl.install("sw", Match(owner="fwd"), (Output("b"),))
        ctrl.install("sw", Match(owner="drop"), (Drop(),))
        ctrl.install("sw", Match(owner="eat"), (ToChain("eater"),))
        for owner, copies in [("fwd", 2), ("drop", 3), ("eat", 2),
                              ("nobody", 1)]:
            for _ in range(copies):
                switch.process(flow_pkt(owner=owner))
        sim.run()
        assert switch.packets_received == 8
        assert switch.packets_forwarded == 2
        assert switch.packets_dropped == 3
        assert switch.packets_punted == 1       # the table miss
        assert switch.packets_consumed == 2     # eaten by the chain
        assert ctrl.packet_ins == 1
        assert_conservation(switch)

    def test_miss_without_controller_drops_and_conserves(self):
        switch = make_switch(cached=True)
        switch.process(flow_pkt())
        assert switch.packets_dropped == 1
        assert switch.packets_punted == 0
        assert_conservation(switch)
