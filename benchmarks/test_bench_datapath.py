"""Benchmarks of the compiled fast path: flow cache + pipelines.

Two families:

* **Flow lookup** — an ingress switch with one owner-scoped PVN rule
  per subscriber, at 10/100/1000 installed PVNs.  The linear baseline
  replays the schedule as one ``table.lookup`` scan per packet; the
  switch's cached path is an exact-match dict hit plus a pre-compiled
  closure.  The acceptance bar from the datapath refactor: >= 3x
  throughput at 1000 PVNs.
* **Chain execution** — a compiled three-hop service chain with a
  pooled context, at the same PVN scales, to catch regressions in the
  pipeline compiler itself.

These complement ``test_bench_micro.py`` (single-lookup latency) by
measuring sustained packets/sec with steady-state caches.
"""

import time

import pytest

from repro.netsim import Packet, Simulator
from repro.nfv import ChainHop, Container, ServiceChain
from repro.nfv.middlebox import Middlebox
from repro.sdn.actions import Drop
from repro.sdn.flowtable import FlowRule
from repro.sdn.match import Match
from repro.sdn import SdnSwitch

PVN_COUNTS = (10, 100, 1000)
FLOWS = 64
PACKETS = 2048


def build_switch(n_rules):
    switch = SdnSwitch(Simulator(), "ingress")
    for i in range(n_rules):
        switch.table.install(FlowRule(
            match=Match(owner=f"user{i}"),
            actions=(Drop(reason="bench"),),
            pvn_id=f"user{i}/pvn",
        ))
    return switch


def packet_schedule(n_rules):
    return [
        Packet(src="10.0.0.1", dst="198.51.100.5", dst_port=443,
               owner=f"user{((i % FLOWS) * n_rules) // FLOWS % n_rules}")
        for i in range(PACKETS)
    ]


def replay_pps(switch, packets):
    process = switch.process
    start = time.perf_counter()
    for packet in packets:
        process(packet)
    elapsed = time.perf_counter() - start
    return len(packets) / elapsed if elapsed > 0 else float("inf")


def linear_replay_pps(table, packets):
    """The uncached baseline: one linear ``table.lookup`` per packet."""
    lookup = table.lookup
    start = time.perf_counter()
    for packet in packets:
        lookup(packet)
    elapsed = time.perf_counter() - start
    return len(packets) / elapsed if elapsed > 0 else float("inf")


@pytest.mark.parametrize("n_rules", PVN_COUNTS)
def test_bench_flow_lookup_cached(benchmark, n_rules):
    switch = build_switch(n_rules)
    packets = packet_schedule(n_rules)
    replay_pps(switch, packets)            # warm the cache
    benchmark.pedantic(replay_pps, args=(switch, packets),
                       rounds=3, iterations=1)
    assert switch.flow_cache.hit_rate > 0.9


@pytest.mark.parametrize("n_rules", PVN_COUNTS)
def test_bench_flow_lookup_linear(benchmark, n_rules):
    table = build_switch(n_rules).table
    packets = packet_schedule(n_rules)
    replays = 0

    def replay(table, packets):
        # Counted here: a disabled benchmark runs one round, not three.
        nonlocal replays
        replays += 1
        return linear_replay_pps(table, packets)

    benchmark.pedantic(replay, args=(table, packets), rounds=3, iterations=1)
    assert replays >= 1
    assert (sum(rule.packets_matched for rule in table.rules)
            == replays * PACKETS)


def test_flow_cache_speedup_at_1000_pvns():
    """The refactor's acceptance bar: >= 3x at 1000 installed PVNs."""
    packets = packet_schedule(1000)
    linear = build_switch(1000).table
    cached = build_switch(1000)
    linear_pps = max(linear_replay_pps(linear, packets) for _ in range(3))
    cached_pps = max(replay_pps(cached, packets) for _ in range(3))
    assert cached_pps >= 3 * linear_pps, (
        f"flow cache speedup {cached_pps / linear_pps:.2f}x below the "
        f"3x bar ({cached_pps:,.0f} vs {linear_pps:,.0f} pkts/s)"
    )


def test_cached_throughput_flat_in_pvn_count():
    """Cached pkts/s must not degrade with table size (O(1) lookup)."""
    rates = {}
    for n_rules in (10, 1000):
        switch = build_switch(n_rules)
        packets = packet_schedule(n_rules)
        rates[n_rules] = max(replay_pps(switch, packets) for _ in range(3))
    # Generous bound: 100x more rules may cost at most 2x throughput
    # (noise allowance); the linear path degrades ~20x here.
    assert rates[1000] >= 0.5 * rates[10], rates


@pytest.mark.parametrize("n_rules", PVN_COUNTS)
def test_bench_chain_execution(benchmark, n_rules):
    """Compiled 3-hop chain throughput via the pooled executor."""
    hops = []
    for name in ("mb_a", "mb_b", "mb_c"):
        container = Container(Middlebox(name), owner="alice")
        container.start_immediately(now=0.0)
        hops.append(ChainHop(container))
    chain = ServiceChain("bench", hops)
    executor = chain.as_executor()
    packets = packet_schedule(n_rules)

    def run():
        for packet in packets:
            executor(packet, "bench")
        return chain.packets_in

    processed = benchmark.pedantic(run, rounds=3, iterations=1)
    assert processed >= PACKETS
    assert chain.packets_dropped == 0
