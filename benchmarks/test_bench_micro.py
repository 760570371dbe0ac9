"""Microbenchmarks of the substrate hot paths.

Unlike the experiment benches (single replays), these measure
throughput of the primitives every experiment leans on: the event
loop, flow-table lookup, chain traversal, PII scanning, and the TCP
rounds model.  They exist to catch performance regressions in the
substrates, not to reproduce paper claims.
"""

import numpy as np

from repro.middleboxes import PiiDetector, TrafficClassifier
from repro.netsim import (
    Packet,
    PathCharacteristics,
    Simulator,
    simulate_transfer,
)
from repro.nfv import ChainHop, Container, ProcessingContext, ServiceChain
from repro.sdn import Drop, FlowRule, FlowTable, Match, Output


def test_bench_micro_event_loop(benchmark):
    """Schedule+fire 10k events."""

    def run():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(float(i) * 1e-6, lambda: None)
        sim.run()
        return sim.processed_events

    assert benchmark(run) == 10_000


def test_bench_micro_event_loop_with_cancellations(benchmark):
    """10k fired + 25k retracted events (retry timers that never fire):
    tombstone compaction keeps the heap bounded instead of letting
    cancelled entries accumulate."""

    def run():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(float(i) * 1e-6, lambda: None)
        doomed = [sim.schedule(1.0 + float(i) * 1e-6, lambda: None)
                  for i in range(25_000)]
        for event in doomed:
            event.cancel()
        sim.run()
        return sim

    sim = benchmark(run)
    assert sim.processed_events == 10_000
    assert sim.compactions >= 1
    assert sim.pending_events == 0
    assert sim.cancelled_pending == 0


def test_bench_micro_event_loop_steady_depth(benchmark):
    """20k events through a heap held at 512 pending, each event
    rescheduling itself: the depth and shape ``steady_mix`` runs at
    (a preloaded heap that only drains never sifts this deep)."""
    depth, total = 512, 20_000

    def run():
        sim = Simulator()
        left = [total - depth]

        def tick():
            if left[0] > 0:
                left[0] -= 1
                sim.schedule(1e-3, tick)

        for i in range(depth):
            sim.schedule(i * 1e-6, tick)
        assert sim.pending_events == depth
        sim.run()
        return sim.processed_events

    assert benchmark(run) == total


def test_event_heap_orders_without_python_comparisons(monkeypatch):
    """A 10k-event run makes no Python-level comparison: the heap holds
    tuples the C ``heapq`` orders natively, and the unique sequence
    number settles every tie before the ``Event`` handle is reached."""
    import collections

    from repro.netsim.events import Event

    calls = collections.Counter()
    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__"):
        def hook(self, other, _name=name, _inherited=getattr(Event, name)):
            calls[_name] += 1
            return _inherited(self, other)

        monkeypatch.setattr(Event, name, hook)

    sim = Simulator()
    for i in range(10_000):
        # Eight instants and two priorities: ties all the way down.
        sim.schedule((i % 8) * 1e-3, lambda: None, priority=i % 2)
    sim.run()
    assert sim.processed_events == 10_000
    assert not calls, dict(calls)


def test_netsim_hot_structures_are_slotted():
    """The per-event allocation guard: Event and Packet carry no
    per-instance ``__dict__`` (reduced allocation, fixed layout)."""
    import pytest

    from repro.netsim.events import Event

    event = Event(time=0.0, priority=1, sequence=0, callback=lambda: None)
    packet = Packet(src="10.0.0.1", dst="8.8.8.8")
    for hot in (event, packet):
        assert not hasattr(hot, "__dict__"), type(hot).__name__
        with pytest.raises(AttributeError):
            hot.not_a_field = 1
    # What the heap really holds: a plain tuple keyed ahead of the
    # handle, ordered by the C tuple comparison.
    sim = Simulator()
    data = sim.schedule(0.0, lambda: None, priority=1)
    ctrl = sim.schedule(0.0, lambda: None, priority=0)
    entries = sorted(sim._queue)
    assert all(type(entry) is tuple for entry in entries)
    assert [entry[3] for entry in entries] == [ctrl, data]
    assert entries[0][:3] == (ctrl.time, ctrl.priority, ctrl.sequence)
    assert packet.copy().five_tuple() == packet.five_tuple()


def test_bench_micro_flowtable_lookup(benchmark):
    """Lookup against a 500-rule table (worst case: match at the end)."""
    table = FlowTable()
    for i in range(500):
        table.install(FlowRule(
            match=Match(dst_port=i + 1000, owner=f"user{i}"),
            actions=(Drop(),), priority=100,
        ))
    table.install(FlowRule(match=Match(), actions=(Output("gw"),),
                           priority=1))
    packet = Packet(src="10.0.0.1", dst="8.8.8.8", dst_port=7, owner="zz")

    rule = benchmark(table.lookup, packet)
    assert rule is not None
    assert rule.priority == 1


def test_bench_micro_chain_traversal(benchmark):
    """One packet through a 4-hop chain."""
    def running(mb):
        container = Container(mb, owner="alice")
        container.start_immediately(0.0)
        return ChainHop(container)

    chain = ServiceChain("bench", [
        running(TrafficClassifier()) for _ in range(4)
    ])
    context = ProcessingContext(now=0.0, owner="alice")

    def run():
        packet = Packet(src="10.0.0.1", dst="8.8.8.8", owner="alice")
        return chain.process(packet, context)

    result = benchmark(run)
    assert result.packet is not None


def test_bench_micro_pii_scan(benchmark):
    """Pattern scan over a 4 KB body with embedded PII."""
    detector = PiiDetector(mode="detect")
    body = (b"filler=" + b"x" * 4000
            + b"&email=someone@example.com&phone=617-555-0000")

    hits = benchmark(detector.scan, body)
    assert len(hits) == 2


def test_bench_micro_tcp_rounds_model(benchmark):
    """One 1 MB transfer simulation on a lossy path."""
    path = PathCharacteristics(rtt=0.05, loss_rate=0.01, bandwidth_bps=40e6)

    def run():
        return simulate_transfer(1_000_000, path,
                                 rng=np.random.default_rng(1))

    result = benchmark(run)
    assert result.timeline[-1][1] == 1_000_000
