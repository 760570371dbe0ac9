"""Ordering oracle for the event core, and a link differential.

The simulator keeps ``(time, priority, sequence, callback, args)``
tuples in a C heap and drains them in an inlined loop; a link schedules
a bound ``_deliver`` with per-direction state resolved at construction.
Both are checked here against references that share no code with them:
a list-based simulator that finds the next event with ``min()``, and the
closed-form ``max(now, busy_until) + 8*size/bw + latency``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    ConfigurationError,
    SchedulingInPastError,
    SimulationError,
)
from repro.netsim import Host, Link, Packet, Simulator
from repro.netsim.node import Node
from repro.netsim.queueing import TokenBucket
from repro.units import transmission_delay


# -- the list-based reference ------------------------------------------------


class RefEvent:
    def __init__(self, time, priority, sequence, callback, args):
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args

    @property
    def key(self):
        return (self.time, self.priority, self.sequence)


class RefSimulator:
    """The simulator's contract with a plain list and ``min()``."""

    def __init__(self):
        self.now = 0.0
        self.pending = []
        self.sequence = 0
        self.processed_events = 0

    @property
    def pending_events(self):
        return len(self.pending)

    def schedule(self, delay, callback, *args, priority=1):
        return self.schedule_at(self.now + delay, callback, *args,
                                priority=priority)

    def schedule_at(self, time, callback, *args, priority=1):
        self.pending.append(
            RefEvent(time, priority, self.sequence, callback, args))
        self.sequence += 1

    def pending_keys(self):
        return sorted((*e.key, e.callback, e.args) for e in self.pending)

    def _head(self):
        return min(self.pending, key=lambda e: e.key)

    def _fire(self, event):
        self.pending.remove(event)
        self.now = event.time
        self.processed_events += 1
        event.callback(*event.args)

    def step(self):
        if not self.pending:
            return False
        self._fire(self._head())
        return True

    def run(self, until=None, max_events=None):
        fired = 0
        while self.pending:
            if max_events is not None and fired >= max_events:
                return
            head = self._head()
            if until is not None and head.time > until:
                break
            self._fire(head)
            fired += 1
        if until is not None and until > self.now:
            self.now = until


# -- the program both simulators execute -----------------------------------------


class Unorderable:
    """A payload that makes any comparison reaching it fail loudly."""

    def _refuse(self, other):
        raise AssertionError("the heap compared an event payload")

    __lt__ = __le__ = __gt__ = __ge__ = _refuse


# Few distinct values, so most events tie on time *and* priority and
# only the sequence number separates them.
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5])
PRIORITIES = st.sampled_from([0, 1, 1, 1, 2])
#: What a callback does when it fires: schedule children (the drain
#: loop must see them).
SPAWN = st.lists(st.tuples(DELAYS, PRIORITIES), max_size=2)
INERT = []

OPS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS, PRIORITIES, SPAWN),
    st.tuples(st.just("schedule_at"), DELAYS, PRIORITIES, SPAWN),
    st.tuples(st.just("burst"), st.integers(2, 12), DELAYS, PRIORITIES),
    st.tuples(st.just("run")),
    st.tuples(st.just("run_until"), DELAYS),
    st.tuples(st.just("run_max"), st.integers(0, 5)),
    st.tuples(st.just("step")),
)


class World:
    """Applies one program to one simulator and logs what it observes."""

    def __init__(self, sim):
        self.sim = sim
        self.scheduled = 0
        self.fired = []
        self.log = []

    def _fire(self, ident, payload, guard, spawn):
        assert payload == {"ident": ident} and isinstance(guard, Unorderable)
        self.fired.append((ident, self.sim.now))
        for delay, priority in spawn:
            self._schedule(self.sim.schedule, delay, priority, INERT)

    def _schedule(self, method, when, priority, spawn):
        ident = self.scheduled
        self.scheduled += 1
        assert method(
            when, self._fire, ident, {"ident": ident}, Unorderable(), spawn,
            priority=priority,
        ) is None

    def apply(self, op):
        sim = self.sim
        kind, *rest = op
        if kind == "schedule":
            self._schedule(sim.schedule, *rest)
        elif kind == "schedule_at":
            offset, priority, spawn = rest
            self._schedule(sim.schedule_at, sim.now + offset, priority, spawn)
        elif kind == "burst":
            count, delay, priority = rest
            for _ in range(count):
                self._schedule(sim.schedule, delay, priority, INERT)
        elif kind == "run":
            sim.run()
        elif kind == "run_until":
            sim.run(until=sim.now + rest[0])
        elif kind == "run_max":
            sim.run(max_events=rest[0])
        elif kind == "step":
            self.log.append(("stepped", sim.step()))
        self.log.append((
            kind, len(self.fired), sim.now, sim.processed_events,
            sim.pending_events,
        ))

    def pending(self):
        """``(time, priority, sequence, ident)`` of every queued event;
        the real simulator's read off its heap entries, each of which
        must be ``(time, priority, sequence, callback, args)``."""
        sim = self.sim
        if isinstance(sim, RefSimulator):
            entries = sim.pending_keys()
        else:
            entries = sorted(sim._queue, key=lambda entry: entry[:3])
            assert all(type(entry) is tuple and len(entry) == 5
                       for entry in entries)
        for *_, callback, args in entries:
            assert callback == self._fire and type(args) is tuple
        return [(time, priority, sequence, args[0])
                for time, priority, sequence, _, args in entries]


class TestOrderingOracle:
    @settings(max_examples=300, deadline=None)
    @given(program=st.lists(OPS, max_size=40))
    def test_matches_list_based_reference_after_every_step(self, program):
        real = World(Simulator())
        model = World(RefSimulator())
        for op in program + [("run",)]:
            real.apply(op)
            model.apply(op)
            assert real.log[-1] == model.log[-1], op
            assert real.pending() == model.pending(), op
        assert real.log == model.log
        assert real.fired == model.fired
        assert real.sim.pending_events == 0

    @settings(max_examples=200, deadline=None)
    @given(events=st.lists(st.tuples(DELAYS, PRIORITIES), max_size=60),
           how=st.sampled_from(["run", "until", "max_events", "step"]))
    def test_fired_order_is_sorted_by_time_priority_sequence(self, events, how):
        sim = Simulator()
        fired = []
        for ident, (delay, priority) in enumerate(events):
            sim.schedule(delay, fired.append, ident, priority=priority)
        if how == "run":
            sim.run()
        elif how == "until":
            sim.run(until=1.0)
            sim.run(until=10.0)
        elif how == "max_events":
            while sim.pending_events:
                sim.run(max_events=3)
        else:
            while sim.step():
                pass
        # Scheduled at t=0 in order, so an event's time is its delay
        # and its sequence number is its index.
        expected = sorted(
            (float(delay), priority, ident)
            for ident, (delay, priority) in enumerate(events)
        )
        assert fired == [ident for *_, ident in expected]
        assert sim.processed_events == len(expected)

    def test_schedule_returns_no_handle(self):
        sim = Simulator()
        guard = Unorderable()
        assert sim.schedule(1.0, print, guard) is None
        assert sim.schedule_at(1.0, print, guard, priority=0) is None
        # The heap holds the entries themselves, ordered on their first
        # three fields; the callback and its arguments are payload.
        assert sorted(sim._queue) == [(1.0, 0, 1, print, (guard,)),
                                      (1.0, 1, 0, print, (guard,))]


class TestNonFiniteTimes:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejected_without_touching_queue_or_clock(self, bad):
        sim = Simulator(start_time=1.0)
        sim.schedule(1.0, lambda: None)
        for method in (sim.schedule, sim.schedule_at):
            with pytest.raises(SimulationError):
                method(bad, lambda: None)
        assert sim.pending_events == 1
        sim.run()
        assert sim.now == 2.0 and math.isfinite(sim.now)

    def test_past_times_keep_their_own_error(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SchedulingInPastError):
            sim.schedule(-1e-9, lambda: None)
        with pytest.raises(SchedulingInPastError):
            sim.schedule_at(float("-inf"), lambda: None)
        with pytest.raises(SchedulingInPastError):
            sim.schedule(float("-inf"), lambda: None)

    def test_non_finite_is_not_reported_as_past(self):
        sim = Simulator()
        with pytest.raises(SimulationError) as caught:
            sim.schedule(float("nan"), lambda: None)
        assert not isinstance(caught.value, SchedulingInPastError)

    def test_zero_delay_and_now_still_accepted(self):
        sim = Simulator(start_time=3.0)
        fired = []
        sim.schedule(0, fired.append, "int zero")
        sim.schedule_at(3, fired.append, "int now")
        sim.run()
        assert fired == ["int zero", "int now"]
        assert type(sim.now) is float


# -- link differential ----------------------------------------------------------


class LinkReference:
    """Closed-form per-direction model of one link."""

    def __init__(self, latency, bandwidth_bps, loss_rate, rng,
                 max_queue_delay, shapers):
        self.latency = latency
        self.bandwidth_bps = bandwidth_bps
        self.loss_rate = loss_rate
        self.rng = rng
        self.max_queue_delay = max_queue_delay
        self.shapers = shapers
        self.up = True
        self.busy_until = {"a": 0.0, "b": 0.0}
        self.stats = {side: dict(sent=0, delivered=0, lost=0,
                                 bytes_delivered=0) for side in "ab"}
        self.arrivals = {"a": [], "b": []}     # keyed by *receiving* side

    def send(self, now, side, ident, size):
        stats = self.stats[side]
        stats["sent"] += 1
        if not self.up:
            stats["lost"] += 1
            return "down"
        if (self.max_queue_delay is not None
                and self.busy_until[side] - now > self.max_queue_delay):
            stats["lost"] += 1
            return "overflow"
        start = max(now, self.busy_until[side])
        if self.shapers[side] is not None:
            start += self.shapers[side].delay_for(size, start)
        tx_done = start + transmission_delay(size, self.bandwidth_bps)
        self.busy_until[side] = tx_done
        if self.loss_rate > 0 and self.rng.random() < self.loss_rate:
            stats["lost"] += 1
            return "loss"
        stats["delivered"] += 1
        stats["bytes_delivered"] += size
        peer = "b" if side == "a" else "a"
        self.arrivals[peer].append((tx_done + self.latency, ident))
        return "delivered"


def run_link_program(sends, *, latency=0.002, bandwidth_bps=8e6,
                     loss_rate=0.0, max_queue_delay=None, shaped=(),
                     outages=()):
    """Drive a real link and the reference with one send schedule.

    ``sends`` is ``[(time, side, size)]``; ``outages`` is
    ``[(down_at, up_at)]``.  Returns the branch each send took.
    """
    sim = Simulator()
    hosts = {"a": Host(sim, "a", "10.0.0.1"), "b": Host(sim, "b", "10.0.0.2")}
    link = Link(hosts["a"], hosts["b"], latency=latency,
                bandwidth_bps=bandwidth_bps, loss_rate=loss_rate,
                rng=np.random.default_rng(7), max_queue_delay=max_queue_delay)
    shapers = {"a": None, "b": None}
    for side in shaped:
        link.set_shaper(hosts[side], TokenBucket(2e6, burst_bytes=1500))
        shapers[side] = TokenBucket(2e6, burst_bytes=1500)
    reference = LinkReference(latency, bandwidth_bps, loss_rate,
                              np.random.default_rng(7), max_queue_delay,
                              shapers)
    branches = []
    packets = {}

    def send(ident, side, size):
        peer = "b" if side == "a" else "a"
        packet = Packet(src=hosts[side].ip, dst=hosts[peer].ip, size=size)
        packets[packet.packet_id] = ident
        branches.append(reference.send(sim.now, side, ident, size))
        hosts[side].originate(packet, via=peer)

    def set_up(up):
        reference.up = up
        link.bring_up() if up else link.take_down()

    for down_at, up_at in outages:
        sim.schedule_at(down_at, set_up, False, priority=0)
        sim.schedule_at(up_at, set_up, True, priority=0)
    for ident, (time, side, size) in enumerate(sends):
        sim.schedule_at(time, send, ident, side, size)
    sim.run()

    for side in "ab":
        stats = link.stats_from(hosts[side])
        assert {
            "sent": stats.sent, "delivered": stats.delivered,
            "lost": stats.lost, "bytes_delivered": stats.bytes_delivered,
        } == reference.stats[side], side
        # Stable sort: equal arrival instants keep transmit order, as
        # the event sequence number does.
        expected = sorted(reference.arrivals[side], key=lambda pair: pair[0])
        got = [(p.delivered_at, packets[p.packet_id])
               for p in hosts[side].delivered]
        assert got == expected, side
    return branches


GRID = st.sampled_from([0.0, 0.0005, 0.001, 0.001, 0.002, 0.004, 0.02])
SENDS = st.lists(
    st.tuples(GRID, st.sampled_from("ab"), st.sampled_from([64, 500, 1500])),
    min_size=1, max_size=40,
).map(lambda sends: sorted(sends, key=lambda send: send[0]))


class TestLinkDifferential:
    @settings(max_examples=150, deadline=None)
    @given(sends=SENDS,
           loss_rate=st.sampled_from([0.0, 0.3]),
           max_queue_delay=st.sampled_from([None, 0.0, 0.002]),
           shaped=st.sampled_from(["", "a", "ab"]),
           outages=st.sampled_from([(), ((0.001, 0.003),)]))
    def test_matches_closed_form(self, sends, loss_rate, max_queue_delay,
                                 shaped, outages):
        run_link_program(sends, loss_rate=loss_rate,
                         max_queue_delay=max_queue_delay, shaped=shaped,
                         outages=outages)

    BACK_TO_BACK = [(0.0, "a", 1500)] * 6 + [(0.0, "b", 64)] * 2

    def test_plain_serialisation_both_directions(self):
        assert set(run_link_program(self.BACK_TO_BACK)) == {"delivered"}

    def test_down_branch(self):
        branches = run_link_program(
            [(0.0, "a", 500), (0.002, "a", 500), (0.002, "b", 500),
             (0.004, "a", 500)],
            outages=[(0.001, 0.003)])
        assert branches == ["delivered", "down", "down", "delivered"]

    def test_loss_branch(self):
        branches = run_link_program([(0.0, "a", 500)] * 40, loss_rate=0.3)
        assert {"loss", "delivered"} <= set(branches)

    def test_buffer_overflow_branch(self):
        branches = run_link_program(self.BACK_TO_BACK, max_queue_delay=0.002)
        assert "overflow" in branches and branches[-2:] == ["delivered"] * 2

    def test_shaper_branch_delays_only_its_direction(self):
        branches = run_link_program(
            [(0.0, "a", 1500)] * 3 + [(0.0, "b", 1500)] * 3, shaped="a")
        assert set(branches) == {"delivered"}


class TestLinkEndpoints:
    def test_self_loop_rejected(self):
        host = Host(Simulator(), "h", "10.0.0.1")
        with pytest.raises(ConfigurationError):
            Link(host, host)
        assert host.links == {}

    def test_endpoints_sharing_a_name_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            Link(Host(sim, "twin", "10.0.0.1"), Host(sim, "twin", "10.0.0.2"))

    def test_stranger_gets_the_typed_error(self):
        sim = Simulator()
        a, b = Host(sim, "a", "10.0.0.1"), Host(sim, "b", "10.0.0.2")
        stranger = Node(sim, "c")
        link = Link(a, b)
        packet = Packet(src=a.ip, dst=b.ip)
        for call in (lambda: link.transmit(packet, stranger),
                     lambda: link.stats_from(stranger),
                     lambda: link.other_end(stranger),
                     lambda: link.set_shaper(stranger, None)):
            with pytest.raises(ConfigurationError):
                call()
        assert link.stats_from(a).sent == link.stats_from(b).sent == 0
        assert link.other_end(a) is b and link.other_end(b) is a
