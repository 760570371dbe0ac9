"""Tests for the discrete-event simulator core."""

import pytest

from repro.errors import SchedulingInPastError, SimulationError
from repro.netsim.events import EventPriority
from repro.netsim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.schedule(1.0, fired.append, label)
        sim.run()
        assert fired == list("abcde")

    def test_control_priority_fires_before_normal_at_same_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "data")
        sim.schedule(1.0, fired.append, "ctrl", priority=EventPriority.CONTROL)
        sim.run()
        assert fired == ["ctrl", "data"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator(start_time=10.0)
        fired = []
        sim.schedule_at(12.0, fired.append, "x")
        sim.run()
        assert fired == ["x"] and sim.now == 12.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingInPastError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SchedulingInPastError):
            sim.schedule_at(4.0, lambda: None)

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0


class TestRunBounds:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=2.0)
        assert fired == ["early"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_advances_clock_even_with_empty_queue(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_run_for_relative_duration(self):
        sim = Simulator(start_time=100.0)
        sim.run_for(5.0)
        assert sim.now == 105.0

    def test_run_for_negative_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().run_for(-1.0)

    def test_max_events_bound(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_step_returns_false_when_drained(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_processed_and_pending_counters(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.run()
        assert sim.processed_events == 2
        assert sim.pending_events == 0
