"""The discrete-event simulation core.

A :class:`Simulator` owns a priority queue of :class:`~repro.netsim.events.Event`
records and a monotonically advancing clock.  All network components
(links, nodes, middleboxes, protocols) schedule callbacks on a shared
simulator instead of sleeping, so experiments are deterministic and run
in milliseconds of wall-clock time.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> _ = sim.schedule(2.0, fired.append, "b")
>>> _ = sim.schedule(1.0, fired.append, "a")
>>> sim.run()
>>> fired
['a', 'b']
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SchedulingInPastError, SimulationError
from repro.netsim.events import Event, EventPriority


#: One heap entry.  The C ``heapq`` compares these tuples natively; the
#: unique ``sequence`` decides every tie before the handle is reached.
#: Both ``schedule`` methods build their entry in line, and pass the
#: handle's fields positionally: a shared helper or a keyword call
#: costs a tenth of an event's whole schedule-to-fire time.
_Entry = tuple[float, int, int, Event]

_INF = float("inf")
_NORMAL = int(EventPriority.NORMAL)


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial clock value in seconds (default 0.0).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[_Entry] = []
        self._sequence = 0
        self._running = False
        self._processed = 0

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events fired so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    # -- scheduling ------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = _NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        # One chained comparison rejects negative, NaN and infinite
        # delays alike (every comparison with NaN is false).
        if not 0 <= delay < _INF:
            if delay < 0:
                raise SchedulingInPastError(
                    f"negative delay {delay!r} at t={self._now}"
                )
            raise SimulationError(f"non-finite delay {delay!r}")
        time = float(self._now + delay)
        sequence = self._sequence
        self._sequence = sequence + 1
        priority = int(priority)
        event = Event(time, priority, sequence, callback, args)
        heapq.heappush(self._queue, (time, priority, sequence, event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = _NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if not self._now <= time < _INF:
            if time < self._now:
                raise SchedulingInPastError(
                    f"cannot schedule at t={time} (now is t={self._now})"
                )
            raise SimulationError(f"non-finite event time {time!r}")
        time = float(time)
        sequence = self._sequence
        self._sequence = sequence + 1
        priority = int(priority)
        event = Event(time, priority, sequence, callback, args)
        heapq.heappush(self._queue, (time, priority, sequence, event))
        return event

    # -- execution -------------------------------------------------------

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if none remain."""
        if not self._queue:
            return False
        event = heapq.heappop(self._queue)[3]
        self._now = event.time
        self._processed += 1
        event.callback(*event.args)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        ``until`` is an absolute simulation time; when given, the clock
        is advanced to exactly ``until`` even if the queue drains early,
        which makes fixed-horizon experiments reproducible.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        try:
            if until is None and max_events is None:
                # The drain loop: one turn per event.
                queue = self._queue
                pop = heapq.heappop
                while queue:
                    event = pop(queue)[3]
                    self._now = event.time
                    self._processed += 1
                    event.callback(*event.args)
                return
            queue = self._queue
            fired = 0
            while queue:
                if max_events is not None and fired >= max_events:
                    return
                time, _, _, event = queue[0]
                if until is not None and time > until:
                    break
                heapq.heappop(queue)
                self._now = time
                self._processed += 1
                fired += 1
                event.callback(*event.args)
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` seconds of simulated time from now."""
        if duration < 0:
            raise SimulationError(f"duration must be >= 0, got {duration}")
        self.run(until=self._now + duration)
