"""The discrete-event simulation core.

A :class:`Simulator` owns a priority queue of scheduled callbacks and a
monotonically advancing clock.  All network components
(links, nodes, middleboxes, protocols) schedule callbacks on a shared
simulator instead of sleeping, so experiments are deterministic and run
in milliseconds of wall-clock time.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> sim.schedule(2.0, fired.append, "b")
>>> sim.schedule(1.0, fired.append, "a")
>>> sim.run()
>>> fired
['a', 'b']
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SchedulingInPastError, SimulationError
from repro.netsim.events import EventPriority


#: One heap entry: ``(time, priority, sequence, callback, args)``.  The
#: C ``heapq`` compares these tuples natively, and the unique
#: ``sequence`` decides every tie before ``callback`` or ``args`` is
#: reached, so payloads need not be comparable.  There is no handle
#: object: nothing reads one, and the entry is the event's only
#: allocation.  Both ``schedule`` methods build their entry in line: a
#: shared helper costs a tenth of an event's schedule-to-fire time.
_Entry = tuple[float, int, int, Callable[..., None], tuple[Any, ...]]

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
    ) -> None:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        # One chained comparison rejects negative, NaN and infinite
        # delays alike (every comparison with NaN is false).
        if not 0 <= delay < _INF:
            if delay < 0:
                raise SchedulingInPastError(
                    f"negative delay {delay!r} at t={self._now}"
                )
            raise SimulationError(f"non-finite delay {delay!r}")
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._queue, (float(self._now + delay), int(priority),
                                     sequence, callback, args))

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = _NORMAL,
    ) -> None:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if not self._now <= time < _INF:
            if time < self._now:
                raise SchedulingInPastError(
                    f"cannot schedule at t={time} (now is t={self._now})"
                )
            raise SimulationError(f"non-finite event time {time!r}")
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._queue, (float(time), int(priority), sequence,
                                     callback, args))

    # -- execution -------------------------------------------------------

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if none remain."""
        if not self._queue:
            return False
        time, _, _, callback, args = heapq.heappop(self._queue)
        self._now = time
        self._processed += 1
        callback(*args)
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
                    time, _, _, callback, args = pop(queue)
                    self._now = time
                    self._processed += 1
                    callback(*args)
                return
            queue = self._queue
            fired = 0
            while queue:
                if max_events is not None and fired >= max_events:
                    return
                time = queue[0][0]
                if until is not None and time > until:
                    break
                _, _, _, callback, args = heapq.heappop(queue)
                self._now = time
                self._processed += 1
                fired += 1
                callback(*args)
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` seconds of simulated time from now."""
        if duration < 0:
            raise SimulationError(f"duration must be >= 0, got {duration}")
        self.run(until=self._now + duration)
