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

    #: Heaps smaller than this are never compacted: a rebuild costs
    #: more than the tombstones it would reclaim.
    COMPACTION_FLOOR = 64

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[_Entry] = []
        self._sequence = 0
        self._running = False
        self._processed = 0
        self._cancelled_pending = 0
        self.compactions = 0

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (cancelled events included)."""
        return len(self._queue)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots (tombstones)."""
        return self._cancelled_pending

    # -- scheduling ------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = _NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        Returns the :class:`Event`, whose :meth:`~Event.cancel` method
        can be used to retract it before it fires.
        """
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
        event = Event(time, priority, sequence, callback, args, False,
                      self._note_cancel)
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
        event = Event(time, priority, sequence, callback, args, False,
                      self._note_cancel)
        heapq.heappush(self._queue, (time, priority, sequence, event))
        return event

    # -- tombstone management ---------------------------------------------

    def _note_cancel(self, event: Event) -> None:
        """Account one cancellation; compact when tombstones dominate.

        Without a bound the heap would grow with every *cancelled*
        event too.  Compaction triggers lazily when over half the heap
        is tombstones, so the amortized cost per cancellation stays
        O(log n).  Cancelling an event that already fired is a counter
        no-op: it has no heap slot left to reclaim.  (Nothing under
        ``src/`` cancels an event today; the path is exercised by the
        tests and the micro-benchmarks.)
        """
        if not self._in_queue(event):
            return
        self._cancelled_pending += 1
        if (len(self._queue) >= self.COMPACTION_FLOOR
                and self._cancelled_pending * 2 > len(self._queue)):
            self.queue_compaction()

    def _in_queue(self, event: Event) -> bool:
        """Whether ``event`` still holds a heap slot, found without
        touching the drain loop: the clock passes an event's time only
        by popping it, so only a same-instant event needs a look at the
        heap, and the heap property bounds that look to the entries
        ordered at or before it."""
        if event.time != self._now:
            return event.time > self._now
        queue = self._queue
        key = (event.time, event.priority, event.sequence)
        stack = [0]
        while stack:
            index = stack.pop()
            if index < len(queue) and queue[index][:3] <= key:
                if queue[index][3] is event:
                    return True
                stack += (2 * index + 1, 2 * index + 2)
        return False

    def queue_compaction(self) -> int:
        """Drop every cancelled event from the heap; returns how many.

        Event ordering is total — ``(time, priority, sequence)`` — so
        re-heapifying the survivors preserves the exact firing order.
        The heap list is *rebound*, not edited in place: a loop that
        pops from it must re-read ``self._queue`` every turn.
        """
        before = len(self._queue)
        self._queue = [entry for entry in self._queue
                       if not entry[3].cancelled]
        heapq.heapify(self._queue)
        removed = before - len(self._queue)
        self._cancelled_pending = 0
        if removed:
            self.compactions += 1
        return removed

    # -- execution -------------------------------------------------------

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if none remain."""
        while self._queue:
            event = heapq.heappop(self._queue)[3]
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            self._now = event.time
            self._processed += 1
            event.callback(*event.args)
            return True
        return False

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
                # The drain loop: one turn per event.  A callback may
                # cancel events and so trigger a compaction, which
                # rebinds ``self._queue`` -- hence no local alias.
                pop = heapq.heappop
                while self._queue:
                    event = pop(self._queue)[3]
                    if event.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    self._now = event.time
                    self._processed += 1
                    event.callback(*event.args)
                return
            fired = 0
            while self._queue:
                if max_events is not None and fired >= max_events:
                    return
                time, _, _, event = self._queue[0]
                if event.cancelled:
                    heapq.heappop(self._queue)
                    self._cancelled_pending -= 1
                    continue
                if until is not None and time > until:
                    break
                heapq.heappop(self._queue)
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
