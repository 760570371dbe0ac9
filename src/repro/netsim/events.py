"""Event ordering for the discrete-event simulator.

Events fire in ``(time, priority, sequence)`` order.  The sequence
number makes ordering total and deterministic: two events scheduled for
the same instant fire in the order they were scheduled.

An event is no object of its own: the simulator's heap holds
``(time, priority, sequence, callback, args)`` tuples, which the C
``heapq`` orders without calling back into Python.  ``sequence`` is
unique per simulator, so a tuple comparison is always decided by the
third element at the latest and never reaches the callback or its
arguments, which therefore need not be comparable.
"""

from __future__ import annotations

import enum


class EventPriority(enum.IntEnum):
    """Tie-break priority for events scheduled at the same instant.

    Lower values fire first.  ``CONTROL`` lets control-plane actions
    (rule installation, teardown) take effect before data-plane packets
    scheduled for the same instant.
    """

    CONTROL = 0
    NORMAL = 1
    BACKGROUND = 2
