"""Event records for the discrete-event simulator.

Events fire in ``(time, priority, sequence)`` order.  The sequence
number makes ordering total and deterministic: two events scheduled for
the same instant fire in the order they were scheduled.

The simulator's heap does not hold :class:`Event` objects directly but
``(time, priority, sequence, event)`` tuples, which the C ``heapq``
orders without calling back into Python.  ``sequence`` is unique per
simulator, so a tuple comparison is always decided by the third element
at the latest and never reaches the handle: :class:`Event` defines no
ordering, and its ``callback``/``args`` payloads need not be comparable.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Callable


class EventPriority(enum.IntEnum):
    """Tie-break priority for events scheduled at the same instant.

    Lower values fire first.  ``CONTROL`` lets control-plane actions
    (rule installation, teardown) take effect before data-plane packets
    scheduled for the same instant.
    """

    CONTROL = 0
    NORMAL = 1
    BACKGROUND = 2


@dataclasses.dataclass(eq=False, slots=True)
class Event:
    """The handle to a single scheduled callback.

    ``time``, ``priority`` and ``sequence`` record where the event sits
    in the firing order; the simulator orders its heap on a tuple of
    the same three values, never on the handle itself.  The class is
    slotted: events are the hottest allocation in the simulator, and a
    fixed layout drops the per-event ``__dict__``.
    """

    time: float
    priority: int
    sequence: int
    callback: Callable[..., None]
    args: tuple[Any, ...] = ()
    cancelled: bool = False
    #: Set by the owning simulator so it can count live tombstones and
    #: trigger heap compaction (see ``Simulator.queue_compaction``).
    on_cancel: Callable[["Event"], None] | None = dataclasses.field(
        default=None, repr=False,
    )

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.on_cancel is not None:
            self.on_cancel(self)
