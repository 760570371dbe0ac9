"""Struct-of-array (SoA) state tables for vectorized simulation.

The hybrid fluid/packet engine (:mod:`repro.netsim.fluid`) tracks tens
of thousands of concurrent flows per tick.  One Python object per flow
— the array-of-struct layout the rest of ``netsim`` uses for packets —
would put every per-tick update behind attribute lookups and object
churn.  A :class:`SoaTable` instead stores each field as one parallel
column (a ``numpy`` array for numeric fields, a plain list for object
fields), so per-tick math (rate recomputation, residual drain,
completion detection) runs as whole-column vector operations.

Rows are addressed by *slot*: :meth:`~SoaTable.allocate` hands out the
lowest-overhead free slot (LIFO free list, so hot cache lines are
reused) and :meth:`~SoaTable.release` returns it.  Because slots are
recycled, every release bumps the slot's **generation**; asynchronous
consumers (e.g. an in-flight packet event firing after its flow was
torn down) capture ``(slot, generation)`` and check
:meth:`~SoaTable.is_current` before touching columns.

Rows also come and go a batch at a time:
:meth:`~SoaTable.allocate_many` claims ``n`` slots and fills each
column from a vector, :meth:`~SoaTable.release_many` returns a vector
of slots.  Both are defined by the scalar calls — ``allocate_many(n)``
returns the slots ``n`` successive ``allocate()`` calls would, and
leaves the free list, generations and growth exactly as they would —
so slot numbering never depends on which form admitted a row.  Both
are all-or-nothing: a bad argument raises before anything changes.

Columns grow by doubling; callers must re-read column references via
:meth:`~SoaTable.col` after any allocation that may have grown the
table (the engine reads columns once per tick, which is safe because
the population only changes at tick boundaries).
"""

from __future__ import annotations

import numpy as np

#: Numeric column dtypes accepted by :class:`SoaTable`.
_NUMERIC_DTYPES = {"f8": np.float64, "i8": np.int64, "b1": np.bool_}

#: Marker for a Python-object column (stored as a list, not an array).
OBJECT = "obj"


class SoaTable:
    """Parallel columns + a free list: vectorized row storage.

    >>> t = SoaTable({"rate": "f8", "owner": "i8", "spec": "obj"})
    >>> s = t.allocate(rate=2.0, owner=7, spec=("flow", 0))
    >>> t.col("rate")[s]
    2.0
    >>> t.release(s)
    >>> len(t)
    0
    """

    def __init__(self, columns: dict[str, str], capacity: int = 256) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self._capacity = max(8, int(capacity))
        self._numeric: dict[str, np.ndarray] = {}
        self._objects: dict[str, list] = {}
        for name, dtype in columns.items():
            if dtype == OBJECT:
                self._objects[name] = [None] * self._capacity
            elif dtype in _NUMERIC_DTYPES:
                self._numeric[name] = np.zeros(
                    self._capacity, dtype=_NUMERIC_DTYPES[dtype])
            else:
                raise ValueError(
                    f"unknown dtype {dtype!r} for column {name!r}; "
                    f"use one of {sorted(_NUMERIC_DTYPES)} or {OBJECT!r}")
        self._alive = np.zeros(self._capacity, dtype=np.bool_)
        self._generation = np.zeros(self._capacity, dtype=np.int64)
        self._free: list[int] = list(range(self._capacity - 1, -1, -1))
        self._live = 0
        self.high_water = 0
        #: Times the columns were doubled (a capacity-planning signal).
        self.grows = 0

    # -- shape -----------------------------------------------------------

    def __len__(self) -> int:
        return self._live

    @property
    def capacity(self) -> int:
        return self._capacity

    def _grow(self) -> None:
        old = self._capacity
        new = old * 2
        for name, column in self._numeric.items():
            grown = np.zeros(new, dtype=column.dtype)
            grown[:old] = column
            self._numeric[name] = grown
        for name, column in self._objects.items():
            column.extend([None] * old)
        alive = np.zeros(new, dtype=np.bool_)
        alive[:old] = self._alive
        self._alive = alive
        generation = np.zeros(new, dtype=np.int64)
        generation[:old] = self._generation
        self._generation = generation
        self._free.extend(range(new - 1, old - 1, -1))
        self._capacity = new
        self.grows += 1

    # -- row lifecycle ---------------------------------------------------

    def allocate(self, **values) -> int:
        """Claim a slot and initialise the named columns; returns the slot."""
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self._alive[slot] = True
        self._live += 1
        self.high_water = max(self.high_water, self._live)
        for name, value in values.items():
            if name in self._numeric:
                self._numeric[name][slot] = value
            elif name in self._objects:
                self._objects[name][slot] = value
            else:
                raise KeyError(f"no column {name!r}")
        return slot

    def release(self, slot: int) -> None:
        """Return a slot to the free list (its generation advances)."""
        if not self._alive[slot]:
            raise KeyError(f"slot {slot} is not live")
        self._alive[slot] = False
        self._generation[slot] += 1
        self._live -= 1
        # Drop the object references so released rows don't pin payloads.
        for column in self._objects.values():
            column[slot] = None
        self._free.append(slot)

    def allocate_many(self, n: int, **columns) -> np.ndarray:
        """Claim ``n`` slots, filling each named column from a vector.

        A numeric column takes a length-``n`` array or a scalar
        (broadcast); an object column takes a length-``n`` sequence.
        Returns the slots in the order ``n`` successive
        :meth:`allocate` calls would have returned them.
        """
        if n < 0:
            raise ValueError("cannot allocate a negative number of rows")
        for name, values in columns.items():
            if name in self._numeric:
                if np.ndim(values) == 0:
                    continue
            elif name not in self._objects:
                raise KeyError(f"no column {name!r}")
            if len(values) != n:
                raise ValueError(
                    f"column {name!r} has {len(values)} values for {n} rows")
        free = self._free
        if n <= len(free):
            taken = free[len(free) - n:]
            del free[len(free) - n:]
            taken.reverse()
        else:
            # Scalar allocation drains the free list, then each growth
            # hands out its new slots in ascending order.
            taken = free[::-1]
            first_new = self._capacity
            fresh = n - len(taken)
            while self._capacity < first_new + fresh:
                self._grow()
            taken.extend(range(first_new, first_new + fresh))
            free[:] = range(self._capacity - 1, first_new + fresh - 1, -1)
        slots = np.array(taken, dtype=np.int64)
        self._alive[slots] = True
        self._live += n
        self.high_water = max(self.high_water, self._live)
        for name, values in columns.items():
            if name in self._numeric:
                self._numeric[name][slots] = values
            else:
                column = self._objects[name]
                for slot, value in zip(taken, values):
                    column[slot] = value
        return slots

    def release_many(self, slots) -> None:
        """Return ``slots`` to the free list, in argument order."""
        slots = np.asarray(slots, dtype=np.int64)
        if slots.ndim != 1:
            raise ValueError("slots must be one-dimensional")
        if slots.size == 0:
            return
        ordered = np.sort(slots)
        if ordered[0] < 0 or ordered[-1] >= self._capacity:
            raise KeyError(
                f"slots {int(ordered[0])}..{int(ordered[-1])} out of range")
        if not self._alive[slots].all():
            dead = int(slots[~self._alive[slots]][0])
            raise KeyError(f"slot {dead} is not live")
        if (ordered[1:] == ordered[:-1]).any():
            # One slot twice on the free list would later alias two rows.
            raise KeyError("duplicate slot in one release")
        self._alive[slots] = False
        self._generation[slots] += 1
        self._live -= slots.size
        released = slots.tolist()
        for column in self._objects.values():
            for slot in released:
                column[slot] = None
        self._free.extend(released)

    def generation(self, slot: int) -> int:
        """The slot's current generation (captured by async consumers)."""
        return int(self._generation[slot])

    def is_current(self, slot: int, generation: int) -> bool:
        """True iff the slot is live and still on ``generation``."""
        return bool(self._alive[slot]) and self._generation[slot] == generation

    # -- column access ---------------------------------------------------

    def col(self, name: str):
        """The full-capacity column; mask with :meth:`live_slots`.

        Numeric columns are ``numpy`` arrays (mutate in place); object
        columns are plain lists.  References are invalidated by growth,
        so re-read after allocations.
        """
        if name in self._numeric:
            return self._numeric[name]
        if name in self._objects:
            return self._objects[name]
        raise KeyError(f"no column {name!r}")

    def live_slots(self) -> np.ndarray:
        """Live slot indices in ascending order (deterministic)."""
        return np.nonzero(self._alive)[0]

    @property
    def alive(self) -> np.ndarray:
        """The liveness mask (read-only by convention)."""
        return self._alive
