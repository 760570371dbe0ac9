"""Causal span tracing.

A :class:`Span` is one timed operation — a discovery flood, a
deployment install, one middlebox hop — with a parent link, so a full
device request renders as a single trace tree: DHCP discovery →
negotiation → embedding → per-hop middlebox processing → audit
verdict.  Spans carry *two* clocks: simulation time (``start``/``end``,
the semantics of the experiment) and wall time
(``wall_start``/``wall_end``, the profiling view of where the Python
runtime actually spends its time).

Causality propagates two ways:

* **in-process** — a thread-local-style stack of active spans; a new
  span parents to the innermost active one unless told otherwise.
* **on packets** — :func:`inject` stores the :class:`SpanContext` under
  ``packet.metadata[SPAN_KEY]``; the PVN datapath extracts it and
  parents its per-hop spans there, so one traced request stays one
  tree across the control/data-plane boundary.

Span and trace ids are deterministic counters (this is a seeded
simulation; random ids would break replay diffing).

This module is stdlib-only: no repro imports, so every layer may use
it without cycles.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from typing import Any, Iterator, MutableMapping

#: Packet-metadata key under which a SpanContext rides the datapath.
SPAN_KEY = "obs_span"

#: Span status values.
STATUS_OK = "ok"
STATUS_ERROR = "error"


@dataclasses.dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span: which trace, which node."""

    trace_id: str
    span_id: str


@dataclasses.dataclass
class Span:
    """One timed, attributed operation in a trace tree."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str = ""
    start: float = 0.0              # simulation seconds
    end: float | None = None
    wall_start: float = 0.0         # time.perf_counter() seconds
    wall_end: float | None = None
    status: str = STATUS_OK
    attributes: dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def duration(self) -> float:
        """Sim-time duration (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def wall_duration(self) -> float:
        """Wall-time duration (0.0 while still open)."""
        return ((self.wall_end - self.wall_start)
                if self.wall_end is not None else 0.0)

    def set(self, **attributes: Any) -> "Span":
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable form (the JSONL exporter's row)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "wall_duration": self.wall_duration,
            "status": self.status,
            "attributes": dict(self.attributes),
        }


def inject(metadata: MutableMapping[str, Any], span: Span) -> None:
    """Attach ``span``'s context to a packet's metadata."""
    metadata[SPAN_KEY] = span.context


def extract(metadata: MutableMapping[str, Any]) -> SpanContext | None:
    """The carried SpanContext, or None for untraced packets."""
    context = metadata.get(SPAN_KEY)
    return context if isinstance(context, SpanContext) else None


class SpanTracer:
    """Collects spans and maintains the active-span stack."""

    def __init__(self) -> None:
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._stack: list[Span] = []
        self.spans: list[Span] = []      # every started span, start order

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def current(self) -> Span | None:
        """The innermost active span (None outside any span)."""
        return self._stack[-1] if self._stack else None

    # -- span lifecycle ----------------------------------------------------

    def start_span(
        self,
        name: str,
        now: float,
        parent: Span | SpanContext | None = None,
        **attributes: Any,
    ) -> Span:
        """Open a span at sim-time ``now``.

        With no explicit ``parent`` the innermost active span (if any)
        is the parent; a new root starts a fresh trace id.  The caller
        must :meth:`end_span` it (or use :meth:`span`).
        """
        if parent is None:
            parent = self.current
        if parent is None:
            trace_id = f"t{next(self._trace_ids)}"
            parent_id = ""
        else:
            context = parent.context if isinstance(parent, Span) else parent
            trace_id = context.trace_id
            parent_id = context.span_id
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=f"s{next(self._span_ids)}",
            parent_id=parent_id,
            start=now,
            wall_start=time.perf_counter(),
            attributes=dict(attributes),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end_span(self, span: Span, now: float,
                 status: str = STATUS_OK, **attributes: Any) -> Span:
        """Close ``span`` at sim-time ``now`` and pop it off the stack."""
        span.end = now
        span.wall_end = time.perf_counter()
        span.status = status
        if attributes:
            span.attributes.update(attributes)
        if span in self._stack:
            # Pop through to the span (tolerates a child left open by an
            # exception unwinding past it).
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()
            if self._stack:
                self._stack.pop()
        return span

    def span(self, name: str, clock, **attributes: Any) -> "_SpanScope":
        """Context manager: ``with tracer.span("x", lambda: sim.now):``.

        ``clock`` is a zero-argument callable sampled at entry and exit
        (sim time moves while the body runs).  An exception marks the
        span ``error`` and re-raises.
        """
        return _SpanScope(self, name, clock, attributes)

    # -- detached spans (synthesized after the fact) -----------------------

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        parent: Span | SpanContext | None = None,
        status: str = STATUS_OK,
        **attributes: Any,
    ) -> Span:
        """Append an already-finished span without touching the stack.

        The datapath uses this to synthesize per-hop middlebox spans
        from a compiled pipeline's result — per-hop timing is known
        exactly from the prefix delays, so no hot-loop hooks are needed.
        """
        if parent is None:
            parent = self.current
        if parent is None:
            trace_id = f"t{next(self._trace_ids)}"
            parent_id = ""
        else:
            context = parent.context if isinstance(parent, Span) else parent
            trace_id = context.trace_id
            parent_id = context.span_id
        wall = time.perf_counter()
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=f"s{next(self._span_ids)}",
            parent_id=parent_id,
            start=start,
            end=end,
            wall_start=wall,
            wall_end=wall,
            status=status,
            attributes=dict(attributes),
        )
        self.spans.append(span)
        return span

    # -- queries -----------------------------------------------------------

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s.end is not None]

    def children_of(self, span: Span | SpanContext) -> list[Span]:
        context = span.context if isinstance(span, Span) else span
        return [s for s in self.spans if s.parent_id == context.span_id]

    def roots(self) -> list[Span]:
        return [s for s in self.spans if not s.parent_id]

    def tree(self, root: Span) -> dict[str, Any]:
        """The nested dict form of ``root``'s subtree."""
        node = root.to_dict()
        node["children"] = [self.tree(child)
                            for child in self.children_of(root)]
        return node

    def walk(self, root: Span) -> Iterator[Span]:
        """Depth-first traversal of ``root``'s subtree (root included)."""
        yield root
        for child in self.children_of(root):
            yield from self.walk(child)

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()


class _SpanScope:
    """The ``with`` adapter returned by :meth:`SpanTracer.span`."""

    __slots__ = ("_tracer", "_name", "_clock", "_attributes", "span")

    def __init__(self, tracer: SpanTracer, name: str, clock,
                 attributes: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._clock = clock
        self._attributes = attributes
        self.span: Span | None = None

    def __enter__(self) -> Span:
        self.span = self._tracer.start_span(
            self._name, self._clock(), **self._attributes,
        )
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        status = STATUS_OK if exc_type is None else STATUS_ERROR
        attributes = {} if exc is None else {"error": repr(exc)}
        self._tracer.end_span(self.span, self._clock(), status=status,
                              **attributes)
