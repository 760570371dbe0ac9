"""The observability switchboard.

One process-global :class:`Observability` handle (or None when
disabled) bundles the span tracer and the metrics registry.
Instrumentation sites across netsim/sdn/nfv/core do::

    obs = runtime.current()
    if obs is not None:
        ...

so the disabled cost is one module-global read and a None test — below
measurement noise on the datapath bench (asserted by
``benchmarks/test_bench_obs.py``).  No component holds a stale handle:
sites re-read :func:`current` at use, so ``enable()``/``disable()``
apply immediately, mid-world.

The default is **disabled**: experiments and tests run exactly the
PR 3 code path unless something opts in (`python -m repro obs ...`,
a bench, or a test's ``enabled()`` scope).
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.obs import recorder as recorder_mod
from repro.obs.alerts import AlertManager
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SloEngine
from repro.obs.spans import SpanTracer


class Observability:
    """The live handles: spans + metrics + SLOs/alerts + flight recorder.

    Enabled, it traces control-plane transactions and traced packets as
    spans and profiles each middlebox hop's wall time."""

    def __init__(self) -> None:
        self.spans = SpanTracer()
        self.metrics = MetricsRegistry()
        #: The judgment layer (all passive until specs/rules register):
        #: SLO windows, the alert lifecycle, and the flight recorder,
        #: pre-wired so FIRING freezes an incident bundle with the most
        #: recent finished spans as evidence.
        self.slo = SloEngine(metrics=self.metrics)
        self.alerts = AlertManager(metrics=self.metrics)
        self.recorder = FlightRecorder()
        recorder_mod.attach(self.alerts, self.recorder, tracer=self.spans)


_current: Observability | None = None

#: The scope :func:`span` returns while observability is off: one shared
#: ``nullcontext``, reusable and re-entrant, that yields None.
_NULL_SCOPE = contextlib.nullcontext()


def current() -> Observability | None:
    """The enabled Observability, or None (the common, zero-cost case)."""
    return _current


def span(name: str, clock, **attributes):
    """A span scope on the enabled tracer (it yields the span), or the
    shared no-op scope (it yields None) while observability is off."""
    if _current is None:
        return _NULL_SCOPE
    return _current.spans.span(name, clock, **attributes)


def enable() -> Observability:
    """Turn observability on process-wide; idempotent (keeps state)."""
    global _current
    if _current is None:
        _current = Observability()
    return _current


def disable() -> None:
    """Turn observability off process-wide (spans/metrics are dropped)."""
    global _current
    _current = None


@contextlib.contextmanager
def enabled() -> Iterator[Observability]:
    """Scoped enable for tests and benches; restores the prior state."""
    global _current
    previous = _current
    _current = Observability()
    try:
        yield _current
    finally:
        _current = previous
