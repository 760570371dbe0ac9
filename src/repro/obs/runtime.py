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
from repro.obs.spans import Span, SpanContext, SpanTracer


class Observability:
    """The live handles: spans + metrics + SLOs/alerts + feature flags."""

    def __init__(
        self,
        trace_spans: bool = True,
        profile_middleboxes: bool = True,
    ) -> None:
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
        #: Create spans at instrumentation sites (control-plane
        #: transactions and traced packets).
        self.trace_spans = trace_spans
        #: Per-middlebox wall-time profiling in pipeline execution.
        self.profile_middleboxes = profile_middleboxes

    # -- convenience forwarding -------------------------------------------

    def span(self, name: str, clock,
             parent: Span | SpanContext | None = None, **attributes):
        """Span scope when tracing is on, else a no-op scope."""
        if not self.trace_spans:
            return contextlib.nullcontext()
        return self.spans.span(name, clock, parent=parent, **attributes)


_current: Observability | None = None


def current() -> Observability | None:
    """The enabled Observability, or None (the common, zero-cost case)."""
    return _current


def enable(trace_spans: bool = True,
           profile_middleboxes: bool = True) -> Observability:
    """Turn observability on process-wide; idempotent (keeps state)."""
    global _current
    if _current is None:
        _current = Observability(trace_spans=trace_spans,
                                 profile_middleboxes=profile_middleboxes)
    else:
        _current.trace_spans = trace_spans
        _current.profile_middleboxes = profile_middleboxes
    return _current


def disable() -> None:
    """Turn observability off process-wide (spans/metrics are dropped)."""
    global _current
    _current = None


@contextlib.contextmanager
def enabled(trace_spans: bool = True,
            profile_middleboxes: bool = True) -> Iterator[Observability]:
    """Scoped enable for tests and benches; restores the prior state."""
    global _current
    previous = _current
    _current = Observability(trace_spans=trace_spans,
                             profile_middleboxes=profile_middleboxes)
    try:
        yield _current
    finally:
        _current = previous
