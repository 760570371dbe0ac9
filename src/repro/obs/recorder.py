"""The incident flight recorder.

Audit violations carry ``evidence_spans``; this module gives alerts the
same property.  A :class:`FlightRecorder` keeps **bounded ring buffers**
of recent context per category — tick summaries, metric deltas,
autoscale events, whatever callers :meth:`note` — plus an optional
per-tick metric-delta capture against the live registry.  Memory is
O(categories x capacity) regardless of run length.

When an alert transitions to FIRING, :meth:`freeze` snapshots every
buffer (and, when tracing is on, the most recent finished spans) into a
self-contained :class:`IncidentBundle`:

* :meth:`IncidentBundle.to_jsonl` — one header line, then one line per
  record and per span; greppable and diffable in CI artifacts.
* :meth:`IncidentBundle.to_chrome_trace` — the same evidence as a
  Chrome-trace (Perfetto-loadable) object: spans as complete ("X")
  events, records as instant ("i") events on a per-category track.

:func:`attach` wires a recorder to an :class:`AlertManager` so FIRING
freezes a bundle and RESOLVED is noted into the ``alerts`` category;
``Observability`` does this automatically.
"""

from __future__ import annotations

import collections
import dataclasses
import json
from typing import Deque, Mapping

from repro.obs.alerts import Alert, AlertEvent, AlertManager, FIRING
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer

#: Spans carried as evidence per incident (most recent finished ones).
DEFAULT_SPAN_EVIDENCE = 64
#: Metric deltas kept per capture (largest absolute change first).
DEFAULT_DELTA_TOP = 32

MICROS_PER_SIM_SECOND = 1_000_000.0


@dataclasses.dataclass(frozen=True)
class FlightRecord:
    """One ring-buffer entry."""

    category: str
    now: float
    payload: tuple[tuple[str, object], ...]

    def to_dict(self) -> dict:
        return {"category": self.category, "now": self.now,
                **dict(self.payload)}


@dataclasses.dataclass
class IncidentBundle:
    """A frozen, self-contained evidence package for one alert."""

    alert_name: str
    severity: str
    frozen_at: float
    cause: dict[str, str]
    records: list[dict]
    spans: list[dict]

    def to_jsonl(self, fh) -> int:
        """Write header + records + spans; returns lines written."""
        lines = 0
        header = {
            "kind": "incident",
            "alert": self.alert_name,
            "severity": self.severity,
            "frozen_at": self.frozen_at,
            "cause": dict(sorted(self.cause.items())),
            "records": len(self.records),
            "spans": len(self.spans),
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        lines += 1
        for record in self.records:
            fh.write(json.dumps({"kind": "record", **record},
                                sort_keys=True) + "\n")
            lines += 1
        for span in self.spans:
            fh.write(json.dumps({"kind": "span", **span},
                                sort_keys=True) + "\n")
            lines += 1
        return lines

    def to_chrome_trace(self) -> dict:
        """The bundle as a chrome://tracing / Perfetto object."""
        events: list[dict] = []
        for span in self.spans:
            start = span.get("start", 0.0) or 0.0
            end = span.get("end", start) or start
            duration = max((end - start) * MICROS_PER_SIM_SECOND, 1.0)
            events.append({
                "name": span.get("name", "span"),
                "ph": "X",
                "ts": start * MICROS_PER_SIM_SECOND,
                "dur": duration,
                "pid": span.get("trace_id", "trace"),
                "tid": span.get("span_id", "span"),
                "args": span.get("attributes", {}),
            })
        for record in self.records:
            payload = {key: value for key, value in record.items()
                       if key not in ("category", "now")}
            events.append({
                "name": record.get("category", "record"),
                "ph": "i",
                "s": "g",
                "ts": float(record.get("now", 0.0)) * MICROS_PER_SIM_SECOND,
                "pid": f"incident:{self.alert_name}",
                "tid": record.get("category", "record"),
                "args": payload,
            })
        return {
            "traceEvents": events,
            "metadata": {
                "alert": self.alert_name,
                "severity": self.severity,
                "frozen_at": self.frozen_at,
                "cause": dict(sorted(self.cause.items())),
            },
        }


class FlightRecorder:
    """Bounded per-category ring buffers + incident freezing."""

    def __init__(self, capacity_per_category: int = 256,
                 span_evidence: int = DEFAULT_SPAN_EVIDENCE) -> None:
        if capacity_per_category < 1:
            raise ValueError("capacity_per_category must be >= 1")
        self.capacity = capacity_per_category
        self.span_evidence = span_evidence
        self._buffers: dict[str, Deque[FlightRecord]] = {}
        self._metric_marks: dict[tuple[str, tuple[tuple[str, str], ...]],
                                 float] = {}
        self.incidents: list[IncidentBundle] = []

    # -- recording ---------------------------------------------------------

    def note(self, category: str, now: float, **payload: object) -> None:
        """Append one record to a category's ring buffer."""
        buffer = self._buffers.get(category)
        if buffer is None:
            buffer = collections.deque(maxlen=self.capacity)
            self._buffers[category] = buffer
        buffer.append(FlightRecord(
            category=category, now=now,
            payload=tuple(sorted(payload.items()))))

    def capture_metrics(self, registry: MetricsRegistry, now: float,
                        prefixes: tuple[str, ...] = (),
                        top: int = DEFAULT_DELTA_TOP) -> int:
        """Record the largest metric deltas since the last capture.

        One ring-buffer record per call (category ``metrics``) holding
        up to ``top`` changed samples, so a capture per tick stays
        bounded no matter how wide the registry is.  Returns the number
        of changed samples seen.
        """
        deltas: list[tuple[float, str, str]] = []
        for sample in registry.collect():
            if prefixes and not sample.name.startswith(prefixes):
                continue
            key = (sample.name, sample.labels)
            previous = self._metric_marks.get(key, 0.0)
            if sample.value != previous:
                label_text = ",".join(
                    f"{name}={value}" for name, value in sample.labels)
                deltas.append((sample.value - previous, sample.name,
                               label_text))
            self._metric_marks[key] = sample.value
        if deltas:
            deltas.sort(key=lambda item: (-abs(item[0]), item[1], item[2]))
            self.note(
                "metrics", now,
                changed=len(deltas),
                deltas=[{"metric": name, "labels": labels,
                         "delta": round(delta, 9)}
                        for delta, name, labels in deltas[:top]])
        return len(deltas)

    def records(self, category: str | None = None) -> list[FlightRecord]:
        if category is not None:
            return list(self._buffers.get(category, ()))
        merged: list[FlightRecord] = []
        for name in sorted(self._buffers):
            merged.extend(self._buffers[name])
        merged.sort(key=lambda record: (record.now, record.category))
        return merged

    # -- freezing ----------------------------------------------------------

    def freeze(self, alert: Alert, now: float,
               tracer: SpanTracer | None = None) -> IncidentBundle:
        """Snapshot every buffer (and recent spans) into a bundle."""
        spans: list[dict] = []
        if tracer is not None:
            finished = tracer.finished()
            spans = [span.to_dict()
                     for span in finished[-self.span_evidence:]]
        bundle = IncidentBundle(
            alert_name=alert.name,
            severity=alert.severity,
            frozen_at=now,
            cause=dict(alert.cause),
            records=[record.to_dict() for record in self.records()],
            spans=spans,
        )
        self.incidents.append(bundle)
        return bundle


def attach(alerts: AlertManager, recorder: FlightRecorder,
           tracer: SpanTracer | None = None) -> None:
    """Subscribe ``recorder`` to ``alerts``: FIRING freezes a bundle,
    every transition is noted into the ``alerts`` category."""

    def _on_transition(alert: Alert, event: AlertEvent) -> None:
        recorder.note("alerts", event.now, alert=event.name,
                      state=event.state, severity=event.severity,
                      cause=dict(event.cause))
        if event.state == FIRING:
            recorder.freeze(alert, event.now, tracer=tracer)

    alerts.listeners.append(_on_transition)
