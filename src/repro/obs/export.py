"""Exporters: spans → JSONL / Chrome-trace, metrics → Prometheus / JSONL.

The Chrome-trace output is the ``chrome://tracing`` / Perfetto JSON
object format: complete (``"ph": "X"``) events with microsecond
timestamps.  Sim time maps to the trace clock (1 sim second = 1e6
trace microseconds); each trace tree gets its own ``pid`` row and
spans nest by timestamp containment, so one device request renders as
the familiar flame of discovery → deployment → per-hop middlebox
processing.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, TextIO

from repro.obs.metrics import MetricsRegistry, Sample
from repro.obs.spans import Span

#: Trace-clock microseconds per simulation second.
MICROS_PER_SIM_SECOND = 1_000_000.0


# -- spans ----------------------------------------------------------------

def spans_to_jsonl(spans: Iterable[Span], out: TextIO) -> int:
    """One JSON object per line per finished span; returns the count."""
    written = 0
    for span in spans:
        if span.end is None:
            continue
        out.write(json.dumps(span.to_dict(), sort_keys=True))
        out.write("\n")
        written += 1
    return written


def spans_to_chrome_trace(spans: Iterable[Span]) -> dict[str, Any]:
    """The Chrome-trace JSON object for ``spans``.

    Every trace id becomes one process row (named after its root span)
    so independent trace trees don't interleave; zero-duration spans
    get a 1us floor so Perfetto renders them clickable.
    """
    finished = [s for s in spans if s.end is not None]
    pids: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    for span in finished:
        pid = pids.setdefault(span.trace_id, len(pids) + 1)
        duration = max(1.0, span.duration * MICROS_PER_SIM_SECOND)
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": span.start * MICROS_PER_SIM_SECOND,
            "dur": duration,
            "pid": pid,
            "tid": 1,
            "args": {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "status": span.status,
                "wall_duration": span.wall_duration,
                **{k: _jsonable(v) for k, v in span.attributes.items()},
            },
        })
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 1,
            "args": {"name": f"trace {trace_id}"},
        }
        for trace_id, pid in pids.items()
    ]
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulation seconds x 1e6"},
    }


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# -- metrics --------------------------------------------------------------

def _label_rank(name: str, value: str):
    # le label values sort numerically so histogram buckets stay in
    # ascending-bound order ("10" after "2", "+Inf" last).
    if name == "le":
        bound = float("inf") if value == "+Inf" else float(value)
        return (name, 1, bound, "")
    return (name, 0, 0.0, value)


def _sample_sort_key(sample: Sample, families: dict[str, Any]):
    family = _family_of(sample, families)
    family_name = family.name if family is not None else sample.name
    label_key = tuple(_label_rank(name, value)
                      for name, value in sample.labels)
    return (family_name, sample.name, label_key)


def deterministic_samples(registry: MetricsRegistry) -> list[Sample]:
    """Registry samples in a total, stable order.

    Sorted by family name first (so Prometheus ``# TYPE`` headers group
    a family's suffixed samples together — a plain sample-name sort
    would interleave ``repro_ab_total`` between ``repro_a_bucket`` and
    ``repro_a_count``), then sample name, then label key/value with
    ``le`` compared numerically.
    """
    families = {m.name: m for m in registry.families()}
    return sorted(registry.collect(),
                  key=lambda s: _sample_sort_key(s, families))


def _render_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '{}="{}"'.format(name, value.replace("\\", "\\\\").replace('"', '\\"'))
        for name, value in labels
    )
    return "{" + inner + "}"


def _render_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def metrics_to_prometheus(registry: MetricsRegistry, out: TextIO) -> int:
    """Prometheus text exposition format 0.0.4; returns the line count."""
    lines = 0
    emitted_header: set[str] = set()
    families = {m.name: m for m in registry.families()}
    for sample in deterministic_samples(registry):
        base = _family_of(sample, families)
        if base is not None and base.name not in emitted_header:
            emitted_header.add(base.name)
            if base.help:
                out.write(f"# HELP {base.name} {base.help}\n")
                lines += 1
            out.write(f"# TYPE {base.name} {base.kind}\n")
            lines += 1
        out.write(f"{sample.name}{_render_labels(sample.labels)} "
                  f"{_render_value(sample.value)}\n")
        lines += 1
    return lines


def _family_of(sample: Sample, families: dict[str, Any]):
    name = sample.name
    for suffix in ("_total", "_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in families:
            return families[name[: -len(suffix)]]
    return families.get(name)


def metrics_to_jsonl(registry: MetricsRegistry, out: TextIO) -> int:
    """One JSON object per exposition row; returns the count."""
    written = 0
    for sample in deterministic_samples(registry):
        out.write(json.dumps({
            "name": sample.name,
            "labels": dict(sample.labels),
            "value": sample.value,
        }, sort_keys=True))
        out.write("\n")
        written += 1
    return written
