"""The typed metrics registry.

One :class:`MetricsRegistry` is the only telemetry sink for counters:
the sdn/nfv/core layers publish **labelled counters, gauges and
histograms** through one interface, and the exporters
(:mod:`repro.obs.export`) render Prometheus text or JSONL from it.

Design constraints, in priority order:

* **Hot paths stay hot.**  Data-plane loops keep their plain ``int``
  attribute counters; layers fold them into the registry at *publish*
  time (``Counter.set_total`` — the collect model, like a Prometheus
  custom collector).  Control-plane paths (discovery, deployment,
  migration, audits) increment live.
* **Label handles are pre-resolved.**  ``metric.labels(...)`` returns a
  child object whose ``inc``/``set``/``observe`` is a direct attribute
  update; resolve once, use many times.
* **Stdlib only**, so every layer can import it without cycles.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Any, Iterable, Mapping

#: Default histogram buckets: latency-shaped, seconds (powers of ~4 from
#: 1us to ~16s), matching the simulator's per-hop-delay magnitudes.
DEFAULT_BUCKETS = (
    1e-6, 4e-6, 1.6e-5, 6.4e-5, 2.56e-4, 1.024e-3, 4.096e-3,
    1.6384e-2, 6.5536e-2, 0.262144, 1.048576, 4.194304, 16.777216,
)

#: Default per-family child cap (label-cardinality guard).
DEFAULT_MAX_LABEL_CHILDREN = 1000

#: Counter: label sets folded into ``other`` after a family hit its cap.
OVERFLOW_COUNTER = "repro_metrics_cardinality_overflow"

#: The label value every dimension takes in the overflow child.
OVERFLOW_LABEL = "other"


@dataclasses.dataclass(frozen=True)
class Sample:
    """One exposition row: name + labels + value."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float


def _label_key(labelnames: tuple[str, ...],
               labels: Mapping[str, Any]) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {labelnames}, got {tuple(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Metric:
    """Shared parent: a named family of labelled children.

    The registry assigns ``max_children`` (the label-cardinality guard):
    once a labelled family holds that many children, novel label sets
    fold into one shared all-``other`` child instead of allocating — an
    unbounded id-shaped label (deployment ids, packet ids) degrades into
    one aggregate series rather than eating memory.  Each fold reports
    through ``overflow_hook`` so the leak stays visible.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple[str, ...] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], Any] = {}
        self.max_children: int | None = None
        self.overflow_hook = None

    def labels(self, **labels: Any):
        """The child for one label combination (created on first use)."""
        key = _label_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            if (self.max_children is not None and self.labelnames
                    and len(self._children) >= self.max_children):
                return self._overflow_child()
            child = self._make_child()
            self._children[key] = child
        return child

    def _overflow_child(self):
        key = tuple(OVERFLOW_LABEL for _ in self.labelnames)
        child = self._children.get(key)
        if child is None:     # the fold target sits above the cap
            child = self._make_child()
            self._children[key] = child
        if self.overflow_hook is not None:
            self.overflow_hook(self.name)
        return child

    def _child(self):
        """The unlabelled singleton child (metrics with no labelnames)."""
        if self.labelnames:
            raise ValueError(
                f"metric {self.name} has labels {self.labelnames}; "
                "use .labels(...)"
            )
        return self.labels()

    def children(self) -> Iterable[tuple[tuple[tuple[str, str], ...], Any]]:
        for key, child in sorted(self._children.items()):
            yield tuple(zip(self.labelnames, key)), child


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc {amount})")
        self.value += amount

    def set_total(self, total: float) -> None:
        """Adopt a cumulative total kept elsewhere (publish-time fold of
        a hot-path ``int`` attribute).  The publisher owns monotonicity;
        a freshly built world re-publishing under an old name simply
        restarts the series, exactly like a process restart does in
        Prometheus."""
        self.value = float(total)


class Counter(_Metric):
    """A monotone cumulative count."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self) -> None:
        self._child().inc()



class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)



class Gauge(_Metric):
    """A value that can go up and down (queue depth, cache entries)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()



class _HistogramChild:
    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)   # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) per bucket, +Inf last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out


class Histogram(_Metric):
    """Fixed-bucket distribution (Prometheus-style cumulative buckets)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple[str, ...] = (),
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)


class MetricsRegistry:
    """All metric families, keyed by name.

    Re-registering a name returns the existing family (so publishers
    need no "create once" dance), but the kind and label schema must
    match — a mismatch is a programming error and raises.

    ``max_label_children`` caps each labelled family's child count;
    past it, novel label sets fold into one all-``other`` child and the
    ``repro_metrics_cardinality_overflow`` counter (itself exempt from
    the cap) records the fold per metric name.
    """

    def __init__(self,
                 max_label_children: int = DEFAULT_MAX_LABEL_CHILDREN) -> None:
        self._metrics: dict[str, _Metric] = {}
        self.max_label_children = max_label_children

    def _register(self, cls, name: str, help: str,
                  labelnames: tuple[str, ...], **kwargs) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls) or (
                    existing.labelnames != tuple(labelnames)):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}{existing.labelnames}, requested "
                    f"{cls.kind}{tuple(labelnames)}"
                )
            return existing
        metric = cls(name, help, tuple(labelnames), **kwargs)
        if name != OVERFLOW_COUNTER:
            metric.max_children = self.max_label_children
            metric.overflow_hook = self._record_overflow
        self._metrics[name] = metric
        return metric

    def _record_overflow(self, name: str) -> None:
        self.counter(
            OVERFLOW_COUNTER,
            "Label sets folded into 'other' after a family hit its "
            "cardinality cap", ("metric",)).labels(metric=name).inc()

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: tuple[str, ...] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, labelnames,
                              buckets=buckets)

    def families(self) -> list[_Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def fold_totals(self, name: str, help: str,
                    labelnames: tuple[str, ...],
                    labels: Mapping[str, Any],
                    totals: Mapping[str, float],
                    extra_label: str = "result") -> None:
        """Publish a hot-path ``counters()`` dict in one call.

        Each ``totals`` key becomes the ``extra_label`` value of one
        counter child; values are adopted as cumulative totals.  This is
        how the switch/cache/pipeline publish paths fold their plain
        ``int`` attributes into the registry without per-packet cost.
        """
        counter = self.counter(name, help, (*labelnames, extra_label))
        for key, value in totals.items():
            counter.labels(**{**dict(labels), extra_label: key}).set_total(value)

    def value(self, name: str, **labels: Any) -> float:
        """A counter/gauge child's current value (0.0 if never touched)."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0.0
        child = metric.labels(**labels)
        return getattr(child, "value", 0.0)

    def collect(self) -> list[Sample]:
        """Every exposition row, deterministically ordered."""
        samples: list[Sample] = []
        for metric in self.families():
            for labels, child in metric.children():
                if metric.kind in ("counter", "gauge"):
                    suffix = "_total" if metric.kind == "counter" else ""
                    samples.append(Sample(metric.name + suffix, labels,
                                          child.value))
                elif metric.kind == "histogram":
                    for bound, cumulative in child.cumulative():
                        bucket_labels = (*labels, ("le", _format_bound(bound)))
                        samples.append(Sample(f"{metric.name}_bucket",
                                              bucket_labels,
                                              float(cumulative)))
                    samples.append(Sample(f"{metric.name}_sum", labels,
                                          child.sum))
                    samples.append(Sample(f"{metric.name}_count", labels,
                                          float(child.count)))
        return samples


def _format_bound(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    text = repr(bound)
    return text[:-2] if text.endswith(".0") else text
