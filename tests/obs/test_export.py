"""Exporters: Chrome trace, JSONL, Prometheus text."""

import io
import json

from repro.obs.export import (
    MICROS_PER_SIM_SECOND,
    metrics_to_jsonl,
    metrics_to_prometheus,
    spans_to_chrome_trace,
    spans_to_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer


def _sample_spans():
    tracer = SpanTracer()
    root = tracer.start_span("deployment.deploy", now=1.0)
    tracer.record_span("mbox.tls_validator", start=1.1, end=1.2,
                       parent=root, verdict="pass")
    tracer.end_span(root, now=2.0)
    return tracer.finished()


class TestChromeTrace:
    def test_structure_loads_in_perfetto_shape(self):
        doc = spans_to_chrome_trace(_sample_spans())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert metas and metas[0]["name"] == "process_name"
        assert {e["name"] for e in xs} == {"deployment.deploy",
                                           "mbox.tls_validator"}
        root = next(e for e in xs if e["name"] == "deployment.deploy")
        assert root["ts"] == 1.0 * MICROS_PER_SIM_SECOND
        assert root["dur"] == 1.0 * MICROS_PER_SIM_SECOND
        assert root["args"]["status"] == "ok"
        # all events of one trace share a pid row
        assert len({e["pid"] for e in xs}) == 1

    def test_zero_duration_span_gets_visible_floor(self):
        tracer = SpanTracer()
        span = tracer.start_span("instant", now=1.0)
        tracer.end_span(span, now=1.0)
        doc = spans_to_chrome_trace(tracer.finished())
        x = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert x["dur"] >= 1.0      # 1us floor so Perfetto renders it

    def test_json_serializable(self):
        json.dumps(spans_to_chrome_trace(_sample_spans()))


class TestJsonl:
    def test_spans_roundtrip(self):
        out = io.StringIO()
        spans_to_jsonl(_sample_spans(), out)
        rows = [json.loads(line) for line in
                out.getvalue().strip().splitlines()]
        assert len(rows) == 2
        by_name = {r["name"]: r for r in rows}
        hop = by_name["mbox.tls_validator"]
        assert hop["parent_id"] == by_name["deployment.deploy"]["span_id"]
        assert hop["attributes"]["verdict"] == "pass"

    def test_metrics_jsonl(self):
        registry = MetricsRegistry()
        registry.counter("c", labelnames=("k",)).labels(k="v").inc(3)
        out = io.StringIO()
        metrics_to_jsonl(registry, out)
        rows = [json.loads(line) for line in
                out.getvalue().strip().splitlines()]
        assert rows == [{"name": "c_total", "labels": {"k": "v"},
                         "value": 3.0}]


class TestPrometheus:
    def test_text_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_reqs", "Requests",
                         ("who",)).labels(who="a").inc(2)
        registry.gauge("repro_depth", "Depth").labels().set(4)
        out = io.StringIO()
        metrics_to_prometheus(registry, out)
        text = out.getvalue()
        assert "# HELP repro_reqs Requests" in text
        assert "# TYPE repro_reqs counter" in text
        assert 'repro_reqs_total{who="a"} 2' in text
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 4" in text

    def test_histogram_family_header_not_per_suffix(self):
        registry = MetricsRegistry()
        registry.histogram("lat", "Latency", buckets=(1.0,)).labels().observe(
            0.5)
        out = io.StringIO()
        metrics_to_prometheus(registry, out)
        text = out.getvalue()
        assert text.count("# TYPE lat histogram") == 1
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text


class TestDeterministicOrdering:
    def _registry(self):
        registry = MetricsRegistry()
        h = registry.histogram("repro_a", "A", buckets=(2.0, 10.0)).labels()
        h.observe(1.0)
        h.observe(5.0)
        registry.counter("repro_ab", "AB").inc()
        g = registry.gauge("repro_g", "G", ("b", "a"))
        g.labels(b="1", a="2").set(1.0)
        g.labels(b="0", a="9").set(2.0)
        return registry

    def test_prometheus_families_stay_grouped(self):
        # Family-name-first ordering: repro_ab_total must NOT be
        # interleaved between repro_a's suffixed samples.
        out = io.StringIO()
        metrics_to_prometheus(self._registry(), out)
        names = [line.split("{")[0].split(" ")[0]
                 for line in out.getvalue().splitlines()
                 if not line.startswith("#")]
        a_rows = [i for i, n in enumerate(names) if n.startswith("repro_a")
                  and not n.startswith("repro_ab")]
        ab_row = names.index("repro_ab_total")
        assert ab_row > max(a_rows)

    def test_histogram_buckets_ascend_numerically(self):
        out = io.StringIO()
        metrics_to_prometheus(self._registry(), out)
        bounds = [line.split('{le="')[1].split('"')[0]
                  for line in out.getvalue().splitlines()
                  if '{le="' in line]
        assert bounds == ["2", "10", "+Inf"]

    def test_jsonl_sorted_by_name_then_labels(self):
        out = io.StringIO()
        metrics_to_jsonl(self._registry(), out)
        rows = [json.loads(line) for line in
                out.getvalue().strip().splitlines()]
        gauge_rows = [r for r in rows if r["name"] == "repro_g"]
        # Children ordered by label values in labelname order (b, a).
        assert [r["labels"]["b"] for r in gauge_rows] == ["0", "1"]

    def test_output_independent_of_insertion_order(self):
        def render(registry):
            out = io.StringIO()
            metrics_to_prometheus(registry, out)
            return out.getvalue()

        forward = self._registry()

        backward = MetricsRegistry()
        g = backward.gauge("repro_g", "G", ("b", "a"))
        g.labels(b="0", a="9").set(2.0)
        g.labels(b="1", a="2").set(1.0)
        backward.counter("repro_ab", "AB").inc()
        h = backward.histogram("repro_a", "A", buckets=(2.0, 10.0)).labels()
        h.observe(5.0)
        h.observe(1.0)
        assert render(forward) == render(backward)
