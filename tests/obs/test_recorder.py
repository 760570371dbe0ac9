"""Incident flight recorder: ring buffers, metric deltas, bundles."""

import io
import json

import pytest

from repro.obs.alerts import Alert, AlertManager, FIRING
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder, attach
from repro.obs.slo import SloEngine, SloSpec
from repro.obs.spans import SpanTracer


def _alert(name="lat_burn", severity="page"):
    return Alert(name=name, severity=severity, state=FIRING,
                 fired_at=8.0, cause={"detector": "burn_rate"})


class TestRingBuffers:
    def test_note_and_read_back(self):
        recorder = FlightRecorder()
        recorder.note("ticks", 1.0, forwarded=10, dropped=2)
        record, = recorder.records("ticks")
        assert record.to_dict() == {"category": "ticks", "now": 1.0,
                                    "forwarded": 10, "dropped": 2}

    def test_capacity_bounds_each_category(self):
        recorder = FlightRecorder(capacity_per_category=3)
        for tick in range(10):
            recorder.note("ticks", float(tick), n=tick)
        records = recorder.records("ticks")
        assert len(records) == 3
        assert [dict(r.payload)["n"] for r in records] == [7, 8, 9]

    def test_categories_are_independent(self):
        recorder = FlightRecorder(capacity_per_category=2)
        recorder.note("a", 1.0)
        recorder.note("b", 2.0)
        recorder.note("a", 3.0)
        recorder.note("a", 4.0)              # evicts only from "a"
        assert sorted(recorder._buffers) == ["a", "b"]
        assert len(recorder.records("a")) == 2
        assert len(recorder.records("b")) == 1

    def test_merged_records_sorted_by_time(self):
        recorder = FlightRecorder()
        recorder.note("b", 2.0)
        recorder.note("a", 1.0)
        recorder.note("a", 2.0)
        merged = recorder.records()
        assert [(r.now, r.category) for r in merged] == [
            (1.0, "a"), (2.0, "a"), (2.0, "b")]

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity_per_category=0)


class TestCaptureMetrics:
    def test_records_deltas_since_last_capture(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_pkts", "", ("port",))
        recorder = FlightRecorder()
        counter.labels(port="a").inc(5)
        assert recorder.capture_metrics(registry, 1.0) == 1
        counter.labels(port="a").inc(2)
        assert recorder.capture_metrics(registry, 2.0) == 1
        records = recorder.records("metrics")
        assert dict(records[-1].payload)["deltas"][0]["delta"] == 2.0

    def test_unchanged_samples_not_recorded(self):
        registry = MetricsRegistry()
        registry.counter("repro_pkts").inc()
        recorder = FlightRecorder()
        recorder.capture_metrics(registry, 1.0)
        assert recorder.capture_metrics(registry, 2.0) == 0
        assert len(recorder.records("metrics")) == 1

    def test_prefix_filter(self):
        registry = MetricsRegistry()
        registry.counter("repro_keep").inc()
        registry.counter("other_skip").inc()
        recorder = FlightRecorder()
        changed = recorder.capture_metrics(registry, 1.0,
                                           prefixes=("repro_",))
        assert changed == 1

    def test_top_n_keeps_largest_absolute_deltas(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_load", "", ("i",))
        for i in range(5):
            gauge.labels(i=str(i)).set(float(i))
        recorder = FlightRecorder()
        recorder.capture_metrics(registry, 1.0, top=2)
        record, = recorder.records("metrics")
        payload = dict(record.payload)
        assert payload["changed"] == 4       # the i=0 sample is 0.0
        deltas = payload["deltas"]
        assert len(deltas) == 2
        assert [d["delta"] for d in deltas] == [4.0, 3.0]


class TestFreeze:
    def test_bundle_snapshots_records_and_spans(self):
        recorder = FlightRecorder()
        recorder.note("ticks", 7.0, latency=0.2)
        tracer = SpanTracer()
        tracer.record_span("mbox.tls", start=7.1, end=7.2)
        bundle = recorder.freeze(_alert(), 8.0, tracer=tracer)
        assert bundle.alert_name == "lat_burn"
        assert bundle.frozen_at == 8.0
        assert bundle.records[0]["latency"] == 0.2
        assert bundle.spans[0]["name"] == "mbox.tls"
        assert recorder.incidents == [bundle]

    def test_span_evidence_keeps_most_recent(self):
        recorder = FlightRecorder(span_evidence=2)
        tracer = SpanTracer()
        for i in range(5):
            tracer.record_span(f"s{i}", start=float(i), end=float(i))
        bundle = recorder.freeze(_alert(), 8.0, tracer=tracer)
        assert [s["name"] for s in bundle.spans] == ["s3", "s4"]

    def test_freeze_without_tracer_has_no_spans(self):
        bundle = FlightRecorder().freeze(_alert(), 8.0)
        assert bundle.spans == []


class TestBundleExports:
    def _bundle(self):
        recorder = FlightRecorder()
        recorder.note("ticks", 7.0, latency=0.2)
        recorder.note("alerts", 8.0, alert="lat_burn", state="firing")
        tracer = SpanTracer()
        tracer.record_span("mbox.tls", start=7.1, end=7.2, verdict="ok")
        return recorder.freeze(_alert(), 8.0, tracer=tracer)

    def test_jsonl_is_self_contained(self):
        bundle = self._bundle()
        out = io.StringIO()
        lines = bundle.to_jsonl(out)
        rows = [json.loads(line) for line in
                out.getvalue().strip().splitlines()]
        assert lines == len(rows) == 4       # header + 2 records + 1 span
        header = rows[0]
        assert header["kind"] == "incident"
        assert header["alert"] == "lat_burn"
        assert header["records"] == 2
        assert header["spans"] == 1
        kinds = [r["kind"] for r in rows[1:]]
        assert kinds == ["record", "record", "span"]

    def test_chrome_trace_shape(self):
        doc = self._bundle().to_chrome_trace()
        events = doc["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(xs) == 1 and xs[0]["name"] == "mbox.tls"
        assert xs[0]["ts"] == pytest.approx(7.1e6)
        assert xs[0]["dur"] >= 1.0
        assert {e["name"] for e in instants} == {"ticks", "alerts"}
        assert doc["metadata"]["alert"] == "lat_burn"
        json.dumps(doc)                      # serializable

    def test_zero_duration_span_floored(self):
        recorder = FlightRecorder()
        tracer = SpanTracer()
        tracer.record_span("instant", start=1.0, end=1.0)
        doc = recorder.freeze(_alert(), 2.0,
                              tracer=tracer).to_chrome_trace()
        x, = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert x["dur"] >= 1.0


class TestAttach:
    def test_firing_freezes_resolving_notes(self):
        engine = SloEngine()
        engine.register(SloSpec(name="avail", objective=0.99,
                                fast_window=2, slow_window=2))
        manager = AlertManager()
        manager.burn_rate(engine, "avail")
        recorder = FlightRecorder()
        attach(manager, recorder)

        for _ in range(2):
            engine.record("avail", good=50, bad=50)
            engine.tick(0.0)
        manager.tick(2.0)
        assert len(recorder.incidents) == 1
        # The bundle includes the transition note itself.
        assert recorder.incidents[0].records[-1]["state"] == "firing"

        for _ in range(2):
            engine.record("avail", good=100)
            engine.tick(0.0)
        manager.tick(4.0)
        assert len(recorder.incidents) == 1  # RESOLVED only notes
        states = [dict(r.payload)["state"]
                  for r in recorder.records("alerts")]
        assert states == ["firing", "resolved"]
