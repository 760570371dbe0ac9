"""Metrics registry: families, labels, folding, collection."""

import pytest

from repro.obs.metrics import MetricsRegistry, Sample


class TestRegistration:
    def test_idempotent_reregistration(self):
        registry = MetricsRegistry()
        a = registry.counter("c", "help", ("x",))
        b = registry.counter("c", "different help ignored", ("x",))
        assert a is b

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")

    def test_label_schema_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("m", labelnames=("b",))


class TestCounterGauge:
    def test_counter_inc_and_negative_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", labelnames=("who",))
        child = counter.labels(who="a")
        child.inc()
        child.inc(2.0)
        assert registry.value("hits", who="a") == 3.0
        with pytest.raises(ValueError):
            child.inc(-1.0)

    def test_set_total_adopts_external_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("pkts").labels()
        counter.set_total(41)
        counter.set_total(42)
        assert registry.value("pkts") == 42.0

    def test_label_handles_are_cached(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labelnames=("k",))
        assert counter.labels(k="v") is counter.labels(k="v")

    def test_wrong_labelset_raises(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labelnames=("k",))
        with pytest.raises(ValueError):
            counter.labels(other="v")

    def test_gauge_up_and_down(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth").labels()
        gauge.set(5)
        gauge.set(4)
        assert registry.value("depth") == 4.0


class TestFoldTotals:
    def test_counters_dict_becomes_labelled_children(self):
        registry = MetricsRegistry()
        registry.fold_totals(
            "repro_switch_packets", "h", ("switch",),
            {"switch": "s1"},
            {"received": 10, "forwarded": 7, "dropped": 3},
        )
        assert registry.value("repro_switch_packets",
                              switch="s1", result="received") == 10.0
        assert registry.value("repro_switch_packets",
                              switch="s1", result="dropped") == 3.0

    def test_refold_overwrites(self):
        registry = MetricsRegistry()
        for total in (5, 9):
            registry.fold_totals("m", "h", ("s",), {"s": "x"},
                                 {"received": total})
        assert registry.value("m", s="x", result="received") == 9.0


class TestCollect:
    def test_counter_sample_gets_total_suffix(self):
        registry = MetricsRegistry()
        registry.counter("reqs", labelnames=("p",)).labels(p="a").inc()
        samples = registry.collect()
        assert samples == [Sample("reqs_total", (("p", "a"),), 1.0)]

    def test_histogram_exposition_rows(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0)).labels()
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        rows = {(s.name, s.labels): s.value for s in registry.collect()}
        assert rows[("lat_bucket", (("le", "0.1"),))] == 1.0
        assert rows[("lat_bucket", (("le", "1"),))] == 2.0
        assert rows[("lat_bucket", (("le", "+Inf"),))] == 3.0
        assert rows[("lat_count", ())] == 3.0
        assert rows[("lat_sum", ())] == pytest.approx(5.55)

    def test_deterministic_ordering(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b").inc()
            registry.gauge("a", labelnames=("z",)).labels(z="2").set(1)
            registry.gauge("a", labelnames=("z",)).labels(z="1").set(2)
            return registry.collect()

        assert build() == build()
        names = [s.name for s in build()]
        assert names == sorted(names, key=lambda n: n.rstrip("_total"))

    def test_value_of_unknown_metric_is_zero(self):
        assert MetricsRegistry().value("nope") == 0.0


class TestCardinalityGuard:
    def _capped(self, cap=3):
        from repro.obs.metrics import OVERFLOW_COUNTER
        registry = MetricsRegistry(max_label_children=cap)
        counter = registry.counter("repro_hits", "", ("deployment",))
        return registry, counter, OVERFLOW_COUNTER

    def test_children_capped_with_other_fold(self):
        registry, counter, _ = self._capped(cap=3)
        for i in range(10):
            counter.labels(deployment=f"u{i}/pvn{i}").inc()
        labels = [dict(l) for l, _ in counter.children()]
        assert len(labels) == 4              # cap + the fold target
        assert {"deployment": "other"} in labels
        # The 7 overflowing increments all landed on the other child.
        assert registry.value("repro_hits", deployment="other") == 7.0

    def test_overflow_counter_records_folds_per_metric(self):
        registry, counter, overflow = self._capped(cap=2)
        for i in range(5):
            counter.labels(deployment=str(i)).inc()
        assert registry.value(overflow, metric="repro_hits") == 3.0

    def test_known_children_unaffected_at_cap(self):
        registry, counter, overflow = self._capped(cap=2)
        counter.labels(deployment="a").inc()
        counter.labels(deployment="b").inc()
        counter.labels(deployment="a").inc(5)    # existing child: no fold
        assert registry.value("repro_hits", deployment="a") == 6.0
        assert registry.value(overflow, metric="repro_hits") == 0.0

    def test_multi_label_fold_uses_other_for_every_dimension(self):
        registry = MetricsRegistry(max_label_children=1)
        gauge = registry.gauge("repro_load", "", ("service", "instance"))
        gauge.labels(service="a", instance="1").set(1.0)
        gauge.labels(service="b", instance="2").set(9.0)
        labels = [dict(l) for l, _ in gauge.children()]
        assert {"service": "other", "instance": "other"} in labels

    def test_unlabelled_metrics_never_fold(self):
        registry = MetricsRegistry(max_label_children=1)
        gauge = registry.gauge("depth").labels()
        gauge.set(4.0)
        gauge.set(5.0)
        assert registry.value("depth") == 5.0

    def test_overflow_counter_exempt_from_its_own_cap(self):
        from repro.obs.metrics import OVERFLOW_COUNTER
        registry = MetricsRegistry(max_label_children=1)
        for name in ("repro_a", "repro_b", "repro_c"):
            metric = registry.counter(name, "", ("k",))
            metric.labels(k="x").inc()
            metric.labels(k="y").inc()       # each overflows once
        overflow = registry.counter(OVERFLOW_COUNTER, "", ("metric",))
        # One child per overflowing family, despite the cap of 1.
        assert len(list(overflow.children())) == 3

    def test_default_cap_is_generous(self):
        from repro.obs.metrics import DEFAULT_MAX_LABEL_CHILDREN
        assert DEFAULT_MAX_LABEL_CHILDREN == 1000
        registry = MetricsRegistry()
        counter = registry.counter("repro_hits", "", ("k",))
        for i in range(50):
            counter.labels(k=str(i)).inc()
        assert len(list(counter.children())) == 50
