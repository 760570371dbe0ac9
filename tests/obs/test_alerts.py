"""Alerting: burn-rate rules, EWMA anomaly detection, lifecycle."""

import pytest

from repro.obs.alerts import (
    FIRING,
    FIRING_GAUGE,
    RESOLVED,
    TRANSITIONS_COUNTER,
    AlertManager,
    AnomalyAlert,
    BurnRateAlert,
    EwmaDetector,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloEngine, SloSpec


def _engine(objective=0.99, fast=2, slow=4):
    engine = SloEngine()
    engine.register(SloSpec(name="avail", objective=objective,
                            fast_window=fast, slow_window=slow))
    return engine


def _burn_ticks(engine, ticks, good=0, bad=0):
    for _ in range(ticks):
        engine.record("avail", good=good, bad=bad)
        engine.tick(0.0)


class TestEwmaDetector:
    def test_warmup_scores_zero(self):
        detector = EwmaDetector(warmup=3)
        assert detector.update(10.0) == 0.0
        assert detector.update(50.0) == 0.0
        assert detector.update(-7.0) == 0.0
        assert detector.count == 3

    def test_constant_stream_then_spike_scores_high(self):
        detector = EwmaDetector(warmup=3, std_floor=0.01)
        for _ in range(10):
            detector.update(1.0)
        z = detector.update(2.0, adapt=False)
        assert z >= 4.0                  # std floored, spike obvious

    def test_z_sign_tracks_direction(self):
        detector = EwmaDetector(warmup=2, std_floor=0.01)
        for _ in range(5):
            detector.update(1.0)
        assert detector.update(0.0, adapt=False) < 0.0

    def test_frozen_update_does_not_move_baseline(self):
        detector = EwmaDetector(warmup=1)
        detector.update(1.0)
        mean, var, count = (detector.mean, detector.variance,
                            detector.count)
        detector.update(100.0, adapt=False)
        assert (detector.mean, detector.variance,
                detector.count) == (mean, var, count)

    def test_baseline_tracks_drift(self):
        detector = EwmaDetector(alpha=0.5, warmup=1)
        detector.update(0.0)
        detector.update(10.0)
        assert detector.mean == pytest.approx(5.0)

    @pytest.mark.parametrize("alpha", (0.0, 1.5, -0.1))
    def test_alpha_validated(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            EwmaDetector(alpha=alpha)

    def test_std_floor_validated(self):
        with pytest.raises(ValueError, match="std_floor"):
            EwmaDetector(std_floor=0.0)


class TestBurnRateAlert:
    def test_fire_resolve_follow_tracker(self):
        engine = _engine()
        rule = BurnRateAlert(engine, "avail")
        assert rule.name == "burn_rate:avail"
        _burn_ticks(engine, 2, good=50, bad=50)
        assert rule.should_fire(2.0)
        _burn_ticks(engine, 2, good=100)
        assert rule.should_resolve(4.0)

    def test_cause_labels(self):
        engine = _engine()
        _burn_ticks(engine, 2, good=50, bad=50)
        cause = BurnRateAlert(engine, "avail").cause()
        assert cause["detector"] == "burn_rate"
        assert cause["slo"] == "avail"
        assert float(cause["fast_burn"]) == pytest.approx(50.0)
        assert float(cause["budget_used"]) == pytest.approx(50.0)


class TestAnomalyAlert:
    def _warm(self, rule, value=1.0, n=6):
        for _ in range(n):
            assert not rule.should_fire(0.0)

    def test_fires_after_consecutive_anomalies(self):
        source = {"value": 1.0}
        rule = AnomalyAlert(
            "a", lambda: source["value"],
            detector=EwmaDetector(warmup=2, std_floor=0.01),
            consecutive=2)
        self._warm(rule)
        source["value"] = 10.0
        assert not rule.should_fire(6.0)     # streak 1 of 2
        assert rule.should_fire(7.0)         # streak 2 -> firing

    def test_single_tick_spike_resolves_and_baseline_survives(self):
        # The robust default: the spike is never folded into the
        # baseline, so after it passes the detector still knows normal.
        source = {"value": 1.0}
        rule = AnomalyAlert(
            "a", lambda: source["value"],
            detector=EwmaDetector(warmup=2, std_floor=0.01),
            consecutive=1)
        self._warm(rule)
        baseline = rule.detector.mean
        source["value"] = 10.0
        assert rule.should_fire(6.0)
        source["value"] = 1.0
        assert rule.should_resolve(7.0)
        assert rule.detector.mean == pytest.approx(baseline, abs=0.01)

    def test_non_robust_detector_absorbs_outliers(self):
        source = {"value": 1.0}
        rule = AnomalyAlert(
            "a", lambda: source["value"],
            detector=EwmaDetector(alpha=0.5, warmup=2, std_floor=0.01),
            consecutive=1, robust=False)
        self._warm(rule)
        source["value"] = 10.0
        rule.should_fire(6.0)
        assert rule.detector.mean > 2.0      # outlier folded in

    def test_does_not_resolve_while_z_high(self):
        source = {"value": 1.0}
        rule = AnomalyAlert(
            "a", lambda: source["value"],
            detector=EwmaDetector(warmup=2, std_floor=0.01),
            consecutive=1)
        self._warm(rule)
        source["value"] = 10.0
        assert rule.should_fire(6.0)
        assert not rule.should_resolve(7.0)  # still way off baseline

    def test_cause_labels(self):
        source = {"value": 3.0}
        rule = AnomalyAlert("a", lambda: source["value"])
        rule.should_fire(0.0)
        cause = rule.cause()
        assert cause["detector"] == "ewma_zscore"
        assert float(cause["value"]) == 3.0

    def test_consecutive_validated(self):
        with pytest.raises(ValueError, match="consecutive"):
            AnomalyAlert("a", lambda: 0.0, consecutive=0)


class TestAlertManager:
    def test_full_firing_resolved_lifecycle(self):
        engine = _engine()
        manager = AlertManager()
        manager.burn_rate(engine, "avail")
        _burn_ticks(engine, 2, good=50, bad=50)
        events = manager.tick(2.0)
        assert [e.state for e in events] == [FIRING]
        assert manager.firing("burn_rate:avail")
        assert manager.firing()
        # Still firing: no duplicate transition.
        assert manager.tick(3.0) == []
        _burn_ticks(engine, 2, good=100)
        events = manager.tick(4.0)
        assert [e.state for e in events] == [RESOLVED]
        assert not manager.firing()
        alert_states = [e["state"] for e in manager.timeline()]
        assert alert_states == [FIRING, RESOLVED]
        assert manager.timeline()[0]["now"] == 2.0

    def test_resolved_alert_carries_both_timestamps(self):
        engine = _engine()
        manager = AlertManager()
        manager.burn_rate(engine, "avail")
        _burn_ticks(engine, 2, good=50, bad=50)
        captured = []
        manager.listeners.append(
            lambda alert, event: captured.append(alert))
        manager.tick(2.0)
        _burn_ticks(engine, 2, good=100)
        manager.tick(4.0)
        alert = captured[-1]
        assert alert.state == RESOLVED
        assert alert.fired_at == 2.0
        assert alert.resolved_at == 4.0
        assert alert.to_dict()["cause"]["detector"] == "burn_rate"

    def test_duplicate_rule_name_rejected(self):
        engine = _engine()
        manager = AlertManager()
        manager.burn_rate(engine, "avail")
        with pytest.raises(ValueError, match="already registered"):
            manager.burn_rate(engine, "avail")

    def test_transitions_publish_metrics(self):
        registry = MetricsRegistry()
        engine = _engine()
        manager = AlertManager(metrics=registry)
        manager.burn_rate(engine, "avail")
        _burn_ticks(engine, 2, good=50, bad=50)
        manager.tick(2.0)
        assert registry.value(TRANSITIONS_COUNTER,
                              alert="burn_rate:avail",
                              state=FIRING) == 1.0
        assert registry.value(FIRING_GAUGE,
                              alert="burn_rate:avail") == 1.0
        _burn_ticks(engine, 2, good=100)
        manager.tick(4.0)
        assert registry.value(FIRING_GAUGE,
                              alert="burn_rate:avail") == 0.0

    def test_listener_exceptions_propagate(self):
        engine = _engine()
        manager = AlertManager()
        manager.burn_rate(engine, "avail")

        def broken(alert, event):
            raise RuntimeError("consumer died")

        manager.listeners.append(broken)
        _burn_ticks(engine, 2, good=50, bad=50)
        with pytest.raises(RuntimeError, match="consumer died"):
            manager.tick(2.0)

    def test_independent_rules_independent_lifecycles(self):
        engine = _engine()
        source = {"value": 1.0}
        manager = AlertManager()
        manager.burn_rate(engine, "avail")
        manager.anomaly("spike", lambda: source["value"],
                        detector=EwmaDetector(warmup=2, std_floor=0.01),
                        consecutive=1)
        for _ in range(6):
            manager.tick(0.0)            # warm the anomaly baseline
        _burn_ticks(engine, 2, good=50, bad=50)
        events = manager.tick(2.0)
        assert [e.name for e in events] == ["burn_rate:avail"]
        assert not manager.firing("spike")
