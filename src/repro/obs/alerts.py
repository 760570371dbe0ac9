"""Typed alerts: burn-rate rules and EWMA/z-score anomaly detection.

The :class:`AlertManager` is evaluated once per simulator tick (after
``SloEngine.tick``) and turns detector state into a FIRING/RESOLVED
lifecycle with cause labels:

* :class:`BurnRateAlert` binds an SLO tracker and fires when **both**
  its fast and slow burn windows exceed the spec's threshold
  (see :mod:`repro.obs.slo` for the window math).
* :class:`AnomalyAlert` watches any scalar probe (a metric value, a
  tick-mean latency) with an :class:`EwmaDetector`: an exponentially
  weighted mean/variance baseline and a z-score trigger.  The baseline
  is **frozen while the alert fires** so it cannot chase the fault and
  self-resolve spuriously.

Transitions are appended to a timeline (what ``obs alerts`` exports),
published as ``repro_alert_*`` metrics, and fanned out to listeners —
the flight recorder freezes an incident bundle on FIRING, and the
health plane's :class:`~repro.health.overload.BurnRateCoupling` shifts
admission floors / trips circuit breakers.  Listener exceptions are
deliberately not swallowed: a broken closed-loop consumer should fail
the run, not silently decouple.

Simulated clock only; stdlib + :mod:`repro.obs.slo` /
:mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloEngine, SloTracker

FIRING = "firing"
RESOLVED = "resolved"

#: Counter: alert transitions, labelled by alert name and new state.
TRANSITIONS_COUNTER = "repro_alert_transitions"
#: Gauge: 1 while an alert is firing, 0 otherwise.
FIRING_GAUGE = "repro_alerts_firing"


@dataclasses.dataclass
class Alert:
    """One alert instance: created at FIRING, closed at RESOLVED."""

    name: str
    severity: str
    state: str
    fired_at: float
    cause: dict[str, str]
    resolved_at: float | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "severity": self.severity,
            "state": self.state,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "cause": dict(sorted(self.cause.items())),
        }


@dataclasses.dataclass(frozen=True)
class AlertEvent:
    """One timeline entry: a state transition at a simulated time."""

    name: str
    severity: str
    state: str                       # FIRING | RESOLVED
    now: float
    cause: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "severity": self.severity,
            "state": self.state,
            "now": self.now,
            "cause": dict(self.cause),
        }


class EwmaDetector:
    """Exponentially weighted mean/variance with a z-score trigger.

    ``update(value)`` returns the z-score of ``value`` against the
    baseline *before* folding it in.  During warmup (too few samples
    for a meaningful baseline) the z-score is 0.  ``std_floor`` guards
    the deterministic-simulation case where pre-fault values are
    literally constant (variance 0) — without a floor the first changed
    sample would divide by zero.
    """

    def __init__(self, alpha: float = 0.3, warmup: int = 5,
                 std_floor: float = 1e-9) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if std_floor <= 0.0:
            raise ValueError("std_floor must be positive")
        self.alpha = alpha
        self.warmup = warmup
        self.std_floor = std_floor
        self.mean = 0.0
        self.variance = 0.0
        self.count = 0

    def update(self, value: float, adapt: bool = True) -> float:
        """Score ``value``; fold it into the baseline unless frozen."""
        if self.count < self.warmup:
            z = 0.0
        else:
            std = max(math.sqrt(self.variance), self.std_floor)
            z = (value - self.mean) / std
        if adapt:
            if self.count == 0:
                self.mean = value
            else:
                delta = value - self.mean
                self.mean += self.alpha * delta
                self.variance = ((1.0 - self.alpha)
                                 * (self.variance + self.alpha * delta
                                    * delta))
            self.count += 1
        return z


class BurnRateAlert:
    """Fires when an SLO's fast *and* slow burn windows both exceed the
    spec's ``fire_burn``; resolves when the fast window drains below
    ``resolve_burn``."""

    def __init__(self, engine: SloEngine, slo: str,
                 severity: str = "page") -> None:
        self.engine = engine
        self.slo = slo
        self.name = f"burn_rate:{slo}"
        self.severity = severity

    def _tracker(self) -> SloTracker:
        return self.engine.tracker(self.slo)

    def should_fire(self, now: float) -> bool:
        del now
        return self._tracker().should_fire()

    def should_resolve(self, now: float) -> bool:
        del now
        return self._tracker().should_resolve()

    def cause(self) -> dict[str, str]:
        tracker = self._tracker()
        return {
            "detector": "burn_rate",
            "slo": self.slo,
            "fast_burn": f"{tracker.fast_burn:.3f}",
            "slow_burn": f"{tracker.slow_burn:.3f}",
            "budget_used": f"{tracker.error_budget_used():.3f}",
        }


class AnomalyAlert:
    """Fires when a probed scalar deviates from its EWMA baseline by
    four standard deviations for ``consecutive`` ticks; resolves when
    the deviation falls below one standard deviation.

    The probe is any zero-argument callable evaluated once per manager
    tick (a registry read, a closure over experiment state).  The
    baseline is **robust**: samples at or beyond the firing bar are scored
    but not folded in (and nothing folds while firing), so neither a
    one-tick spike nor a sustained fault can be absorbed into "normal"
    and self-resolve spuriously.  Pass ``robust=False`` for a plain
    adaptive EWMA.
    """

    def __init__(self, name: str, probe: Callable[[], float],
                 detector: EwmaDetector | None = None,
                 consecutive: int = 2, robust: bool = True,
                 severity: str = "ticket") -> None:
        if consecutive < 1:
            raise ValueError("consecutive must be >= 1")
        self.name = name
        self.probe = probe
        self.detector = detector if detector is not None else EwmaDetector()
        self.z_fire = 4.0
        self.z_resolve = 1.0
        self.consecutive = consecutive
        self.robust = robust
        self.severity = severity
        self._firing = False
        self._streak = 0
        self.last_value = 0.0
        self.last_z = 0.0

    def _evaluate(self) -> None:
        self.last_value = float(self.probe())
        self.last_z = self.detector.update(self.last_value, adapt=False)
        anomalous = abs(self.last_z) >= self.z_fire
        if not self._firing and not (self.robust and anomalous):
            self.detector.update(self.last_value, adapt=True)
        if anomalous:
            self._streak += 1
        else:
            self._streak = 0

    def should_fire(self, now: float) -> bool:
        del now
        self._evaluate()
        if self._streak >= self.consecutive:
            self._firing = True
        return self._firing

    def should_resolve(self, now: float) -> bool:
        del now
        self._evaluate()
        if abs(self.last_z) < self.z_resolve:
            self._firing = False
            self._streak = 0
        return not self._firing

    def cause(self) -> dict[str, str]:
        return {
            "detector": "ewma_zscore",
            "value": f"{self.last_value:.6g}",
            "z": f"{self.last_z:.3f}",
            "baseline_mean": f"{self.detector.mean:.6g}",
        }


#: Listener signature: called on every transition with the (mutated)
#: Alert and the immutable AlertEvent describing the transition.
AlertListener = Callable[[Alert, AlertEvent], None]


class AlertManager:
    """Evaluates all rules once per tick and owns the alert lifecycle."""

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.rules: list = []
        self.active: dict[str, Alert] = {}
        self.history: list[AlertEvent] = []
        self.listeners: list[AlertListener] = []

    # -- rule registration -------------------------------------------------

    def add_rule(self, rule) -> None:
        """Any object with name/severity attributes plus
        ``should_fire(now)`` / ``should_resolve(now)`` / ``cause()``."""
        if any(existing.name == rule.name for existing in self.rules):
            raise ValueError(f"alert rule {rule.name!r} already registered")
        self.rules.append(rule)

    def burn_rate(self, engine: SloEngine, slo: str,
                  severity: str = "page") -> BurnRateAlert:
        rule = BurnRateAlert(engine, slo, severity=severity)
        self.add_rule(rule)
        return rule

    def anomaly(self, name: str, probe: Callable[[], float],
                **kwargs) -> AnomalyAlert:
        rule = AnomalyAlert(name, probe, **kwargs)
        self.add_rule(rule)
        return rule

    # -- lifecycle ---------------------------------------------------------

    def tick(self, now: float) -> list[AlertEvent]:
        """Evaluate every rule; returns this tick's transitions."""
        events: list[AlertEvent] = []
        for rule in self.rules:
            alert = self.active.get(rule.name)
            if alert is None:
                if rule.should_fire(now):
                    alert = Alert(name=rule.name, severity=rule.severity,
                                  state=FIRING, fired_at=now,
                                  cause=dict(rule.cause()))
                    self.active[rule.name] = alert
                    events.append(self._transition(alert, FIRING, now))
            else:
                if rule.should_resolve(now):
                    alert.state = RESOLVED
                    alert.resolved_at = now
                    del self.active[rule.name]
                    events.append(self._transition(alert, RESOLVED, now))
        self._publish()
        return events

    def _transition(self, alert: Alert, state: str,
                    now: float) -> AlertEvent:
        event = AlertEvent(
            name=alert.name, severity=alert.severity, state=state,
            now=now, cause=tuple(sorted(alert.cause.items())))
        self.history.append(event)
        self.metrics.counter(
            TRANSITIONS_COUNTER, "Alert state transitions",
            ("alert", "state")).labels(alert=alert.name, state=state).inc()
        for listener in self.listeners:
            listener(alert, event)
        return event

    def _publish(self) -> None:
        gauge = self.metrics.gauge(
            FIRING_GAUGE, "1 while the alert is firing", ("alert",))
        for rule in self.rules:
            gauge.labels(alert=rule.name).set(
                1.0 if rule.name in self.active else 0.0)

    # -- introspection -----------------------------------------------------

    def firing(self, name: str | None = None) -> bool:
        if name is not None:
            return name in self.active
        return bool(self.active)

    def timeline(self) -> list[dict]:
        return [event.to_dict() for event in self.history]
