"""Declarative SLOs with error budgets and multi-window burn rates.

PR 4's registry records everything and decides nothing; this module is
the judgment layer.  A :class:`SloSpec` states an objective ("99% of
delivery latencies under 60 ms", "99.9% of packets delivered") and a
:class:`SloEngine` evaluates it over **sliding tick windows** of the
simulated clock — no wall time anywhere, so experiments stay
deterministic and replayable.

The alerting math is the Google-SRE multi-window burn-rate scheme:

* The **error budget** is ``1 - objective`` (a 99% objective leaves a
  1% budget).
* The **burn rate** over a window is
  ``(bad / total over the window) / (1 - objective)`` — burn 1.0 spends
  exactly the budget over the evaluation period, burn 4.0 spends it 4x
  too fast.
* A burn alert FIREs only when **both** a fast window (default 5 ticks)
  and a slow window (default 60 ticks) exceed the threshold: the slow
  window keeps one bad tick from paging, the fast window makes the
  alert resolve promptly once the condition clears (the slow window
  alone would linger for its full width).

Windows shorter than their nominal width (early in a run) are evaluated
over the ticks seen so far, so alerts work from tick 1 without a warmup
period.  Events are recorded into the *current* tick bucket via
:meth:`SloEngine.record` / :meth:`SloEngine.observe`; the bucket is
sealed by :meth:`SloEngine.tick`, which also publishes burn-rate and
budget gauges to the registry.

Stdlib only (plus :mod:`repro.obs.metrics`) so every layer can import
it without cycles.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Deque, Iterable

from repro.obs.metrics import MetricsRegistry

#: Gauge: current burn rate per SLO, labelled by window ("fast"/"slow").
BURN_GAUGE = "repro_slo_burn_rate"
#: Gauge: fraction of the run-lifetime error budget consumed per SLO.
BUDGET_GAUGE = "repro_slo_error_budget_used"
#: Counter: cumulative good/bad events per SLO.
EVENTS_COUNTER = "repro_slo_events"


@dataclasses.dataclass(frozen=True)
class SloSpec:
    """One declarative objective.

    ``kind`` is documentation plus a guard: ``observe()`` (classify a
    measured value against ``threshold``) is only valid for ``latency``
    specs; ``record()`` (pre-classified good/bad counts) works for any
    kind.
    """

    name: str
    objective: float                   # e.g. 0.99 => 1% error budget
    kind: str = "availability"         # "availability" | "latency"
    threshold: float | None = None     # latency specs: good iff <= this
    fast_window: int = 5               # ticks
    slow_window: int = 60              # ticks
    fire_burn: float = 4.0             # FIRING when both windows >= this
    resolve_burn: float = 1.0          # RESOLVED when fast window < this

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}")
        if self.kind not in ("availability", "latency"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "latency" and self.threshold is None:
            raise ValueError("latency SLOs need a threshold")
        if not 0 < self.fast_window <= self.slow_window:
            raise ValueError(
                f"need 0 < fast_window <= slow_window, got "
                f"{self.fast_window}/{self.slow_window}")

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad fraction."""
        return 1.0 - self.objective


@dataclasses.dataclass(frozen=True)
class SloStatus:
    """One engine-evaluation row (what ``obs slo`` renders)."""

    name: str
    objective: float
    fast_burn: float
    slow_burn: float
    budget_used: float
    good_total: int
    bad_total: int
    ticks: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class SloTracker:
    """Sliding-window accounting for one :class:`SloSpec`."""

    def __init__(self, spec: SloSpec) -> None:
        self.spec = spec
        # Sealed tick buckets, newest last; bounded by the slow window.
        self._window: Deque[tuple[int, int]] = collections.deque(
            maxlen=spec.slow_window)
        self._open_good = 0
        self._open_bad = 0
        # Run-lifetime totals for error-budget accounting.
        self.good_total = 0
        self.bad_total = 0
        self.ticks = 0

    # -- recording ---------------------------------------------------------

    def record(self, good: int = 0, bad: int = 0) -> None:
        """Add pre-classified events to the current (open) tick."""
        if good < 0 or bad < 0:
            raise ValueError("event counts cannot be negative")
        self._open_good += good
        self._open_bad += bad
        self.good_total += good
        self.bad_total += bad

    def observe(self, value: float) -> bool:
        """Classify one measured value against the latency threshold.

        Returns True when the observation met the objective.
        """
        if self.spec.kind != "latency":
            raise ValueError(
                f"SLO {self.spec.name!r} is {self.spec.kind}; "
                "observe() is for latency SLOs — use record()")
        good = value <= self.spec.threshold
        self.record(good=1 if good else 0, bad=0 if good else 1)
        return good

    def roll(self) -> None:
        """Seal the open tick bucket into the sliding window."""
        self._window.append((self._open_good, self._open_bad))
        self._open_good = 0
        self._open_bad = 0
        self.ticks += 1

    # -- evaluation --------------------------------------------------------

    def error_rate(self, window: int) -> float:
        """Bad fraction over the last ``window`` sealed ticks (0.0 when
        the window saw no events)."""
        if window <= 0:
            raise ValueError("window must be positive")
        good = bad = 0
        take = min(window, len(self._window))
        for index in range(len(self._window) - take, len(self._window)):
            g, b = self._window[index]
            good += g
            bad += b
        total = good + bad
        return bad / total if total else 0.0

    def burn_rate(self, window: int) -> float:
        """How many times faster than sustainable the budget burns."""
        return self.error_rate(window) / self.spec.budget

    @property
    def fast_burn(self) -> float:
        return self.burn_rate(self.spec.fast_window)

    @property
    def slow_burn(self) -> float:
        return self.burn_rate(self.spec.slow_window)

    def should_fire(self) -> bool:
        """Google-SRE condition: both windows above the fire threshold."""
        return (self.fast_burn >= self.spec.fire_burn
                and self.slow_burn >= self.spec.fire_burn)

    def should_resolve(self) -> bool:
        """The fast window drains quickly once the condition clears;
        gating resolution on it (not the lingering slow window) gives
        prompt RESOLVED events."""
        return self.fast_burn < self.spec.resolve_burn

    def error_budget_used(self) -> float:
        """Fraction of the run-lifetime budget consumed (can be > 1)."""
        total = self.good_total + self.bad_total
        if total == 0:
            return 0.0
        return (self.bad_total / total) / self.spec.budget

    def status(self) -> SloStatus:
        return SloStatus(
            name=self.spec.name,
            objective=self.spec.objective,
            fast_burn=self.fast_burn,
            slow_burn=self.slow_burn,
            budget_used=self.error_budget_used(),
            good_total=self.good_total,
            bad_total=self.bad_total,
            ticks=self.ticks,
        )


class SloEngine:
    """All registered SLOs, advanced together on the simulated clock."""

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._trackers: dict[str, SloTracker] = {}
        self.ticks = 0

    def register(self, spec: SloSpec) -> SloTracker:
        """Idempotent for an identical spec; conflicting re-registration
        is a programming error and raises (same contract as the metrics
        registry)."""
        existing = self._trackers.get(spec.name)
        if existing is not None:
            if existing.spec != spec:
                raise ValueError(
                    f"SLO {spec.name!r} already registered with a "
                    "different spec")
            return existing
        tracker = SloTracker(spec)
        self._trackers[spec.name] = tracker
        return tracker

    def tracker(self, name: str) -> SloTracker:
        tracker = self._trackers.get(name)
        if tracker is None:
            raise KeyError(
                f"no SLO {name!r}; registered: {sorted(self._trackers)}")
        return tracker

    def __contains__(self, name: str) -> bool:
        return name in self._trackers

    def __len__(self) -> int:
        return len(self._trackers)

    def names(self) -> list[str]:
        return sorted(self._trackers)

    # -- recording ---------------------------------------------------------

    def record(self, name: str, good: int = 0, bad: int = 0) -> None:
        self.tracker(name).record(good=good, bad=bad)

    def observe(self, name: str, value: float) -> bool:
        return self.tracker(name).observe(value)

    # -- the clock ---------------------------------------------------------

    def tick(self, now: float) -> None:
        """Seal the current tick for every SLO and publish gauges."""
        del now  # the engine is tick-indexed; now is for call-site symmetry
        self.ticks += 1
        burn = self.metrics.gauge(
            BURN_GAUGE, "Error-budget burn rate per SLO and window",
            ("slo", "window"))
        budget = self.metrics.gauge(
            BUDGET_GAUGE, "Fraction of run-lifetime error budget used",
            ("slo",))
        events = self.metrics.counter(
            EVENTS_COUNTER, "Cumulative SLO events", ("slo", "result"))
        for name, tracker in sorted(self._trackers.items()):
            tracker.roll()
            burn.labels(slo=name, window="fast").set(tracker.fast_burn)
            burn.labels(slo=name, window="slow").set(tracker.slow_burn)
            budget.labels(slo=name).set(tracker.error_budget_used())
            events.labels(slo=name, result="good").set_total(
                tracker.good_total)
            events.labels(slo=name, result="bad").set_total(
                tracker.bad_total)

    def status(self) -> list[SloStatus]:
        return [tracker.status()
                for _, tracker in sorted(self._trackers.items())]

    def trackers(self) -> Iterable[SloTracker]:
        for _, tracker in sorted(self._trackers.items()):
            yield tracker
