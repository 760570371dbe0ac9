"""Overload protection: token buckets, priority shedding, breakers.

A provider recovering from a host crash faces its worst load exactly
when it has the least capacity: every evicted user re-attaches at
once, retries synchronize, and the control plane melts (the classic
metastable failure).  Three standard primitives, composed by
:class:`AdmissionController`, keep goodput from collapsing:

* :class:`TokenBucket` — rate-limits control-plane work to what the
  provider can actually sustain;
* **priority shedding** — when the bucket runs low, low-priority work
  (fresh attaches) is refused *before* high-priority work (recovery
  traffic, renewals), by requiring a higher bucket fill fraction the
  lower the priority.  Refusing early is the point: a shed DM costs
  nothing, a timed-out DM costs the full worker slot;
* :class:`CircuitBreaker` — on the *client* side of discovery, stops
  retry storms against a provider that is plainly down, probing it
  again only after a cooldown (CLOSED -> OPEN -> HALF_OPEN).

All time is simulation time passed in by callers; nothing here reads
a wall clock, so every decision is deterministic.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.errors import ConfigurationError

#: Priority classes, lower number = more important.  Recovery work
#: (evacuation re-deploys) must never be shed: shedding it turns one
#: host failure into permanent policy loss for every evicted user.
PRIORITY_CRITICAL = 0   # reconciler/evacuation traffic
PRIORITY_RENEW = 1      # existing users renewing leases
PRIORITY_ATTACH = 2     # brand-new attaches


class TokenBucket:
    """A deterministic token bucket on the simulation clock."""

    def __init__(self, capacity: float, refill_rate: float) -> None:
        if capacity <= 0 or refill_rate <= 0:
            raise ConfigurationError(
                "token bucket capacity and refill_rate must be positive"
            )
        self.capacity = float(capacity)
        self.refill_rate = float(refill_rate)
        self._level = float(capacity)
        self._updated = 0.0

    def _refill(self, now: float) -> None:
        if now > self._updated:
            self._level = min(
                self.capacity,
                self._level + (now - self._updated) * self.refill_rate,
            )
            self._updated = now

    def level(self, now: float) -> float:
        self._refill(now)
        return self._level

    def fill_fraction(self, now: float) -> float:
        return self.level(now) / self.capacity

    def try_take(self, now: float) -> bool:
        self._refill(now)
        if self._level >= 1.0:
            self._level -= 1.0
            return True
        return False


@dataclasses.dataclass(frozen=True)
class SheddingPolicy:
    """Bucket sizing plus per-priority admission thresholds.

    ``floors[p]`` is the minimum bucket fill fraction at which
    priority-``p`` work is still admitted.  Critical work is admitted
    whenever a token exists at all (floor 0); attaches need a
    comfortably full bucket, so under pressure they are shed first.
    """

    capacity: float = 32.0
    refill_rate: float = 16.0           # sustainable control ops/sec
    floors: tuple[float, ...] = (0.0, 0.25, 0.5)

    def __post_init__(self) -> None:
        if not self.floors:
            raise ConfigurationError("floors must be non-empty")
        if any(not 0.0 <= f <= 1.0 for f in self.floors):
            raise ConfigurationError("floors must be fractions in [0,1]")
        if list(self.floors) != sorted(self.floors):
            raise ConfigurationError(
                "floors must be non-decreasing with priority number"
            )

    def floor_for(self, priority: int) -> float:
        index = min(max(priority, 0), len(self.floors) - 1)
        return self.floors[index]


class AdmissionController:
    """Token-bucket admission with priority-class load shedding.

    ``pressure`` is the closed-loop input (see
    :class:`BurnRateCoupling`): a positive shift makes every request be
    judged as if it were that many priority classes less important, so
    an SLO burning its error budget tightens shedding *before* the
    bucket itself is exhausted.  Critical work stays critical — the
    shift applies at or above :data:`PRIORITY_RENEW` only.
    """

    def __init__(self, policy: SheddingPolicy | None = None) -> None:
        self.policy = policy or SheddingPolicy()
        self.bucket = TokenBucket(self.policy.capacity,
                                  self.policy.refill_rate)
        self.admitted: dict[int, int] = {}
        self.shed: dict[int, int] = {}
        self.pressure = 0

    def apply_pressure(self, shift: int) -> None:
        """Set the burn-rate pressure shift (0 restores normal floors)."""
        if shift < 0:
            raise ConfigurationError("pressure shift cannot be negative")
        self.pressure = shift

    def admit(self, now: float, priority: int = PRIORITY_ATTACH) -> bool:
        """Admit or shed one control-plane operation."""
        effective = priority
        if self.pressure and priority >= PRIORITY_RENEW:
            effective = priority + self.pressure
        fraction = self.bucket.fill_fraction(now)
        if fraction < self.policy.floor_for(effective):
            self.shed[priority] = self.shed.get(priority, 0) + 1
            return False
        if not self.bucket.try_take(now):
            self.shed[priority] = self.shed.get(priority, 0) + 1
            return False
        self.admitted[priority] = self.admitted.get(priority, 0) + 1
        return True

    def stats(self) -> dict[str, int]:
        return {
            "admitted": sum(self.admitted.values()),
            "shed": sum(self.shed.values()),
        }


class BreakerState(enum.Enum):
    CLOSED = "closed"          # normal operation
    OPEN = "open"              # failing fast, provider presumed down
    HALF_OPEN = "half_open"    # one probe in flight


class CircuitBreaker:
    """A client-side breaker for discovery retries.

    CLOSED counts consecutive failures; at ``failure_threshold`` it
    trips OPEN and :meth:`allow` fails fast (no network traffic) until
    ``cooldown`` elapses.  The first allow after cooldown moves to
    HALF_OPEN: one probe is let through, and its outcome either closes
    the breaker or re-opens it for another cooldown.
    """

    def __init__(self, failure_threshold: int = 3,
                 cooldown: float = 2.0) -> None:
        if failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if cooldown <= 0:
            raise ConfigurationError("cooldown must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.fast_failures = 0     # requests refused while OPEN
        self.trips = 0
        self._opened_at = 0.0

    def allow(self, now: float) -> bool:
        """May a request be attempted right now?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self._opened_at >= self.cooldown:
                self.state = BreakerState.HALF_OPEN
                return True
            self.fast_failures += 1
            return False
        # HALF_OPEN: exactly one probe at a time; further callers wait.
        self.fast_failures += 1
        return False

    def record_success(self, now: float) -> None:
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._trip(now)
            return
        self.consecutive_failures += 1
        if (self.state is BreakerState.CLOSED
                and self.consecutive_failures >= self.failure_threshold):
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self._opened_at = now
        self.trips += 1

    def force_open(self, now: float) -> None:
        """Trip the breaker from outside the failure-count path.

        The closed loop uses this: a burn-rate alert on the provider's
        SLO is evidence enough to stop sending it fresh work, without
        waiting for ``failure_threshold`` individual timeouts.
        Idempotent while already OPEN.
        """
        if self.state is not BreakerState.OPEN:
            self._trip(now)


class BurnRateCoupling:
    """The health plane's subscription to burn-rate alert state.

    Register :meth:`on_alert` as an :class:`~repro.obs.alerts.
    AlertManager` listener (duck-typed on the event's ``name``/``state``
    attributes — this module never imports ``repro.obs``).  While any
    subscribed alert is FIRING, the coupling keeps ``pressure_shift``
    applied to the admission controller (shedding attaches earlier) and
    force-opens the given circuit breakers (fail fast instead of piling
    more work onto a burning provider).  When the last firing alert
    resolves, admission pressure is released; breakers re-close on
    their own cooldown/probe path.
    """

    def __init__(self, admission: AdmissionController | None = None,
                 breakers: tuple[CircuitBreaker, ...] = (),
                 pressure_shift: int = 1) -> None:
        if pressure_shift < 1:
            raise ConfigurationError("pressure_shift must be >= 1")
        self.admission = admission
        self.breakers = tuple(breakers)
        self.pressure_shift = pressure_shift
        self._firing: set[str] = set()
        self.engagements = 0

    @property
    def engaged(self) -> bool:
        return bool(self._firing)

    def on_alert(self, alert, event) -> None:
        del alert
        if event.state == "firing":
            if not self._firing:
                self.engagements += 1
                if self.admission is not None:
                    self.admission.apply_pressure(self.pressure_shift)
                for breaker in self.breakers:
                    breaker.force_open(event.now)
            self._firing.add(event.name)
        else:
            self._firing.discard(event.name)
            if not self._firing and self.admission is not None:
                self.admission.apply_pressure(0)
