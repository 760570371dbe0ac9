"""Overload protection: buckets, priority shedding, circuit breakers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.health import (
    PRIORITY_ATTACH,
    PRIORITY_CRITICAL,
    PRIORITY_RENEW,
    AdmissionController,
    SheddingPolicy,
)
from repro.health.overload import BreakerState, CircuitBreaker, TokenBucket


class TestTokenBucket:
    @pytest.mark.parametrize("capacity,rate", [(0, 1), (1, 0), (-1, 1)])
    def test_invalid_rejected(self, capacity, rate):
        with pytest.raises(ConfigurationError):
            TokenBucket(capacity, rate)

    def test_starts_full_and_drains(self):
        bucket = TokenBucket(capacity=4, refill_rate=1)
        assert bucket.fill_fraction(0.0) == 1.0
        for _ in range(4):
            assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)

    def test_refills_at_rate_and_caps(self):
        bucket = TokenBucket(capacity=4, refill_rate=1)
        for _ in range(4):
            bucket.try_take(0.0)
        assert not bucket.try_take(0.5)      # only half a token back
        assert bucket.level(0.5) == pytest.approx(0.5)
        assert bucket.try_take(1.0)          # one full token accrued
        assert bucket.level(100.0) == pytest.approx(4.0)   # capped

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(capacity=4, refill_rate=1)
        bucket.try_take(10.0)
        level = bucket.level(10.0)
        assert bucket.level(5.0) == level    # stale clock is a no-op

    @settings(max_examples=50, deadline=None)
    @given(
        capacity=st.floats(min_value=1, max_value=100),
        rate=st.floats(min_value=0.1, max_value=100),
        takes=st.lists(st.floats(min_value=0, max_value=100), max_size=30),
    )
    def test_level_always_within_bounds(self, capacity, rate, takes):
        bucket = TokenBucket(capacity, rate)
        for now in sorted(takes):
            bucket.try_take(now)
            assert 0.0 <= bucket.level(now) <= capacity + 1e-9


class TestSheddingPolicy:
    @pytest.mark.parametrize("kwargs", [
        dict(floors=()),
        dict(floors=(0.0, 1.5)),
        dict(floors=(0.5, 0.25)),           # decreasing with priority
        dict(floors=(-0.1, 0.5)),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SheddingPolicy(**kwargs)

    def test_floor_for_clamps_out_of_range_priorities(self):
        policy = SheddingPolicy(floors=(0.0, 0.25, 0.5))
        assert policy.floor_for(-3) == 0.0
        assert policy.floor_for(PRIORITY_RENEW) == 0.25
        assert policy.floor_for(99) == 0.5


class TestAdmissionController:
    def test_sheds_low_priority_first(self):
        """Drain the bucket below the attach floor: attaches shed,
        renewals and critical work still admitted."""
        ctrl = AdmissionController(
            SheddingPolicy(capacity=10, refill_rate=0.001)
        )
        while ctrl.bucket.fill_fraction(0.0) >= 0.5:
            assert ctrl.admit(0.0, PRIORITY_CRITICAL)
        assert not ctrl.admit(0.0, PRIORITY_ATTACH)
        assert ctrl.admit(0.0, PRIORITY_RENEW)
        assert ctrl.admit(0.0, PRIORITY_CRITICAL)
        assert ctrl.shed == {PRIORITY_ATTACH: 1}

    def test_critical_admitted_down_to_the_last_token(self):
        ctrl = AdmissionController(
            SheddingPolicy(capacity=8, refill_rate=0.001)
        )
        admitted = 0
        while ctrl.admit(0.0, PRIORITY_CRITICAL):
            admitted += 1
        assert admitted == 8                 # every token spent
        assert ctrl.shed[PRIORITY_CRITICAL] == 1   # only on true empty

    def test_recovers_after_quiet_period(self):
        ctrl = AdmissionController(SheddingPolicy(capacity=4, refill_rate=2))
        while ctrl.admit(0.0, PRIORITY_CRITICAL):
            pass
        assert not ctrl.admit(0.0, PRIORITY_ATTACH)
        assert ctrl.admit(10.0, PRIORITY_ATTACH)   # bucket refilled full

    def test_stats_totals(self):
        ctrl = AdmissionController(SheddingPolicy(capacity=2,
                                                  refill_rate=0.001))
        ctrl.admit(0.0, PRIORITY_ATTACH)
        ctrl.admit(0.0, PRIORITY_ATTACH)     # fraction now 0.5 -> admitted
        ctrl.admit(0.0, PRIORITY_ATTACH)     # shed
        stats = ctrl.stats()
        assert stats["admitted"] + stats["shed"] == 3

    @settings(max_examples=50, deadline=None)
    @given(
        priorities=st.lists(st.integers(min_value=0, max_value=2),
                            min_size=1, max_size=60),
    )
    def test_shedding_respects_priority_order(self, priorities):
        """At any instant, if a lower-priority op was admitted then a
        simultaneously offered higher-priority op cannot be shed for
        floor reasons (floors are non-decreasing)."""
        ctrl = AdmissionController(
            SheddingPolicy(capacity=16, refill_rate=0.001)
        )
        for p in priorities:
            before = ctrl.bucket.fill_fraction(0.0)
            admitted = ctrl.admit(0.0, p)
            if not admitted and before >= 1.0 / 16:
                # Shed on the floor, not on emptiness: every
                # strictly-higher class must still clear its floor.
                assert before < ctrl.policy.floor_for(p)
                for higher in range(p):
                    assert before >= ctrl.policy.floor_for(higher) or \
                        ctrl.policy.floor_for(higher) <= \
                        ctrl.policy.floor_for(p)


class TestCircuitBreaker:
    @pytest.mark.parametrize("kwargs", [
        dict(failure_threshold=0),
        dict(cooldown=0.0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(**kwargs)

    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=2.0)
        for t in (0.0, 0.1):
            breaker.record_failure(t)
            assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0.2)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        breaker.record_success(0.2)
        breaker.record_failure(0.3)
        breaker.record_failure(0.4)
        assert breaker.state is BreakerState.CLOSED

    def test_open_fails_fast_until_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=2.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(1.0)
        assert not breaker.allow(1.9)
        assert breaker.fast_failures == 2
        assert breaker.allow(2.0)            # cooldown elapsed: probe
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.0)
        assert not breaker.allow(1.0)        # second caller waits
        breaker.record_success(1.1)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(1.2)

    def test_failed_probe_reopens_for_another_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.0)
        breaker.record_failure(1.1)          # probe failed
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        assert not breaker.allow(1.5)
        assert breaker.allow(2.1)

    @settings(max_examples=60, deadline=None)
    @given(outcomes=st.lists(st.booleans(), max_size=40))
    def test_never_allows_during_cooldown(self, outcomes):
        """Whatever the failure history, OPEN always fails fast until
        the full cooldown has elapsed."""
        breaker = CircuitBreaker(failure_threshold=2, cooldown=1.0)
        now = 0.0
        for ok in outcomes:
            now += 0.1
            if not breaker.allow(now):
                assert breaker.state is not BreakerState.CLOSED
                if breaker.state is BreakerState.OPEN:
                    assert now - breaker._opened_at < breaker.cooldown
                continue
            if ok:
                breaker.record_success(now)
            else:
                breaker.record_failure(now)


class _Event:
    """Duck-typed alert event (the coupling never imports repro.obs)."""

    def __init__(self, name, state, now=0.0):
        self.name = name
        self.state = state
        self.now = now


class TestAdmissionPressure:
    def _controller(self):
        # Four floors so an attach under pressure 1 is judged at the
        # stricter 0.9 floor instead of 0.5.
        return AdmissionController(SheddingPolicy(
            capacity=10.0, refill_rate=1.0,
            floors=(0.0, 0.25, 0.5, 0.9)))

    def test_pressure_tightens_attach_floor(self):
        controller = self._controller()
        # Drain to 60%: above the normal attach floor (0.5), below the
        # pressured one (0.9).
        for _ in range(4):
            assert controller.admit(0.0, PRIORITY_CRITICAL)
        assert controller.admit(0.0, PRIORITY_ATTACH)
        controller.apply_pressure(1)
        assert not controller.admit(0.0, PRIORITY_ATTACH)

    def test_critical_work_exempt_from_pressure(self):
        controller = self._controller()
        controller.apply_pressure(3)
        for _ in range(9):
            assert controller.admit(0.0, PRIORITY_CRITICAL)

    def test_releasing_pressure_restores_floors(self):
        controller = self._controller()
        for _ in range(4):
            controller.admit(0.0, PRIORITY_CRITICAL)
        controller.apply_pressure(1)
        assert not controller.admit(0.0, PRIORITY_ATTACH)
        controller.apply_pressure(0)
        assert controller.admit(0.0, PRIORITY_ATTACH)

    def test_negative_pressure_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionController().apply_pressure(-1)


class TestForceOpen:
    def test_force_open_trips_without_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=2.0)
        breaker.force_open(1.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1
        assert not breaker.allow(1.5)

    def test_force_open_idempotent_while_open(self):
        breaker = CircuitBreaker()
        breaker.force_open(1.0)
        breaker.force_open(1.5)
        assert breaker.trips == 1

    def test_recloses_via_normal_probe_path(self):
        breaker = CircuitBreaker(cooldown=2.0)
        breaker.force_open(1.0)
        assert breaker.allow(3.5)            # half-open probe
        breaker.record_success(3.5)
        assert breaker.state is BreakerState.CLOSED


class TestBurnRateCoupling:
    from repro.health.overload import BurnRateCoupling

    def _parts(self):
        from repro.health.overload import BurnRateCoupling
        admission = AdmissionController(SheddingPolicy(
            capacity=10.0, refill_rate=1.0,
            floors=(0.0, 0.25, 0.5, 0.9)))
        breaker = CircuitBreaker()
        coupling = BurnRateCoupling(admission=admission,
                                    breakers=(breaker,))
        return admission, breaker, coupling

    def test_firing_applies_pressure_and_opens_breakers(self):
        admission, breaker, coupling = self._parts()
        coupling.on_alert(None, _Event("burn", "firing", now=8.0))
        assert coupling.engaged
        assert coupling.engagements == 1
        assert admission.pressure == 1
        assert breaker.state is BreakerState.OPEN

    def test_resolve_of_last_alert_releases_pressure(self):
        admission, breaker, coupling = self._parts()
        coupling.on_alert(None, _Event("a", "firing"))
        coupling.on_alert(None, _Event("b", "firing"))
        coupling.on_alert(None, _Event("a", "resolved"))
        assert admission.pressure == 1        # b still firing
        coupling.on_alert(None, _Event("b", "resolved"))
        assert not coupling.engaged
        assert admission.pressure == 0

    def test_overlapping_fires_engage_once(self):
        admission, breaker, coupling = self._parts()
        coupling.on_alert(None, _Event("a", "firing"))
        coupling.on_alert(None, _Event("b", "firing"))
        assert coupling.engagements == 1
        assert breaker.trips == 1

    def test_breakers_not_reclosed_on_resolve(self):
        # Breakers recover via their own cooldown/probe path, not on
        # alert resolution: the alert clearing says the SLO recovered,
        # not that the provider did.
        admission, breaker, coupling = self._parts()
        coupling.on_alert(None, _Event("a", "firing", now=1.0))
        coupling.on_alert(None, _Event("a", "resolved", now=1.5))
        assert breaker.state is BreakerState.OPEN

    def test_stray_resolve_is_harmless(self):
        admission, _, coupling = self._parts()
        coupling.on_alert(None, _Event("never-fired", "resolved"))
        assert not coupling.engaged
        assert admission.pressure == 0

    def test_pressure_shift_validated(self):
        from repro.health.overload import BurnRateCoupling
        with pytest.raises(ConfigurationError):
            BurnRateCoupling(pressure_shift=0)

    def test_works_without_admission_or_breakers(self):
        from repro.health.overload import BurnRateCoupling
        coupling = BurnRateCoupling()
        coupling.on_alert(None, _Event("a", "firing"))
        assert coupling.engaged
        coupling.on_alert(None, _Event("a", "resolved"))
        assert not coupling.engaged
