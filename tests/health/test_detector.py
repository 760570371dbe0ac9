"""Phi-accrual detector: thresholds, calibration, and monotonicity."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.health.detector import DetectorPolicy, PhiAccrualDetector
from repro.health import HostState

INTERVAL = 0.1


def beaten(detector, host="nfv0", beats=20, interval=INTERVAL, start=0.0):
    for i in range(beats):
        detector.heartbeat(host, start + i * interval)
    return start + (beats - 1) * interval


class TestPolicy:
    @pytest.mark.parametrize("kwargs", [
        dict(window=1),
        dict(suspect_phi=0.0),
        dict(suspect_phi=9.0, dead_phi=8.0),
        dict(expected_interval=0.0),
        dict(min_std_fraction=0.0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            DetectorPolicy(**kwargs)

    def test_defaults_valid(self):
        policy = DetectorPolicy()
        assert policy.suspect_phi < policy.dead_phi


class TestPhi:
    def test_never_beaten_host_is_unknown_not_dead(self):
        detector = PhiAccrualDetector()
        assert detector.phi("ghost", 100.0) == 0.0
        assert detector.state_of("ghost", 100.0) is HostState.ALIVE
        assert detector.last_heard("ghost") is None

    def test_regular_beats_stay_alive(self):
        detector = PhiAccrualDetector()
        last = beaten(detector)
        assert detector.state_of("nfv0", last + INTERVAL) is HostState.ALIVE
        assert detector.phi("nfv0", last) == 0.0   # no gap yet

    def test_crash_walks_alive_suspect_dead(self):
        detector = PhiAccrualDetector()
        last = beaten(detector)
        states = [
            detector.state_of("nfv0", last + k * INTERVAL)
            for k in (1, 2, 4, 8)
        ]
        assert states[0] is HostState.ALIVE
        assert HostState.SUSPECT in states
        assert states[-1] is HostState.DEAD

    def test_two_dropped_beats_never_read_dead(self):
        """The calibration pin: a gap of three intervals (two beats
        lost, the third arriving) peaks below the death threshold."""
        detector = PhiAccrualDetector()
        last = beaten(detector)
        worst = detector.phi("nfv0", last + 3 * INTERVAL)
        policy = detector.policy
        assert policy.suspect_phi <= worst < policy.dead_phi
        assert detector.state_of(
            "nfv0", last + 3 * INTERVAL) is HostState.SUSPECT

    def test_recovery_beat_collapses_phi(self):
        detector = PhiAccrualDetector()
        last = beaten(detector)
        gap_end = last + 3 * INTERVAL
        detector.heartbeat("nfv0", gap_end)
        assert detector.state_of(
            "nfv0", gap_end + INTERVAL) is HostState.ALIVE

    def test_forget_erases_history(self):
        detector = PhiAccrualDetector()
        beaten(detector)
        detector.forget("nfv0")
        assert detector.phi("nfv0", 1e9) == 0.0
        assert detector.beats.get("nfv0") is None

    def test_snapshot_covers_every_host_heard(self):
        detector = PhiAccrualDetector()
        beaten(detector, "a")
        beaten(detector, "b")
        snap = detector.snapshot(100.0)
        assert set(snap) == {"a", "b"}
        assert all(state is HostState.DEAD for state in snap.values())

    def test_window_is_bounded(self):
        policy = DetectorPolicy(window=4)
        detector = PhiAccrualDetector(policy)
        beaten(detector, beats=100)
        assert len(detector._intervals["nfv0"]) == 4

    def test_extreme_gap_is_infinite_phi(self):
        detector = PhiAccrualDetector()
        last = beaten(detector)
        assert detector.phi("nfv0", last + 1e6) == float("inf")


class TestMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(
        intervals=st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=0, max_size=16
        ),
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=8
        ),
    )
    def test_phi_nondecreasing_in_gap(self, intervals, gaps):
        """For a fixed history, suspicion never falls as silence grows."""
        detector = PhiAccrualDetector()
        now = 0.0
        detector.heartbeat("h", now)
        for interval in intervals:
            now += interval
            detector.heartbeat("h", now)
        phis = [detector.phi("h", now + gap) for gap in sorted(gaps)]
        for earlier, later in zip(phis, phis[1:]):
            assert later >= earlier - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(gap=st.floats(min_value=0.0, max_value=100.0))
    def test_phi_nonnegative(self, gap):
        detector = PhiAccrualDetector()
        last = beaten(detector)
        assert detector.phi("nfv0", last + gap) >= 0.0
