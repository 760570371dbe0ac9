"""Tests for the rounds-based TCP model, including the paper's §2.2 claims."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.netsim import PathCharacteristics
from repro.netsim.tcp import (
    TcpParams,
    mathis_throughput_bps,
    simulate_split_transfer,
    simulate_transfer,
)


GOOD_WIRED = PathCharacteristics(rtt=0.040, loss_rate=0.0001, bandwidth_bps=1e9)
WIRELESS = PathCharacteristics(rtt=0.030, loss_rate=0.01, bandwidth_bps=40e6)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestPathCharacteristics:
    def test_join_adds_rtt_combines_loss_takes_min_bw(self):
        joined = GOOD_WIRED.joined_with(WIRELESS)
        assert joined.rtt == pytest.approx(0.070)
        assert joined.bandwidth_bps == 40e6
        expected_loss = 1 - (1 - 0.0001) * (1 - 0.01)
        assert joined.loss_rate == pytest.approx(expected_loss)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rtt=0.0, loss_rate=0.0, bandwidth_bps=1e6),
            dict(rtt=0.01, loss_rate=1.0, bandwidth_bps=1e6),
            dict(rtt=0.01, loss_rate=-0.1, bandwidth_bps=1e6),
            dict(rtt=0.01, loss_rate=0.0, bandwidth_bps=0.0),
        ],
    )
    def test_invalid_paths_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PathCharacteristics(**kwargs)


class TestDirectTransfer:
    def test_lossless_small_transfer_dominated_by_rtt(self):
        path = PathCharacteristics(rtt=0.1, loss_rate=0.0, bandwidth_bps=1e9)
        # 14600 bytes = 10 segments = initial cwnd: handshake + one round.
        result = simulate_transfer(14_600, path, rng=rng())
        assert result.rounds == 1
        assert result.duration == pytest.approx(0.2, rel=0.05)

    def test_duration_monotone_in_size(self):
        small = simulate_transfer(50_000, GOOD_WIRED, rng=rng(1))
        large = simulate_transfer(5_000_000, GOOD_WIRED, rng=rng(1))
        assert large.duration > small.duration

    def test_higher_loss_slows_transfer(self):
        clean = PathCharacteristics(rtt=0.05, loss_rate=0.0, bandwidth_bps=40e6)
        lossy = PathCharacteristics(rtt=0.05, loss_rate=0.03, bandwidth_bps=40e6)
        t_clean = simulate_transfer(2_000_000, clean, rng=rng(2)).duration
        t_lossy = simulate_transfer(2_000_000, lossy, rng=rng(2)).duration
        assert t_lossy > 1.5 * t_clean

    def test_goodput_bounded_by_bottleneck(self):
        path = PathCharacteristics(rtt=0.02, loss_rate=0.0, bandwidth_bps=10e6)
        result = simulate_transfer(10_000_000, path, rng=rng())
        assert result.size_bytes * 8.0 / result.duration <= 10e6 * 1.01

    def test_goodput_roughly_matches_mathis_under_loss(self):
        path = PathCharacteristics(rtt=0.06, loss_rate=0.005, bandwidth_bps=100e6)
        durations = [
            simulate_transfer(4_000_000, path, rng=rng(s)).duration
            for s in range(8)
        ]
        measured = 4_000_000 * 8.0 / (sum(durations) / len(durations))
        predicted = mathis_throughput_bps(path)
        # Rounds model and Mathis formula should agree within ~3x.
        assert predicted / 3 < measured < predicted * 3

    def test_timeline_is_monotone(self):
        result = simulate_transfer(1_000_000, WIRELESS, rng=rng(3))
        times = [t for t, _ in result.timeline]
        cumul = [b for _, b in result.timeline]
        assert times == sorted(times)
        assert cumul == sorted(cumul)
        assert cumul[-1] == 1_000_000

    def test_bytes_available_at_interpolation(self):
        result = simulate_transfer(100_000, GOOD_WIRED, rng=rng())
        assert result.bytes_available_at(-1.0) == 0
        assert result.bytes_available_at(result.duration + 1) == 100_000
        mid_time = result.timeline[0][0]
        assert result.bytes_available_at(mid_time) == result.timeline[0][1]

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_transfer(0, GOOD_WIRED)

    def test_deterministic_given_seed(self):
        a = simulate_transfer(1_000_000, WIRELESS, rng=rng(9))
        b = simulate_transfer(1_000_000, WIRELESS, rng=rng(9))
        assert a.duration == b.duration
        assert a.timeline == b.timeline

    def test_extra_per_round_delay_charged(self):
        base = simulate_transfer(1_000_000, GOOD_WIRED, rng=rng(4))
        slowed = simulate_transfer(
            1_000_000, GOOD_WIRED, rng=rng(4), extra_per_round_delay=0.01
        )
        assert slowed.duration == pytest.approx(
            base.duration + 0.01 * base.rounds, rel=1e-6
        )


class TestSplitTransfer:
    def test_split_beats_direct_on_lossy_last_mile(self):
        """The §2.2 claim: splitting shortens the loss-recovery loop."""
        upstream = PathCharacteristics(rtt=0.08, loss_rate=0.0001,
                                       bandwidth_bps=1e9)
        downstream = PathCharacteristics(rtt=0.02, loss_rate=0.01,
                                         bandwidth_bps=40e6)
        direct_path = upstream.joined_with(downstream)
        direct = np.mean([
            simulate_transfer(2_000_000, direct_path, rng=rng(s)).duration
            for s in range(10)
        ])
        split = np.mean([
            simulate_split_transfer(
                2_000_000, upstream, downstream, rng=rng(s)
            ).duration
            for s in range(10)
        ])
        assert split < direct

    def test_split_delivers_all_bytes(self):
        result = simulate_split_transfer(
            500_000, GOOD_WIRED, WIRELESS, rng=rng(5)
        )
        assert result.timeline[-1][1] == 500_000

    def test_split_cannot_outrun_upstream(self):
        """Downstream cannot deliver bytes before upstream produced them."""
        slow_up = PathCharacteristics(rtt=0.2, loss_rate=0.0,
                                      bandwidth_bps=2e6)
        fast_down = PathCharacteristics(rtt=0.005, loss_rate=0.0,
                                        bandwidth_bps=1e9)
        split = simulate_split_transfer(
            1_000_000, slow_up, fast_down, rng=rng()
        )
        upstream_alone = simulate_transfer(1_000_000, slow_up, rng=rng())
        assert split.duration >= upstream_alone.duration

    def test_proxy_overhead_hurts_tiny_transfers_on_clean_paths(self):
        """The mixed-results caveat (Xu et al. [44]): for a small object
        on a clean path the extra proxy setup is pure overhead."""
        up = PathCharacteristics(rtt=0.03, loss_rate=0.0, bandwidth_bps=1e9)
        down = PathCharacteristics(rtt=0.03, loss_rate=0.0, bandwidth_bps=1e9)
        direct = simulate_transfer(5_000, up.joined_with(down), rng=rng())
        split = simulate_split_transfer(
            5_000, up, down, rng=rng(), proxy_connection_setup=0.030
        )
        assert split.duration > direct.duration

    def test_split_deterministic_given_seed(self):
        a = simulate_split_transfer(800_000, GOOD_WIRED, WIRELESS, rng=rng(6))
        b = simulate_split_transfer(800_000, GOOD_WIRED, WIRELESS, rng=rng(6))
        assert a.duration == b.duration


class TestMathis:
    def test_lossless_returns_bandwidth(self):
        path = PathCharacteristics(rtt=0.05, loss_rate=0.0, bandwidth_bps=5e6)
        assert mathis_throughput_bps(path) == 5e6

    def test_loss_reduces_throughput(self):
        lossy = PathCharacteristics(rtt=0.05, loss_rate=0.02,
                                    bandwidth_bps=1e9)
        cleaner = PathCharacteristics(rtt=0.05, loss_rate=0.0005,
                                      bandwidth_bps=1e9)
        assert mathis_throughput_bps(lossy) < mathis_throughput_bps(cleaner)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        size=st.integers(min_value=1_000, max_value=3_000_000),
        rtt=st.floats(min_value=0.005, max_value=0.3),
        loss=st.floats(min_value=0.0, max_value=0.05),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_transfer_always_completes_with_positive_duration(
        self, size, rtt, loss, seed
    ):
        path = PathCharacteristics(rtt=rtt, loss_rate=loss, bandwidth_bps=50e6)
        result = simulate_transfer(size, path, rng=rng(seed))
        assert result.duration > 0
        assert result.timeline[-1][1] == size
        # Can't finish faster than handshake + one RTT ... minus nothing.
        assert result.duration >= 2 * rtt * 0.99

    @settings(max_examples=20, deadline=None)
    @given(
        size=st.integers(min_value=10_000, max_value=1_000_000),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_split_timeline_monotone(self, size, seed):
        result = simulate_split_transfer(
            size, GOOD_WIRED, WIRELESS, rng=rng(seed)
        )
        cumul = [b for _, b in result.timeline]
        assert cumul == sorted(cumul)
        assert cumul[-1] == size
