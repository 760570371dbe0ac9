"""Tests for the token-bucket shaper."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.netsim.queueing import TokenBucket


class TestTokenBucket:
    def test_burst_passes_without_delay(self):
        bucket = TokenBucket(rate_bps=1_500_000, burst_bytes=10_000)
        assert bucket.delay_for(5_000, now=0.0) == 0.0

    def test_sustained_rate_is_enforced(self):
        """Sending 1.5 MB through a 1.5 Mbps shaper must take ~8 seconds
        (the Binge On model from §2.2)."""
        bucket = TokenBucket(rate_bps=1_500_000, burst_bytes=16_000)
        now = 0.0
        for _ in range(100):  # 100 x 15000B = 1.5 MB
            now += bucket.delay_for(15_000, now=now)
        assert now == pytest.approx(1_500_000 * 8 / 1_500_000, rel=0.05)

    def test_tokens_refill_during_idle(self):
        bucket = TokenBucket(rate_bps=8_000, burst_bytes=1_000)
        assert bucket.delay_for(1_000, now=0.0) == 0.0
        # After 1 second idle, 1000 bytes of tokens are back.
        assert bucket.delay_for(1_000, now=1.0) == 0.0

    def test_deficit_waits_proportionally(self):
        bucket = TokenBucket(rate_bps=8_000, burst_bytes=1_000)
        bucket.delay_for(1_000, now=0.0)  # drain
        wait = bucket.delay_for(500, now=0.0)
        assert wait == pytest.approx(0.5)  # 500B at 1000 B/s

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate_bps=0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate_bps=1000, burst_bytes=0)

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(min_value=100, max_value=5000), min_size=5, max_size=40
        )
    )
    def test_long_run_rate_never_exceeds_shaper(self, sizes):
        rate = 100_000.0  # 12.5 kB/s
        bucket = TokenBucket(rate_bps=rate, burst_bytes=5_000)
        now = 0.0
        total = 0
        for size in sizes:
            now += bucket.delay_for(size, now=now)
            total += size
        if now > 0:
            # Long-run rate can exceed `rate` only via the initial burst.
            assert total <= rate * now / 8.0 + 5_000 + max(sizes)
