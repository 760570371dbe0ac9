"""Tests for the unit formatting and delay helpers."""

import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.errors import ConfigurationError


class TestTransmissionDelay:
    def test_basic(self):
        # 1500 bytes at 12 kbps = 1 second.
        assert units.transmission_delay(1500, 12_000) == pytest.approx(1.0)

    def test_zero_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            units.transmission_delay(1500, 0)

    @given(
        size=st.integers(min_value=0, max_value=10**9),
        rate=st.floats(min_value=1.0, max_value=1e12),
    )
    def test_nonnegative_and_linear(self, size, rate):
        delay = units.transmission_delay(size, rate)
        assert delay >= 0
        assert units.transmission_delay(2 * size, rate) == pytest.approx(
            2 * delay, abs=1e-12
        )


class TestFormatting:
    def test_format_time_units(self):
        assert units.format_time(45e-6) == "45.0us"
        assert units.format_time(0.030) == "30.0ms"
        assert units.format_time(1.5) == "1.50s"
        assert units.format_time(90) == "1.5min"
        assert units.format_time(0) == "0s"

    def test_format_size_units(self):
        assert units.format_size(6_000_000) == "6.00MB"
        assert units.format_size(999) == "999B"
        assert units.format_size(2_000_000_000) == "2.00GB"

    @given(st.floats(min_value=1e-7, max_value=1e4))
    def test_format_time_roundtrippable_prefix(self, seconds):
        text = units.format_time(seconds)
        assert any(text.endswith(suffix) for suffix in ("us", "ms", "s", "min"))
