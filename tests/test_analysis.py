"""Tests for statistics and table rendering."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.stats import fraction, speedup, summarize
from repro.analysis.tables import render_table
from repro.errors import ReproError


class TestSummarize:
    def test_basic(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.count == 3
        assert summary.mean == pytest.approx(2.0)
        assert summary.median == 2.0
        assert summary.ci_low < 2.0 < summary.ci_high

    def test_single_sample_zero_width_ci(self):
        summary = summarize([5.0])
        assert summary.ci_low == summary.ci_high == 5.0
        assert summary.stdev == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            summarize([])

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6),
                    min_size=2, max_size=50))
    def test_ci_brackets_mean(self, samples):
        summary = summarize(samples)
        assert summary.ci_low <= summary.mean <= summary.ci_high

    def test_confidence_levels_widen(self):
        data = [1.0, 5.0, 3.0, 8.0, 2.0]
        narrow = summarize(data, confidence=0.90)
        wide = summarize(data, confidence=0.99)
        assert (wide.ci_high - wide.ci_low) > (narrow.ci_high - narrow.ci_low)


class TestSpeedupFraction:
    def test_speedup(self):
        assert speedup(10.0, 5.0) == 2.0
        assert speedup(5.0, 10.0) == 0.5
        with pytest.raises(ReproError):
            speedup(1.0, 0.0)

    def test_fraction(self):
        assert fraction(1, 4) == 0.25
        assert fraction(0, 0) == 0.0


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(
            ["name", "value"], [("a", 1.5), ("long-name", 22)],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) == {"-"}
        assert lines[3].startswith("a")
        # Columns align: 'value' column starts at the same offset.
        offset = lines[1].index("value")
        assert lines[3][offset:offset + 3] == "1.5"

    def test_float_formatting(self):
        text = render_table(["x"], [(0.000123,), (123456.0,), (0.5,), (0.0,)])
        assert "0.000123" in text
        assert "1.23e+05" in text
        assert "0.5" in text

    def test_empty_rows(self):
        text = render_table(["a", "b"], [])
        assert "a" in text and "b" in text
