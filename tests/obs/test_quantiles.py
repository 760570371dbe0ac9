"""Percentile helper: linear interpolation."""

import random

import pytest

from repro.obs.quantiles import percentile


class TestPercentile:
    def test_single_sample(self):
        assert percentile([7.0], 0.95) == 7.0

    def test_single_sample_p50_p95_p99(self):
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert percentile([4.2], q) == 4.2

    def test_median_of_even_count_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.50) == 2.5

    def test_exact_rank_hits_sample(self):
        data = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert percentile(data, 0.25) == 20.0
        assert percentile(data, 1.0) == 50.0
        assert percentile(data, 0.0) == 10.0

    def test_extreme_quantiles_hit_min_and_max(self):
        # q=0 and q=1 are the interpolation endpoints: rank 0 and rank
        # n-1 land exactly on the extreme order statistics.
        data = [5.0, 1.0, 9.0, 3.0]
        assert percentile(data, 0.0) == min(data)
        assert percentile(data, 1.0) == max(data)

    def test_p50_p95_p99_of_one_to_hundred(self):
        data = [float(i) for i in range(1, 101)]     # 1..100
        assert percentile(data, 0.50) == pytest.approx(50.5)
        # rank 0.95 * (100 - 1) = 94.05 -> 95.05
        assert percentile(data, 0.95) == pytest.approx(95.05)
        assert percentile(data, 0.99) == pytest.approx(99.01)

    def test_duplicate_heavy_sample(self):
        data = [2.0] * 9 + [100.0]
        assert percentile(data, 0.50) == 2.0
        # rank 0.95 * 9 = 8.55 -> between data[8] = 2 and data[9] = 100
        assert percentile(data, 0.95) == pytest.approx(2.0 + 0.55 * 98.0)

    def test_interpolation_between_ranks(self):
        # rank = 0.95 * (2 - 1) = 0.95 -> 1 + 0.95 * (2 - 1)
        assert percentile([1.0, 2.0], 0.95) == pytest.approx(1.95)

    def test_unsorted_input_is_sorted_first(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_matches_numpy_linear_method(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(13)
        data = [rng.gauss(10.0, 3.0) for _ in range(257)]
        for q in (0.5, 0.95, 0.99):
            assert percentile(data, q) == pytest.approx(
                float(np.percentile(data, 100 * q)), rel=1e-12
            )
