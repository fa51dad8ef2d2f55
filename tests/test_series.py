import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from builders import price_series
from entrokit.series import (
    PriceSeries,
    log_returns,
    quantile_discretize,
)


class TestLogReturns:
    def test_simple_ratio(self):
        r = log_returns(price_series([100, 105]))
        assert r == pytest.approx([math.log(1.05)])
        assert math.isclose(r[0], 0.048790, abs_tol=1e-6)

    def test_constant_prices(self):
        values = log_returns(price_series([100, 100, 100]))
        assert values.dtype == np.float64
        assert values.tolist() == [0.0, 0.0]

    def test_symmetry(self):
        r = log_returns(price_series([100, 50, 100]))
        assert r == pytest.approx([-math.log(2), math.log(2)])
        assert r.sum() == pytest.approx(0.0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            log_returns(price_series([100]))

    def test_nonpositive_price_rejected_at_construction(self):
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                price_series([100.0, bad, 101.0])

    def test_cumsum_recovers_log_ratio(self):
        rng = np.random.default_rng(7)
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 50)))
        series = price_series(list(prices))
        r = np.cumsum(log_returns(series))
        expected = np.log(prices[1:] / prices[0])
        assert np.max(np.abs(r - expected)) < 1e-12


class TestQuantileDiscretize:
    def test_distinct_sorted_values(self):
        symbols = quantile_discretize(np.arange(1.0, 9.0), 4)
        assert symbols.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
        assert symbols.dtype == np.int64
        assert not symbols.flags.writeable
        # n not divisible by the states: the earlier buckets take the extra element
        assert quantile_discretize(np.arange(1.0, 8.0), 4).tolist() == [0, 0, 1, 1, 2, 2, 3]

    def test_all_ties_balanced(self):
        symbols = quantile_discretize(np.array([5.0, 5.0, 5.0, 5.0]), 4)
        assert symbols.tolist() == [0, 1, 2, 3]

    def test_median_split(self):
        symbols = quantile_discretize(np.array([3.0, 1.0, 4.0, 2.0]), 2)
        assert symbols.tolist() == [1, 0, 1, 0]

    def test_too_few_observations(self):
        with pytest.raises(ValueError):
            quantile_discretize(np.array([1.0, 2.0]), 4)

    def test_one_state_rejected(self):
        with pytest.raises(ValueError, match="num_states must be >= 2"):
            quantile_discretize(np.arange(10.0), 1)

    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=60),
        st.integers(2, 4),
    )
    def test_occupancy_balance(self, values, k):
        symbols = quantile_discretize(np.array(values), k)
        counts = np.bincount(symbols, minlength=k)
        assert counts.max() - counts.min() <= k - 1
        assert symbols.min() >= 0 and symbols.max() < k


class TestArrays:
    def test_price_series_holds_read_only_arrays(self):
        series = price_series([100.0, 101.0, 99.5], step=60, ticker="A", sampling="intraday")
        assert series.timestamps.dtype == np.int64
        assert series.prices.dtype == np.float64
        assert series.timestamps.tolist() == [0, 60, 120]
        assert series.prices.tolist() == [100.0, 101.0, 99.5]
        assert len(series) == 3
        for arr in (series.timestamps, series.prices):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_caller_array_is_copied(self):
        prices = np.array([100.0, 101.0])
        series = price_series(prices)
        prices[0] = 5.0
        assert prices.flags.writeable
        assert series.prices[0] == 100.0

    @pytest.mark.parametrize("timestamps", [[0, 0, 60], [0, 120, 60]])
    def test_timestamps_must_increase(self, timestamps):
        with pytest.raises(ValueError, match="strictly increasing"):
            PriceSeries("A", "daily", timestamps, [1.0, 2.0, 3.0])

    def test_lengths_and_shape_checked(self):
        with pytest.raises(ValueError, match="timestamps for"):
            PriceSeries("A", "daily", [0, 60], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="1-D"):
            PriceSeries("A", "daily", [[0, 60]], [[1.0, 2.0]])

    def test_unknown_sampling_rejected(self):
        with pytest.raises(ValueError, match="unknown sampling label 'weekly'"):
            PriceSeries("A", "weekly", [0, 60], [1.0, 2.0])

    def test_return_values_read_only(self):
        r = log_returns(price_series([100.0, 110.0, 99.0]))
        assert r.dtype == np.float64
        with pytest.raises(ValueError):
            r[0] = 0.0
