import math
import tracemalloc

import numpy as np
import pytest

from builders import price_series
from entrokit import backtest
from entrokit.backtest import (
    PerformanceReport,
    StrategyParams,
    entropy_cohort_report,
    mean_reversion_backtest,
)


def loop_backtest(series, params=StrategyParams()):
    """Reference: the state machine with one ``mean`` and ``std`` call per window.

    Returns (fill bars, fill shares, equity at every bar, strategy %, benchmark %).
    """
    prices = series.prices
    w = params.window
    cash = params.initial_capital
    shares = 0.0
    bars, held, equity = [], [], []
    for t in range(len(series)):
        price = prices[t]
        if t >= w - 1:
            window_slice = prices[t - w + 1 : t + 1]
            mean = window_slice.mean()
            sd = window_slice.std(ddof=0)
            if sd > 0:
                z = (price - mean) / sd
                if shares == 0.0 and z <= params.entry_z:
                    shares = cash / price
                    cash = 0.0
                    bars.append(t)
                    held.append(shares)
                elif shares > 0.0 and z >= params.exit_z:
                    cash = shares * price
                    bars.append(t)
                    held.append(shares)
                    shares = 0.0
        equity.append(float(cash + shares * price))
    return (
        bars,
        [float(x) for x in held],
        equity,
        float((equity[-1] / params.initial_capital - 1.0) * 100.0),
        float((prices[-1] / prices[0] - 1.0) * 100.0),
    )


def replay(report, prices):
    """Final equity from the fills alone: buys at even positions, sells at odd ones."""
    cash, shares = report.params.initial_capital, 0.0
    for k, bar in enumerate(report.trade_bars):
        if k % 2 == 0:
            cash, shares = 0.0, cash / prices[bar]
        else:
            cash, shares = shares * prices[bar], 0.0
    return cash + shares * prices[-1]


OSC_PARAMS = StrategyParams(window=4, entry_z=-1.0, exit_z=0.0, initial_capital=10_000.0)


class TestMeanReversionBacktest:
    def test_constant_prices_no_trades(self):
        report = mean_reversion_backtest(price_series([100.0] * 30))
        assert report.num_trades == 0
        assert report.strategy_return_pct == 0.0
        assert report.benchmark_return_pct == 0.0

    def test_monotone_uptrend_stays_flat(self):
        prices = list(100.0 * 2 ** (np.arange(40) / 39.0))
        report = mean_reversion_backtest(price_series(prices))
        assert report.num_trades == 0
        assert report.strategy_return_pct == 0.0
        assert report.benchmark_return_pct == pytest.approx(100.0)
        assert report.strategy_return_pct <= report.benchmark_return_pct

    def test_oscillation_hand_traced(self):
        # 100,80 repeating, 12 bars, window 4: z hits -1 at every trough from
        # t=3 on and +1 at every peak, so the engine buys 80 / sells 100 four
        # full times and re-enters on the final bar:
        # 10000 * 1.25^4 = 24414.0625
        prices = [100.0 if t % 2 == 0 else 80.0 for t in range(12)]
        series = price_series(prices)
        report = mean_reversion_backtest(series, OSC_PARAMS)
        assert report.strategy_return_pct > 0
        assert report.equity(series.prices)[-1] == pytest.approx(24414.0625)
        assert report.strategy_return_pct == pytest.approx(144.140625)
        assert report.num_trades == 9  # 5 buys, 4 sells; still long at the end
        assert report.trade_bars.tolist() == [3, 4, 5, 6, 7, 8, 9, 10, 11]
        assert report.benchmark_return_pct == pytest.approx(-20.0)

    def test_accounting_replay(self):
        rng = np.random.default_rng(3)
        prices = list(100.0 * np.exp(np.cumsum(rng.normal(0, 0.03, 200))))
        series = price_series(prices)
        report = mean_reversion_backtest(series, StrategyParams(window=10))
        # replay the fills: final equity must compound exactly
        assert replay(report, prices) == pytest.approx(report.equity(series.prices)[-1], rel=1e-12)
        sold = report.trade_shares[1::2]
        assert sold.tolist() == report.trade_shares[::2][: len(sold)].tolist()  # whole positions

    def test_no_lookahead(self):
        rng = np.random.default_rng(4)
        prices = list(100.0 * np.exp(np.cumsum(rng.normal(0, 0.03, 300))))
        cut = 150
        full_series, prefix_series = price_series(prices), price_series(prices[:cut])
        full = mean_reversion_backtest(full_series, StrategyParams(window=10))
        prefix = mean_reversion_backtest(prefix_series, StrategyParams(window=10))
        # the truncated run may close differently at its last bar; all earlier
        # decisions must agree
        early = full.trade_bars < cut
        assert full.trade_bars[early].tolist() == prefix.trade_bars.tolist()
        assert full.trade_shares[early].tolist() == prefix.trade_shares.tolist()
        assert (
            full.equity(full_series.prices)[: cut - 1].tolist()
            == prefix.equity(prefix_series.prices)[: cut - 1].tolist()
        )

    def test_equity_curve_starts_at_initial_capital(self):
        series = price_series([100.0] * 25)
        report = mean_reversion_backtest(series)
        assert report.equity(series.prices)[0] == report.params.initial_capital
        assert len(report.equity(series.prices)) == 25
        assert not report.trade_bars.flags.writeable and not report.trade_shares.flags.writeable

    def test_buy_of_zero_shares_raises(self):
        # the oscillation's first entry at bar 3 buys 5e-324 / 80 shares, which is 0.0
        prices = [100.0 if t % 2 == 0 else 80.0 for t in range(12)]
        params = StrategyParams(window=4, initial_capital=5e-324)
        with pytest.raises(ValueError, match="0 shares"):
            mean_reversion_backtest(price_series(prices, ticker="TINY"), params)

    def test_too_short(self):
        with pytest.raises(ValueError):
            mean_reversion_backtest(price_series([100.0] * 10), StrategyParams(window=10))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StrategyParams(entry_z=0.5, exit_z=0.0)
        with pytest.raises(ValueError, match="window must be >= 2"):
            StrategyParams(window=1)
        with pytest.raises(ValueError, match="initial_capital must be positive"):
            StrategyParams(initial_capital=0.0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"entry_z": math.nan},
            {"entry_z": -math.inf},
            {"exit_z": math.nan},
            {"exit_z": math.inf},
            {"initial_capital": math.nan},
            {"initial_capital": math.inf},
        ],
    )
    def test_non_finite_params(self, kw):
        with pytest.raises(ValueError, match="finite"):
            StrategyParams(**kw)


# windows straddling numpy's 8-way unrolled and 128-block pairwise sums
ORACLE_WINDOWS = (2, 7, 8, 9, 20, 129, 300)


def _walk(seed, n, decimals=None):
    rng = np.random.default_rng(seed)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, n)))
    return prices if decimals is None else np.round(prices, decimals)


def _flat_stretches(seed, n, window):
    """A walk held constant over runs longer than the window, so some sd == 0 exactly."""
    prices = _walk(seed, n, decimals=2)
    rng = np.random.default_rng(seed + 1)
    for start in rng.integers(0, n - window, size=6):
        prices[start : start + window + int(rng.integers(0, 200))] = prices[start]
    return prices


class TestAgainstLoop:
    """The window-array backtest gives the per-window loop's report exactly."""

    def _same(self, prices, window, **kw):
        series = price_series(prices)
        params = StrategyParams(window=window, **kw)
        got = mean_reversion_backtest(series, params)
        bars, held, equity, strategy_pct, benchmark_pct = loop_backtest(series, params)
        assert got.trade_bars.dtype == np.int64 and got.trade_bars.tolist() == bars
        assert got.trade_shares.dtype == np.float64 and got.trade_shares.tolist() == held
        derived = got.equity(series.prices)
        assert derived.dtype == np.float64 and derived.tolist() == equity
        assert got.strategy_return_pct == strategy_pct
        assert got.benchmark_return_pct == benchmark_pct
        assert got.ticker == series.ticker and got.params == params
        return got

    @pytest.mark.parametrize("window", ORACLE_WINDOWS)
    def test_random_walks(self, window):
        trades = 0
        for seed in range(3):
            trades += self._same(_walk(seed, 1_500), window).num_trades
        assert trades > 0

    @pytest.mark.parametrize("window", ORACLE_WINDOWS)
    def test_flat_stretches(self, window):
        prices = _flat_stretches(10 + window, 3_000, window)
        sds = [prices[t - window + 1 : t + 1].std() for t in range(window - 1, len(prices))]
        assert 0.0 in sds
        self._same(prices, window)

    @pytest.mark.parametrize("window", ORACLE_WINDOWS)
    def test_two_decimal_ties(self, window):
        for seed in range(3):
            self._same(_walk(100 + seed, 1_200, decimals=2), window, entry_z=-0.5, exit_z=0.5)

    @pytest.mark.parametrize("window", ORACLE_WINDOWS)
    def test_one_bar_past_window(self, window):
        for seed in range(5):
            self._same(_walk(200 + seed, window + 1), window, entry_z=-0.2, exit_z=0.1)

    def test_integer_capital(self):
        self._same(_walk(7, 300), 20, initial_capital=5_000)

    @pytest.mark.parametrize("window", (7, 20, 129))
    def test_window_blocks(self, window, monkeypatch):
        # blocks of a few rows, so block edges fall all through the series
        monkeypatch.setattr(backtest, "_BLOCK_ELEMENTS", 3 * window + 1)
        self._same(_walk(300 + window, 1_000), window)

    def test_memory_bounded_on_long_series(self):
        series = price_series(_walk(9, 50_000), step=60, sampling="intraday")
        tracemalloc.start()
        try:
            mean_reversion_backtest(series, StrategyParams(window=300))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20  # one window view of the whole series would take 120 MB


class TestEntropyCohortReport:
    def test_median_split(self):
        reports = [_fake_report(t, 1.0, 2.0) for t in ("A", "B", "C", "D")]
        entropies = {"A": 1.0, "B": 1.1, "C": 1.9, "D": 2.0}
        result = entropy_cohort_report(reports, entropies)
        assert result["low_entropy"]["tickers"] == ["A", "B"]
        assert result["high_entropy"]["tickers"] == ["C", "D"]

    def test_tie_split_by_ticker_order(self):
        reports = [_fake_report(t, 1.0, 2.0) for t in ("A", "B", "C", "D")]
        entropies = {t: 1.5 for t in ("A", "B", "C", "D")}
        result = entropy_cohort_report(reports, entropies)
        assert result["low_entropy"]["tickers"] == ["A", "B"]

    def test_equal_strategy_and_benchmark(self):
        reports = [_fake_report(t, 4.0, 4.0) for t in ("A", "B", "C", "D")]
        entropies = {"A": 1.0, "B": 1.2, "C": 1.4, "D": 1.6}
        result = entropy_cohort_report(reports, entropies)
        for side in ("low_entropy", "high_entropy"):
            diff = (
                result[side]["mean_strategy_return_pct"]
                - result[side]["mean_benchmark_return_pct"]
            )
            assert diff == 0.0

    def test_missing_ticker(self):
        reports = [_fake_report("A", 1.0, 1.0)]
        with pytest.raises(ValueError, match="A"):
            entropy_cohort_report(reports, {})


def _fake_report(ticker, strategy_pct, benchmark_pct):
    return PerformanceReport(
        ticker=ticker,
        strategy_return_pct=strategy_pct,
        benchmark_return_pct=benchmark_pct,
        trade_bars=np.empty(0, dtype=np.int64),
        trade_shares=np.empty(0),
        params=StrategyParams(),
    )
