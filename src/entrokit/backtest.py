"""Long-only mean-reversion strategy and buy-and-hold benchmark.

The strategy enters when the z-score of price against its rolling mean
drops to entry_z and exits back to cash when it recovers to exit_z.
Signals use only the trailing window ending at the current bar and fill at
that bar's close; there is no shorting, no leverage and no transaction
cost model.  A report keeps the fills as arrays: each one's bar index and
share count.  Fills alternate buy and sell, starting with a buy, so a fill's
side, price and timestamp come from the series, and the equity at every bar
from the fills and the series' prices (``PerformanceReport.equity``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .series import PriceSeries, _frozen

__all__ = [
    "StrategyParams",
    "PerformanceReport",
    "mean_reversion_backtest",
    "entropy_cohort_report",
]


# window elements reduced per block by _rolling_mean_std (8 MB of float64)
_BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class StrategyParams:
    window: int = 20
    entry_z: float = -1.0
    exit_z: float = 0.0
    initial_capital: float = 10_000.0

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be >= 2")
        for name in ("entry_z", "exit_z", "initial_capital"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.entry_z >= self.exit_z:
            raise ValueError("entry_z must be below exit_z")
        if self.initial_capital <= 0:
            raise ValueError("initial_capital must be positive")


@dataclass(frozen=True, eq=False)  # arrays have no single truth value; compare fields
class PerformanceReport:
    ticker: str
    strategy_return_pct: float
    benchmark_return_pct: float
    trade_bars: np.ndarray  # int64 bar index of each fill; even positions buy, odd sell
    trade_shares: np.ndarray  # float64 shares bought or sold at each fill
    params: StrategyParams

    @property
    def num_trades(self) -> int:
        return len(self.trade_bars)

    def equity(self, prices: np.ndarray) -> np.ndarray:
        """The equity at every bar of the backtested series' ``prices``: the capital before
        the first buy, ``shares * price`` from each buy through its sale, then the sale's cash,
        the bits of the state machine's ``cash + shares * price`` (its other term is 0.0)."""
        value = np.full(len(prices), float(self.params.initial_capital))
        bars = self.trade_bars.tolist()
        for k, (bar, end) in enumerate(zip(bars, bars[1:] + [len(prices)])):
            value[bar:end] = self.trade_shares[k] * (prices[bar:end] if k % 2 == 0 else prices[bar])
        return value


def _rolling_mean_std(prices: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of every trailing window of ``w`` prices.

    Each row of the window view is reduced on its own, by the same pairwise
    sums as ``prices[t - w + 1 : t + 1].mean()`` and ``.std()``, so the
    figures are bit-identical to the per-window calls.  Rows are taken a
    block at a time to keep the temporaries small on long series.
    """
    windows = sliding_window_view(prices, w)
    means, sds = np.empty(len(windows)), np.empty(len(windows))
    step = max(1, _BLOCK_ELEMENTS // w)
    for a in range(0, len(windows), step):
        block = windows[a : a + step]
        means[a : a + step] = block.mean(axis=1)
        sds[a : a + step] = block.std(axis=1, ddof=0)
    return means, sds


def mean_reversion_backtest(series: PriceSeries, params: StrategyParams = StrategyParams()) -> PerformanceReport:
    """Run the z-score mean-reversion state machine over one price series.

    Rolling statistics (mean and population standard deviation) use the trailing
    ``window`` bars ending at the current bar, so a decision at bar t sees nothing
    past t; fills happen at bar t's close.  Bars with zero rolling standard
    deviation are skipped (no signal).  A buy that rounds to 0 shares raises ValueError.
    """
    n = len(series)
    if n <= params.window:
        raise ValueError(f"{series.ticker}: need more than {params.window} bars, got {n}")
    w = params.window
    means, sds = _rolling_mean_std(series.prices, w)
    prices = series.prices.tolist()

    cash = float(params.initial_capital)
    shares = 0.0
    bars: list[int] = []
    held: list[float] = []  # shares bought or sold at each fill
    for t, price, mean, sd in zip(range(w - 1, n), prices[w - 1 :], means.tolist(), sds.tolist()):
        if sd > 0:
            z = (price - mean) / sd
            if shares == 0.0 and z <= params.entry_z:
                shares = cash / price
                if shares == 0.0:
                    raise ValueError(f"{series.ticker}: buying {cash!r} at {price!r} gives 0 shares")
                cash = 0.0
                bars.append(t)
                held.append(shares)
            elif shares > 0.0 and z >= params.exit_z:
                cash = shares * price
                bars.append(t)
                held.append(shares)
                shares = 0.0

    return PerformanceReport(
        ticker=series.ticker,
        strategy_return_pct=((cash + shares * prices[-1]) / params.initial_capital - 1.0) * 100.0,
        benchmark_return_pct=(prices[-1] / prices[0] - 1.0) * 100.0,
        trade_bars=_frozen(bars, np.int64, "trade_bars"),
        trade_shares=_frozen(held, np.float64, "trade_shares"),
        params=params,
    )


def entropy_cohort_report(reports: list[PerformanceReport], entropies: dict[str, float]) -> dict:
    """Split tickers at the median entropy and compare cohort returns.

    Ties at the median fall back to a deterministic split by ticker order.
    """
    missing = [r.ticker for r in reports if r.ticker not in entropies]
    if missing:
        raise ValueError(f"missing entropy for tickers: {missing}")
    ordered = sorted(reports, key=lambda r: (entropies[r.ticker], r.ticker))
    half = len(ordered) // 2
    low, high = ordered[:half], ordered[half:]

    def cohort_summary(cohort: list[PerformanceReport]) -> dict:
        return {
            "tickers": [r.ticker for r in cohort],
            "mean_strategy_return_pct": float(np.mean([r.strategy_return_pct for r in cohort]))
            if cohort
            else 0.0,
            "mean_benchmark_return_pct": float(np.mean([r.benchmark_return_pct for r in cohort]))
            if cohort
            else 0.0,
        }

    return {"low_entropy": cohort_summary(low), "high_entropy": cohort_summary(high)}
