"""Price data model, and the returns and symbols derived from it.

Pipeline order: prices -> log returns -> quantile symbols -> entropy
estimators.  A ``PriceSeries`` holds read-only numpy arrays, validated in
vectorised form when it is built; returns are plain read-only float64
arrays and symbols plain read-only int64 arrays.  Everything here is a
pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PriceSeries",
    "EntropyEstimate",
    "log_returns",
    "quantile_discretize",
]


def _frozen(values, dtype, name: str) -> np.ndarray:
    """A read-only 1-D copy of ``values``; the caller's array is left as it is."""
    arr = np.array(values, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)  # arrays have no single truth value; compare fields
class PriceSeries:
    ticker: str
    sampling: str  # "daily" or "intraday"; metadata only
    timestamps: np.ndarray  # int64 epoch seconds, UTC, strictly increasing
    prices: np.ndarray  # float64, positive and finite

    def __post_init__(self) -> None:
        if self.sampling not in ("daily", "intraday"):
            raise ValueError(f"unknown sampling label {self.sampling!r}")
        ts = _frozen(self.timestamps, np.int64, "timestamps")
        prices = _frozen(self.prices, np.float64, "prices")
        if len(ts) != len(prices):
            raise ValueError(f"{self.ticker}: {len(ts)} timestamps for {len(prices)} prices")
        if np.any(ts[1:] <= ts[:-1]):
            raise ValueError(f"{self.ticker}: timestamps must be strictly increasing")
        if not np.all(np.isfinite(prices) & (prices > 0)):
            raise ValueError(f"{self.ticker}: prices must be positive and finite")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", prices)

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class EntropyEstimate:
    bits_per_symbol: float
    sample_size: int


def log_returns(series: PriceSeries) -> np.ndarray:
    """Consecutive log price ratios r_t = ln(p_{t+1} / p_t), as a read-only float64 array."""
    if len(series) < 2:
        raise ValueError(f"{series.ticker}: need at least 2 points for returns")
    returns = np.diff(np.log(series.prices))
    returns.flags.writeable = False
    return returns


def quantile_discretize(returns: np.ndarray, num_states: int = 4) -> np.ndarray:
    """Map each return to its empirical quantile bucket, as a read-only int64 array.

    Values are ranked by (value, original index) and the ranks are cut into
    ``num_states`` contiguous blocks of near-equal size.  When n is not
    divisible by num_states the earlier buckets get the extra element.
    Occupancy is balanced, but equal returns are ranked by position: the
    earlier ones of a run of ties (say exact zeros) fall in a lower bucket
    than the later ones, so heavily tied returns give symbols with a time
    trend, which LZ and CTW read as predictability.
    """
    if num_states < 2:
        raise ValueError("num_states must be >= 2")
    n = len(returns)
    if n < num_states:
        raise ValueError(f"need at least {num_states} observations, got {n}")
    base, rem = divmod(n, num_states)
    sizes = np.full(num_states, base)
    sizes[:rem] += 1
    symbols = np.empty(n, dtype=np.int64)
    symbols[np.argsort(returns, kind="stable")] = np.repeat(np.arange(num_states), sizes)
    symbols.flags.writeable = False
    return symbols

