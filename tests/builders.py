"""Shared builders for test inputs."""

import numpy as np

from entrokit.series import PriceSeries


def price_series(prices, step=86_400, ticker="T", sampling="daily"):
    """A series with one price every ``step`` seconds from t = 0."""
    return PriceSeries(
        ticker=ticker,
        sampling=sampling,
        timestamps=np.arange(len(prices), dtype=np.int64) * step,
        prices=prices,
    )
