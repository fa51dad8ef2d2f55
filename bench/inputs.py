"""Workload inputs, made by the benchmark from its seed.

The program receives only the CSV files written here.  The long intraday
series come from the benchmark's own Markov generator, so the driving
entropy rates the checks compare against are known without the program.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# long_intraday: one ticker per driving rate, in bits per symbol.  The two
# ends are the degenerate sources (a deterministic 4-cycle and iid uniform
# symbols) on which LZ matches run about n/2 and about log n long.
INTRADAY_RATES = (0.0, 1.0, 1.25, 1.5, 1.75, 2.0)
INTRADAY_BARS = 5001  # 5,000 returns, a multiple of the 4 symbol states
SESSION_BARS = 390
_SESSION_OPEN = 1_382_362_200  # 2013-10-21 13:30 UTC, a Monday
_LEVELS = np.array([-0.003, -0.001, 0.001, 0.003])  # one return level per state
_JITTER = 0.0004  # keeps every return inside its state's quartile

# market_report: the first MARKET_TICKERS tickers of each make-dataset cohort
MARKET_TICKERS = 40
MARKET_POINTS = 750


def _row_entropy(q: float) -> float:
    return -sum(p * math.log2(p) for p in (1.0 - 3.0 * q, q, q, q) if p > 0)


def cycle_chain(bits: float) -> np.ndarray:
    """4-state chain: mass 1-3q on the next state of the cycle, q on each other.

    Doubly stochastic, so the entropy rate is the row entropy; q is found by
    bisection on [0, 1/4], where the row entropy rises from 0 to 2 bits.
    """
    lo, hi = 0.0, 0.25
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _row_entropy(mid) < bits else (lo, mid)
    q = 0.0 if bits == 0.0 else hi
    t = np.full((4, 4), q)
    for i in range(4):
        t[i, (i + 1) % 4] = 1.0 - 3.0 * q
    return t


def chain_symbols(transition: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    cdf = np.cumsum(transition, axis=1)
    cdf[:, -1] = 1.0
    u = rng.random(n)
    out = np.empty(n, dtype=np.int64)
    state = int(rng.integers(4))  # the stationary law is uniform
    for i in range(n):
        out[i] = state
        state = int(np.searchsorted(cdf[state], u[i], side="right"))
    return out


def session_timestamps(n: int) -> np.ndarray:
    """One-minute bars in 390-bar weekday sessions, overnight and weekend gaps between."""
    session = np.arange(n) // SESSION_BARS
    minute = np.arange(n) % SESSION_BARS
    day = session + 2 * (session // 5)  # five sessions a week
    return _SESSION_OPEN + day * 86_400 + minute * 60


def write_long_intraday(path: Path, seed: int, bars: int = INTRADAY_BARS) -> dict[str, float]:
    """Write one ticker per rate in INTRADAY_RATES; returns ticker -> rate."""
    rng = np.random.default_rng(seed)
    timestamps = session_timestamps(bars)
    rates = {}
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "ticker", "close"])
        for k, bits in enumerate(INTRADAY_RATES):
            ticker = f"MIN{k:02d}"
            rates[ticker] = bits
            symbols = chain_symbols(cycle_chain(bits), bars - 1, rng)
            returns = _LEVELS[symbols] + rng.uniform(-_JITTER, _JITTER, len(symbols))
            prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
            writer.writerows([int(t), ticker, f"{p:.6f}"] for t, p in zip(timestamps, prices))
    return rates


def subset_market(src: Path, dst: Path, tickers: int) -> None:
    """Copy the rows of the first ``tickers`` tickers of a make-dataset CSV."""
    keep = {f"SYN{k:03d}" for k in range(tickers)}
    with src.open(encoding="utf-8") as fh, dst.open("w", encoding="utf-8") as out:
        out.write(fh.readline())
        out.writelines(line for line in fh if line.split(",", 2)[1] in keep)
