"""Bundled synthetic market generator.

Produces a daily and an intraday CSV for the same 91 tickers, with returns
driven by seeded 4-state Markov chains whose entropy rates differ slightly
between the two sampling cohorts.  This stands in for the original
(non-redistributable) exchange data so the full report pipeline has a
deterministic end-to-end input.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .synth import SyntheticSource, generate, shift_register_chain

__all__ = ["write_synthetic_market", "DAILY_ENTROPY_BITS", "INTRADAY_ENTROPY_BITS"]

NUM_TICKERS = 91
DAILY_ENTROPY_BITS = 1.90
INTRADAY_ENTROPY_BITS = 1.72

# per-symbol return levels sit inside distinct quartiles; the jitter is
# small enough that quantile discretization recovers the driving symbols
_RETURN_LEVELS = np.array([-0.03, -0.01, 0.01, 0.03])
_JITTER = 0.004

_DAY = 86_400
_MINUTE = 60
_T0_DAILY = 1_009_843_200  # 2002-01-01 UTC
_T0_INTRADAY = 1_382_342_400  # 2013-10-21 UTC


def _symbols_to_prices(symbols, rng: np.random.Generator) -> np.ndarray:
    levels = _RETURN_LEVELS[np.array(symbols)]
    returns = levels + rng.uniform(-_JITTER, _JITTER, size=len(symbols))
    log_prices = np.concatenate([[0.0], np.cumsum(returns)])
    return 100.0 * np.exp(log_prices)


def _write_cohort(
    path: Path,
    entropy_bits: float,
    n_points: int,
    t0: int,
    spacing: int,
    seed: int,
) -> None:
    transition = shift_register_chain(entropy_bits)
    # The same bytes csv.writer gives, written one string per ticker: the
    # tickers are SYN000-SYN090 and the other fields are numbers, so no field
    # ever needs quoting.  Each string is one %-format of the ticker's row
    # template repeated, over its timestamps and prices interleaved.
    values: list[int | float] = [0] * (2 * n_points)
    values[0::2] = range(t0, t0 + n_points * spacing, spacing)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("timestamp,ticker,close\r\n")
        for k in range(NUM_TICKERS):
            ticker = f"SYN{k:03d}"
            source = SyntheticSource(
                kind="markov", alphabet_size=4, seed=seed + k, transition=transition
            )
            symbols = generate(source, n_points - 1)
            rng = np.random.default_rng(seed + 100_000 + k)
            prices = _symbols_to_prices(symbols, rng)
            values[1::2] = prices.tolist()
            fh.write((f"%d,{ticker},%.6f\r\n" * n_points) % tuple(values))


def write_synthetic_market(
    out_dir: str | Path,
    n_points: int = 1500,
    seed: int = 0,
) -> tuple[Path, Path]:
    """Write daily.csv and intraday.csv under ``out_dir``; returns the paths."""
    if n_points < 2:
        raise ValueError("points must be >= 2")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    daily = out_dir / "daily.csv"
    intraday = out_dir / "intraday.csv"
    _write_cohort(daily, DAILY_ENTROPY_BITS, n_points, _T0_DAILY, _DAY, seed)
    _write_cohort(intraday, INTRADAY_ENTROPY_BITS, n_points, _T0_INTRADAY, _MINUTE, seed + 7_000_000)
    return daily, intraday
