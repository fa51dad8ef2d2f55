"""CSV price ingestion.

Input format: header ``timestamp,ticker,close``; timestamp is epoch seconds
or an ISO date (YYYY-MM-DD); UTF-8, with or without a byte-order mark,
comma-delimited.  Rows with missing, nonpositive or infinite prices, or
timestamps outside int64, are skipped and counted; duplicate timestamps
keep the last row seen.  The sampling label (daily vs intraday) is
inferred from the median timestamp spacing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .series import PriceSeries

__all__ = ["IngestResult", "ingest_csv"]

EXPECTED_HEADER = ["timestamp", "ticker", "close"]

# spacing at or above half a day means the series is daily
DAILY_SPACING_SECONDS = 43_200


@dataclass(frozen=True)
class IngestResult:
    series: tuple[PriceSeries, ...]
    skipped_rows: int
    duplicate_rows: int


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _parse_timestamp(raw: str) -> int:
    try:
        ts = int(raw)
    except ValueError:
        dt = datetime.strptime(raw, "%Y-%m-%d").replace(tzinfo=timezone.utc)
        return int(dt.timestamp())
    if not _INT64_MIN <= ts <= _INT64_MAX:
        raise ValueError(f"timestamp out of range: {raw}")
    return ts


def _sampling_label(timestamps: np.ndarray) -> str:
    if len(timestamps) < 2:
        return "daily"
    spacing = float(np.median(np.diff(timestamps)))
    return "daily" if spacing >= DAILY_SPACING_SECONDS else "intraday"


def ingest_csv(path: str | Path) -> IngestResult:
    """Parse one price CSV into per-ticker, timestamp-sorted series."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    codes: dict[str, int] = {}  # ticker -> order of first appearance
    row_codes: list[int] = []
    row_ts: list[int] = []
    row_prices: list[float] = []
    skipped = 0
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != EXPECTED_HEADER:
            raise ValueError(f"{path}: expected header {','.join(EXPECTED_HEADER)}, got {header}")

        for row in reader:
            if len(row) != 3:
                skipped += any(c.strip() for c in row)  # blank lines are not counted
                continue
            raw_ts, ticker, raw_price = row[0].strip(), row[1].strip(), row[2].strip()
            if not (raw_ts or ticker or raw_price):
                continue
            try:
                ts = _parse_timestamp(raw_ts)
                price = float(raw_price) if raw_price else math.nan
            except ValueError:
                skipped += 1
                continue
            if not ticker or not 0 < price < math.inf:  # also catches NaN
                skipped += 1
                continue
            row_codes.append(codes.setdefault(ticker, len(codes)))
            row_ts.append(ts)
            row_prices.append(price)

    if not codes:
        raise ValueError(f"{path}: no valid rows")

    # number the tickers in name order, then sort rows by (ticker, timestamp);
    # the sort is stable, so of rows sharing both the last read comes last
    tickers = sorted(codes)
    rank = np.empty(len(tickers), dtype=np.int64)
    rank[[codes[t] for t in tickers]] = np.arange(len(tickers))
    code = rank[np.array(row_codes, dtype=np.int64)]
    ts = np.array(row_ts, dtype=np.int64)
    order = np.lexsort((ts, code))
    code, ts, prices = code[order], ts[order], np.array(row_prices)[order]
    last = np.ones(len(ts), dtype=bool)
    last[:-1] = (code[1:] != code[:-1]) | (ts[1:] != ts[:-1])
    code, ts, prices = code[last], ts[last], prices[last]
    bounds = np.searchsorted(code, np.arange(len(tickers) + 1))
    series = tuple(
        PriceSeries(
            ticker=ticker,
            sampling=_sampling_label(ts[a:b]),
            timestamps=ts[a:b],
            prices=prices[a:b],
        )
        for ticker, a, b in zip(tickers, bounds[:-1], bounds[1:])
    )
    return IngestResult(
        series=series, skipped_rows=skipped, duplicate_rows=len(last) - len(ts)
    )
