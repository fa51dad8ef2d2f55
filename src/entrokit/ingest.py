"""CSV price ingestion.

Input format: header ``timestamp,ticker,close``; timestamp is epoch seconds
or an ISO date (YYYY-MM-DD); UTF-8, with or without a byte-order mark,
comma-delimited.  Rows with missing, nonpositive or infinite prices, or
timestamps outside int64, are skipped and counted; duplicate timestamps
keep the last row seen.  A file holds one sampling frequency: each of its
series takes the label (daily vs intraday) of the median timestamp spacing
of its ticker with the most rows.  A ticker of more than ``bds.MIN_LENGTH``
timestamps whose own spacing gives the other label makes the file an input
error, a ValueError naming the file, that ticker and the labelling one.  A
csv error (such as a quote never closed) or bytes that are not UTF-8 raise
ValueError naming the file.

The file is read as bytes, ``CHUNK_BYTES`` at a time, each chunk extended
to the end of its last line.  A chunk whose every line has the strict form
``digits,TICKER,digits.digits`` is parsed with numpy over its bytes: the
line ends in LF or CRLF (or the file ends), the timestamp has 1-18 digits,
the ticker is 1-8 printable ASCII bytes other than quote, comma and space,
and the price has at least one digit on each side of its dot, at most 16
digits in all, and read without its dot is below 2**53.  Such a price is
mantissa / 10**k, one correctly rounded division of two exact doubles, so
it equals ``float()`` of the text (Clinger, PLDI 1990).  The first chunk
with a line of any other form (an ISO date, a sign, an exponent, a blank
line, a space, a long or non-ASCII ticker) or a ``"`` anywhere (quoting can
span lines and chunks) is read by ``csv.reader`` one row at a time, and so
is the rest of the same stream; a header that is not the plain expected one
sends the whole file there.  So every input, a pipe too, is read once.  The
rows parsed from bytes before the switch stay: those lines are ASCII and
hold no quote, so ``csv.reader`` reads them the same way and starts the
switch chunk outside any quoted field.  Both paths apply the same rules and
give the same series, counts and errors; ``csv.reader`` over the whole file
is the tests' oracle.

``CHUNK_BYTES`` is 2**18 (256 KiB), about 8,700 lines of 30 bytes; the
byte parse holds about 150 bytes of temporaries per line of its chunk.
Parsed rows wait until about ``_GROUP_ROWS`` have gathered; then one
stable sort of their ticker codes moves each ticker's rows onto its own
pieces, in file order.  At the end each ticker in name order joins and
lets go of its pieces, so a row kept costs 16 bytes and only one ticker's
rows are held twice, while its series copies them.  Growth of peak RSS,
one fresh process each on a 2-core machine: 20, 25 and 21 bytes a row on
10**7 rows written ticker by ticker, the same rows in time order, and
3,000 tickers x 2,520 days written date by date; 43 MB on the 1.82M-row
``intraday.csv`` of ``make-dataset --points 20000`` (61 MB row by row).
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bds import MIN_LENGTH
from .series import PriceSeries

__all__ = ["IngestResult", "ingest_csv"]

EXPECTED_HEADER = ["timestamp", "ticker", "close"]

# median spacing at or above half a day means the file is daily
DAILY_SPACING_SECONDS = 43_200

CHUNK_BYTES = 1 << 18

_BOM = b"\xef\xbb\xbf"
_POW10 = np.array([10**k for k in range(17)], dtype=np.int64)
_POW10_FLOAT = _POW10.astype(np.float64)  # exact: every 10**k for k <= 22 is a double
_MAX_MANTISSA = 2**53  # below this every integer is an exact double
# keeps the first w of a key's 8 bytes
_NAME_MASK = np.array([(2**64 - 1) ^ (2 ** (64 - 8 * w) - 1) for w in range(9)], dtype=np.uint64)


@dataclass(frozen=True)
class IngestResult:
    series: tuple[PriceSeries, ...]
    skipped_rows: int
    duplicate_rows: int


# rows that wait before one sort moves them onto their tickers' pieces; past 1,024
# tickers the wait grows with them, so that a piece holds about 256 rows
_GROUP_ROWS = 1 << 18


class _Rows:
    """The valid rows read so far, grouped by ticker in file order, and the count skipped."""

    def __init__(self) -> None:
        self.codes: dict[str, int] = {}  # ticker -> code, numbered as first seen
        # code -> that ticker's (timestamps, prices) pieces, in file order
        self.pieces: list[list[tuple[np.ndarray, np.ndarray]]] = []
        self.waiting: list[tuple[np.ndarray, ...]] = []  # (codes, timestamps, prices) to group
        self.waiting_rows = 0
        self.skipped = 0

    def add(
        self, codes: np.ndarray, timestamps: np.ndarray, prices: np.ndarray, skipped: int
    ) -> None:
        self.skipped += skipped
        self.waiting.append((codes, timestamps, prices))
        self.waiting_rows += len(codes)
        if self.waiting_rows >= _GROUP_ROWS * (1 + len(self.codes) // 1024):
            self.group()

    def group(self) -> None:
        """Move the waiting rows onto their tickers' pieces, in file order: the sort is stable."""
        code, ts, prices = (np.concatenate(column) for column in zip(*self.waiting))
        self.waiting.clear()
        self.waiting_rows = 0
        self.pieces += [[] for _ in range(len(self.codes) - len(self.pieces))]
        order = np.argsort(code, kind="stable")
        counts = np.bincount(code, minlength=len(self.codes))
        ends = np.cumsum(counts)
        for c in np.flatnonzero(counts):
            rows = order[ends[c] - counts[c] : ends[c]]
            self.pieces[c].append((ts[rows], prices[rows]))


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


def _spacing_label(spacing: np.ndarray) -> str:
    """The sampling label of bars ``spacing`` seconds apart: daily unless their median
    spacing is below DAILY_SPACING_SECONDS."""
    if len(spacing) and float(np.median(spacing)) < DAILY_SPACING_SECONDS:
        return "intraday"
    return "daily"


def _sampling_label(rows: _Rows) -> tuple[str, str]:
    """The file's sampling label and the ticker it is read from: that with the most rows
    read, duplicates counted, and of a tie the first by name."""
    ticker = max(
        sorted(rows.codes), key=lambda t: sum(len(ts) for ts, _ in rows.pieces[rows.codes[t]])
    )
    spacing = np.diff(np.sort(np.concatenate([ts for ts, _ in rows.pieces[rows.codes[ticker]]])))
    return _spacing_label(spacing[spacing > 0]), ticker  # the rows of one timestamp are one bar


def _csv_rows(reader, path: Path, lines_before: int) -> Iterator[list[str]]:
    """``reader``'s rows; a csv or decoding error becomes a ValueError naming the file.

    A csv error names its line, counting the ``lines_before`` lines of the
    file that came before ``reader``'s first.  A decoding error names the
    byte, not where it is: the decoder reads ahead of the rows, so it knows no
    line number.
    """
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: line {lines_before + reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ValueError(f"{path}: not UTF-8: {exc.reason} (byte 0x{byte:02x})") from None


def _parse_rows(rows: Iterable[list[str]], out: _Rows) -> None:
    """Add the valid rows of csv ``rows`` to ``out``, ``_GROUP_ROWS`` at a time."""
    rows = iter(rows)
    codes = out.codes
    full = True
    while full:
        row_codes: list[int] = []
        row_ts: list[int] = []
        row_prices: list[float] = []
        skipped = 0
        for row in rows:
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
            if len(row_codes) == _GROUP_ROWS:
                break
        full = len(row_codes) == _GROUP_ROWS
        out.add(
            np.array(row_codes, dtype=np.int64),
            np.array(row_ts, dtype=np.int64),
            np.array(row_prices, dtype=np.float64),
            skipped,
        )


def _digits(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integers written in ``buf[lo:hi]`` (1-18 bytes each), and whether each is all digits."""
    width = hi - lo
    values = np.empty(len(lo), dtype=np.int64)
    ok = np.empty(len(lo), dtype=bool)
    for w in np.flatnonzero(np.bincount(width)):  # the fields of one width at a time
        rows = np.flatnonzero(width == w)
        at = lo[rows]
        value = np.zeros(len(rows), dtype=np.int64)
        digits = np.ones(len(rows), dtype=bool)
        for k in range(w):
            d = buf[at + k] - ord("0")  # uint8: bytes below "0" wrap high
            digits &= d <= 9
            value = value * 10 + d
        values[rows], ok[rows] = value, digits
    return values, ok


def _strict_rows(chunk: bytes, out: _Rows) -> bool:
    """Add ``chunk``'s rows to ``out`` and return True if every line is strict, else False."""
    if b"\0" in chunk:  # a NUL would pass for a ticker's zero padding
        return False
    # eight NULs after the last line let every ticker be read as 8 bytes
    tail = (b"" if chunk.endswith(b"\n") else b"\n") + bytes(8)
    buf = np.frombuffer(chunk + tail, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    ends -= buf[ends - 1] == ord("\r")  # a CRLF line ends at its CR
    commas = np.flatnonzero(buf == ord(","))
    if len(commas) != 2 * len(ends):
        return False
    # with two commas a line in all, each line's own two lie inside it
    c1, c2 = commas[0::2], commas[1::2]
    dots = np.flatnonzero(buf == ord("."))
    if len(dots) != len(ends):  # a dot outside the prices: find the first after each second comma
        dots = np.append(dots, len(buf))[np.searchsorted(dots, c2)]
    ts_width, ticker_width = c1 - starts, c2 - c1 - 1
    if not (
        ((ts_width >= 1) & (ts_width <= 18) & (ticker_width >= 1) & (ticker_width <= 8))
        & ((dots - c2 >= 2) & (ends - dots >= 2) & (ends - c2 <= 18))
    ).all():
        return False
    timestamps, ok_ts = _digits(buf, starts, c1)
    whole, ok_whole = _digits(buf, c2 + 1, dots)
    frac, ok_frac = _digits(buf, dots + 1, ends)
    decimals = ends - dots - 1
    mantissa = whole * _POW10[decimals] + frac
    if not (ok_ts & ok_whole & ok_frac & (mantissa < _MAX_MANTISSA)).all():
        return False
    # the 8 bytes from each ticker's first, read big-endian with the bytes after
    # the ticker zeroed: one key per name, whose order is the names' order
    keys = sliding_window_view(buf, 8)[c1 + 1].view(">u8")[:, 0].astype(np.uint64)
    keys &= _NAME_MASK[ticker_width]
    # check the ticker of each run of equal keys, not of each row; zero-price rows'
    # too, for csv.reader reads theirs (a lone CR in one ends a line, a byte not UTF-8 fails)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    runs = np.flatnonzero(first)
    run_keys, run_index = np.unique(keys[runs], return_inverse=True)
    names = [int(k).to_bytes(8, "big").rstrip(b"\0") for k in run_keys]
    if not all(0x21 <= c <= 0x7E for name in names for c in name):
        return False
    name_of = np.repeat(run_index, np.diff(np.append(runs, len(keys))))
    valid = mantissa > 0  # a zero price is skipped, as on the per-row path
    name_of, timestamps = name_of[valid], timestamps[valid]
    prices = mantissa[valid] / _POW10_FLOAT[decimals[valid]]
    # number only the tickers of rows kept: a ticker seen only with zero prices has no series
    kept = np.zeros(len(names), dtype=bool)
    kept[name_of] = True
    codes = out.codes
    code_of = np.array(
        [codes.setdefault(n.decode(), len(codes)) if k else -1 for n, k in zip(names, kept)],
        dtype=np.int64,
    )
    out.add(code_of[name_of], timestamps, prices, int(len(valid) - len(name_of)))
    return True


def _is_header(fields: list[str]) -> bool:
    return [f.strip().lower() for f in fields] == EXPECTED_HEADER


def _plain_header(line: bytes) -> bool:
    """Whether ``line`` is the expected header with no quote and no carriage return but its CRLF."""
    text = line.removesuffix(b"\n").removesuffix(b"\r")
    if b"\r" in text:  # strip would drop it from a name; a quoted name is not the name
        return False
    return _is_header(text.decode("utf-8", errors="replace").split(","))


def _result(path: Path, rows: _Rows) -> IngestResult:
    """Per-ticker series from ``rows``, in ticker name order."""
    if not rows.codes:
        raise ValueError(f"{path}: no valid rows")
    if rows.waiting:
        rows.group()
    sampling, labelled_by = _sampling_label(rows)
    series = []
    duplicates = 0
    for ticker in sorted(rows.codes):
        pieces = rows.pieces[rows.codes[ticker]]
        ts, prices = (np.concatenate(column) for column in zip(*pieces))
        pieces.clear()  # the series copies its rows: hold only this ticker's twice
        if not (ts[1:] >= ts[:-1]).all():
            # stable, so of rows sharing a timestamp the last read comes last
            order = np.argsort(ts, kind="stable")
            ts, prices = ts[order], prices[order]
        last = np.append(ts[1:] != ts[:-1], True)  # the last row of each timestamp
        if not last.all():
            duplicates += len(last) - int(np.count_nonzero(last))
            ts, prices = ts[last], prices[last]
        own = _spacing_label(np.diff(ts))
        if own != sampling and len(ts) > MIN_LENGTH:  # a few bars keep the file's label
            raise ValueError(
                f"{path}: {labelled_by!r} is {sampling} but {ticker!r} is {own}: "
                "a file holds one sampling frequency, so split it"
            )
        series.append(
            PriceSeries(ticker=ticker, sampling=sampling, timestamps=ts, prices=prices)
        )
    return IngestResult(series=tuple(series), skipped_rows=rows.skipped, duplicate_rows=duplicates)


class _Replay(io.RawIOBase):
    """``head``, which starts at byte ``offset`` of the file, then the rest of ``fh``.

    One stream, so that one decoder reads ahead over both.  Its first read ends
    where reads of the same size from the start of the file would, so the
    decoder sees a whole-file read's blocks: of a csv error and a byte not
    UTF-8 after it, the same one is met first.
    """

    def __init__(self, head: bytes, fh: BinaryIO, offset: int) -> None:
        self.head = memoryview(head)
        self.fh = fh
        self.offset = offset

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        size = len(buf) - self.offset % len(buf)
        self.offset = 0
        n = min(size, len(self.head))
        buf[:n] = self.head[:n]
        self.head = self.head[n:]
        return n + self.fh.readinto(memoryview(buf)[n:size])


def _read_rest(path: Path, raw: _Replay, lines: int, rows: _Rows) -> None:
    """Add the rows of ``raw`` to ``rows``, read with ``csv.reader``.

    ``lines`` lines, the header among them, were parsed from bytes before
    ``raw``; with none, ``raw`` starts the file and the header is read here.
    """
    # a byte-order mark is skipped only at the start of the file, as a whole-file read does
    encoding = "utf-8" if lines else "utf-8-sig"
    with io.TextIOWrapper(raw, encoding=encoding, newline="") as text:
        reader = _csv_rows(csv.reader(text), path, lines)
        if not lines:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            if not _is_header(header):
                raise ValueError(
                    f"{path}: expected header {','.join(EXPECTED_HEADER)}, got {header}"
                )
        _parse_rows(reader, rows)


def ingest_csv(path: str | Path) -> IngestResult:
    """Parse one price CSV into per-ticker, timestamp-sorted series."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    rows = _Rows()
    lines = offset = 0  # the lines and bytes parsed from bytes, the header's among them
    with path.open("rb") as fh:
        chunk = fh.readline()
        if _plain_header(chunk.removeprefix(_BOM)):
            lines, offset = 1, len(chunk)
            while chunk := fh.read(CHUNK_BYTES):
                chunk += fh.readline()
                if b'"' in chunk or not _strict_rows(chunk, rows):
                    break
                lines += chunk.count(b"\n")
                offset += len(chunk)
        if chunk or not lines:
            _read_rest(path, _Replay(chunk, fh, offset), lines, rows)
    return _result(path, rows)
