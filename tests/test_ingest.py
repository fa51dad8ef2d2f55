"""The byte parse of ``ingest_csv`` against ``csv.reader`` reading every line.

``by_rows`` is ``ingest_csv`` with no header taken as plain, so ``csv.reader``
reads the whole file one row at a time; it is the oracle.  ``ingest_csv``
parses chunks from bytes while they are strict and hands the first chunk that
is not, and the rest of the same stream, to ``csv.reader``.  Every file here
must give the same series, sampling labels, skipped and duplicate counts, or
the same error, on both.  The chunk size is patched small, so most files span
many chunks, and so is the count of rows grouped by ticker at once, so the rows
of most are grouped in many steps.  Both read with the same code past the
switch and group their rows with the same code, so ``reference`` reads each
file whole with ``csv.reader`` and groups its rows in plain Python, a dict per
ticker, as the oracle of both.
"""

import csv
import math
import os
import random
import statistics
import threading
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from entrokit import ingest
from entrokit.cli import main as cli_main
from entrokit.ingest import IngestResult, ingest_csv
from entrokit.series import PriceSeries

HEADER = "timestamp,ticker,close"
TICKERS = ["A", "AAA", "ZZ", "BRK.B", "X-1", "A_B", "ABCDEFGH", "a~b", "Q!", "AA"]


def outcome(read, path):
    """What reading ``path`` gives: the error, or every series and count, prices as bits."""
    try:
        result = read(Path(path))
    except (ValueError, OSError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return (
        result.skipped_rows,
        result.duplicate_rows,
        [
            (s.ticker, s.sampling, s.timestamps.tolist(), s.prices.tobytes())
            for s in result.series
        ],
    )


def by_rows(path):
    """``ingest_csv`` with no header plain, so ``csv.reader`` reads every line: the oracle."""
    with mock.patch.object(ingest, "_plain_header", lambda line: False):
        return ingest_csv(path)


def assert_same(path):
    assert outcome(ingest_csv, path) == outcome(by_rows, path)


def reference_timestamp(raw):
    try:
        ts = int(raw)
    except ValueError:
        try:
            return int(datetime.strptime(raw, "%Y-%m-%d").replace(tzinfo=timezone.utc).timestamp())
        except ValueError:
            return None
    return ts if -(2**63) <= ts < 2**63 else None


def reference_price(raw):
    try:
        price = float(raw)
    except ValueError:
        return None
    return price if 0 < price < math.inf else None


def reference(path):
    """The grouping oracle: per ticker, a dict of the last price read at each timestamp."""
    tickers, skipped, duplicates = {}, 0, 0
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = ingest._csv_rows(csv.reader(fh), path, 0)
        header = next(rows, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if [f.strip().lower() for f in header] != HEADER.split(","):
            raise ValueError(f"{path}: expected header {HEADER}, got {header}")
        for row in rows:
            fields = [f.strip() for f in row]
            if not any(fields):
                continue
            ts = price = None
            if len(fields) == 3 and fields[1]:
                ts, price = reference_timestamp(fields[0]), reference_price(fields[2])
            if ts is None or price is None:
                skipped += 1
                continue
            prices = tickers.setdefault(fields[1], {})
            duplicates += ts in prices
            prices[ts] = price
    if not tickers:
        raise ValueError(f"{path}: no valid rows")
    series = []
    for ticker in sorted(tickers):
        stamps = sorted(tickers[ticker])
        spacing = statistics.median(b - a for a, b in zip(stamps, stamps[1:])) if stamps[1:] else 0
        series.append(PriceSeries(
            ticker=ticker,
            sampling="intraday" if 0 < spacing < 43_200 else "daily",
            timestamps=stamps,
            prices=[tickers[ticker][ts] for ts in stamps],
        ))
    return IngestResult(series=tuple(series), skipped_rows=skipped, duplicate_rows=duplicates)


def strict_price(rng):
    whole = str(rng.choice([0, 1, 9, 42, 100, 2500, rng.randrange(10**6)]))
    if rng.random() < 0.1:
        whole = "0" * rng.randint(1, 3) + whole
    return f"{whole}.{str(rng.randrange(10**8)).zfill(rng.randint(1, 8))}"


def strict_line(rng, tickers, stamps):
    ticker = rng.choice(tickers)
    step = rng.choice([60, 86_400])
    stamps[ticker] = stamps.get(ticker, rng.randrange(10**9, 2 * 10**9)) + step
    return f"{stamps[ticker]},{ticker},{strict_price(rng)}"


def odd_line(rng, tickers, stamps):
    """A line the byte parse must hand to the per-row reader, or a strict edge case.

    A lone surrogate stands for the byte it escapes, which is not UTF-8.
    """
    ticker = rng.choice(tickers)
    ts = stamps.get(ticker, 10**9)
    if rng.random() < 0.3:  # a strict line with one byte changed, often next to a digit's
        line = list(strict_line(rng, tickers, stamps))
        line[rng.randrange(len(line))] = rng.choice("/:0.,-+eE x\t\r\x00\x7f\xe9\udcff")
        return "".join(line)
    return rng.choice([
        "",  # blank
        "   ",
        ",,",
        f"{ts},{ticker}",  # wrong column counts
        f"{ts},{ticker},1.5,7",
        f"2020-01-{rng.randint(1, 28):02d},{ticker},12.5",  # ISO date
        f"+{ts},{ticker},1.5",  # signs
        f"-{ts},{ticker},1.5",
        f"{ts},{ticker},+2.5",
        f"{ts},{ticker},-2.5",
        f"{ts},{ticker},1e3",  # exponents
        f"{ts},{ticker},2.5E-1",
        f"{ts},{ticker},0.000",  # zero: strict, skipped
        f"{ts},{ticker},0",
        f"{ts},A\rB,0.0",  # zero prices whose tickers csv.reader and UTF-8 still read
        f"{ts},\udcff,0.0",
        f"{ts},Ä,0.000",
        f"{ts},{ticker},inf",
        f"{ts},{ticker},-inf",
        f"{ts},{ticker},nan",
        f"{ts},{ticker},1" + "0" * 400,  # overflows to inf
        f"{ts},{ticker},100",  # no dot
        f"{ts},{ticker},.5",
        f"{ts},{ticker},5.",
        f"{ts},{ticker},1.2.3",
        f"{ts},{ticker},9999999999.999999",  # 16 digits, not below 2**53
        f"{ts},{ticker},12345678901234567",  # 17 digits
        f"{ts},{ticker},0.00000000000000001",  # 18 digits, 17 of them decimals
        f"{ts},{ticker},00000000000000001.5",
        f"{ts},{ticker},1_000.5",
        f"{ts},{ticker},",
        f"{ts},,1.5",  # empty ticker
        f"{ts},ABCDEFGHI,1.5",  # long ticker
        f"{ts},Ärger,1.5",  # non-ASCII tickers
        f"{ts},株,1.5",
        f"{ts}, {ticker} ,1.5",  # spaces
        f" {ts},{ticker},1.5",
        f"{ts},{ticker},1.5 ",
        f"{ts},{ticker}\t,1.5",
        f"{10**18 - 1},{ticker},1.5",  # 18 digits: strict
        f"{10**18},{ticker},1.5",  # 19 digits
        f"{2**63},{ticker},1.5",  # beyond int64
        f"0,{ticker},1.5",
        f"{ts},{ticker},1.5\r",  # a lone carriage return ends a csv line
        f"{ts},{ticker},1.5\r{ts + 1},{ticker},2.5",
        f"{ts},{ticker},2.25",  # duplicates of the line before
        f"{ts},{ticker},3.75",
        f"{ts},A\x00,1.5",  # NUL
        f"{ts},A\x7f,1.5",  # DEL
    ])


def random_file(path, rng):
    """A price CSV mixing strict lines with ``odd_line`` cases, in random framing."""
    tickers = rng.sample(TICKERS, rng.randint(1, 5))
    stamps = {}
    odd = rng.choice([0.0, 0.01, 0.1, 0.5])
    lines = [
        odd_line(rng, tickers, stamps) if rng.random() < odd else strict_line(rng, tickers, stamps)
        for _ in range(rng.randint(0, 150))
    ]
    if rng.random() < 0.05:  # a quote sends the whole file to the per-row reader
        at = rng.randrange(len(lines) + 1)
        lines.insert(at, rng.choice([f'1,"{tickers[0]}",1.5', '"1,A,1.5', '1,"A,\nB",2.5']))
    header = rng.choice([HEADER] * 8 + [" Timestamp , TICKER,close", "date,ticker,close", ""])
    newline = rng.choice(["\n", "\r\n"])
    text = newline.join([header, *lines])
    if rng.random() < 0.7:
        text += newline
    data = text.encode("utf-8", "surrogateescape")
    if rng.random() < 0.05:  # bytes that are not UTF-8
        at = rng.randrange(len(data) + 1)
        data = data[:at] + rng.choice([b"\xff", b"\xc3(", b"\x80", b"\xe2\x82"]) + data[at:]
    if rng.random() < 0.2:
        data = b"\xef\xbb\xbf" + data
    path.write_bytes(data)
    return path


class TestDifferentialFuzz:
    @pytest.mark.parametrize("seed", range(200))
    def test_random_file(self, tmp_path, monkeypatch, seed):
        """Small chunks and small groups against whole-file rows grouped at once."""
        rng = random.Random(seed)
        path = random_file(tmp_path / "p.csv", rng)
        expected = outcome(by_rows, path)
        assert outcome(reference, path) == expected
        monkeypatch.setattr(ingest, "CHUNK_BYTES", rng.choice([1, 16, 64, 256, 1 << 23]))
        monkeypatch.setattr(ingest, "_GROUP_ROWS", rng.choice([1, 2, 7, 50, 1 << 22]))
        assert outcome(ingest_csv, path) == expected
        assert outcome(by_rows, path) == expected

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        for data in (b"", b"\xef\xbb\xbf", b"\n", HEADER.encode(), HEADER.encode() + b"\n\n"):
            path.write_bytes(data)
            assert outcome(ingest_csv, path)[0] == "error"
            assert_same(path)


class TestGrouping:
    @staticmethod
    def time_ordered(path, group):
        """Four tickers' rows in time order; after every ``group``-th row, a duplicate of it
        and a row of another ticker two minutes late, repeating a timestamp of an earlier group."""
        lines = []
        for step in range(2, 40):
            for k, ticker in enumerate(["D", "B", "C", "A"]):
                ts = 10**9 + 60 * step
                lines.append(f"{ts},{ticker},{100 + step}.{k}")
                if len(lines) % group == 0:
                    lines.append(f"{ts},{ticker},{200 + step}.{k}")
                    lines.append(f"{ts - 120},{'DBCA'[k - 1]},{300 + step}.{k}")
        path.write_text("\n".join([HEADER, *lines]) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("group", [1, 7, 50])
    def test_duplicates_and_late_rows_across_groups(self, tmp_path, monkeypatch, group):
        """With one line a chunk, each group ends after ``group`` rows on both paths, so every
        duplicate made here has its first copy in one group and its last in the next."""
        path = self.time_ordered(tmp_path / "p.csv", group)
        expected = outcome(reference, path)
        assert expected[1] > 0
        monkeypatch.setattr(ingest, "CHUNK_BYTES", 1)
        monkeypatch.setattr(ingest, "_GROUP_ROWS", group)
        seen = spy_chunks(monkeypatch)
        assert outcome(ingest_csv, path) == expected
        assert seen and all(ok for _, ok in seen)
        assert outcome(by_rows, path) == expected

    def test_peak_allocation_per_row(self, tmp_path, monkeypatch):
        """A ticker-major strict file of 400k rows allocates at most 24 bytes a row at its peak,
        and so does the same file with a last line that is not strict.

        This counts the allocations ``tracemalloc`` traces (numpy reports its buffers
        to it), not RSS.  The rows kept, grouped and then copied ticker by ticker into
        their series, cost 16 bytes each; chunks and groups are patched small, so their
        temporaries stay a small share of the file's.  csv.reader reads only the last
        chunk, and the rows parsed from bytes before it are kept, not read again.
        """
        tickers, bars = 100, 4000
        path = tmp_path / "p.csv"
        lines = (
            f"{10**9 + 60 * i},T{t:03d},{100 + t}.{i % 97:02d}\n"
            for t in range(tickers)
            for i in range(bars)
        )
        path.write_text(HEADER + "\n" + "".join(lines), encoding="utf-8")
        monkeypatch.setattr(ingest, "CHUNK_BYTES", 1 << 14)
        monkeypatch.setattr(ingest, "_GROUP_ROWS", 1 << 12)
        for late in ("", "2020-01-01,T000,12.5\n"):
            with path.open("a", encoding="utf-8") as fh:
                fh.write(late)
            tracemalloc.start()
            try:
                result = ingest_csv(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert sum(len(s) for s in result.series) == tickers * bars + bool(late)
            assert peak <= 24 * tickers * bars, peak / (tickers * bars)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_is_read_once(tmp_path, monkeypatch):
    """A pipe is read once, in the chunks a file of its bytes is: parsed from bytes while
    they are strict, then by csv.reader from a quote on the first line or an ISO date on
    the last."""
    monkeypatch.setattr(ingest, "CHUNK_BYTES", 64)
    strict = [f"{10**9 + 60 * i},{'AB'[i % 2]},{i}.5" for i in range(40)]
    plain, fifo = tmp_path / "p.csv", tmp_path / "fifo.csv"
    os.mkfifo(fifo)
    seen = spy_chunks(monkeypatch)
    for lines in (['1,"A",1.5', "2,A,2.5", "86400,B,0.25"], [*strict, "2020-01-01,A,2.5"]):
        text = "\n".join([HEADER, *lines]) + "\n"
        plain.write_text(text, encoding="utf-8")
        expected = outcome(ingest_csv, plain)
        chunks = seen[:]
        seen.clear()
        result = []
        reader = threading.Thread(target=lambda: result.append(outcome(ingest_csv, fifo)))
        reader.start()
        fifo.write_text(text, encoding="utf-8")  # returns once the reader has opened the pipe
        reader.join(timeout=10)
        if reader.is_alive():  # it opened the pipe again: let that open see an empty pipe
            fifo.write_text("", encoding="utf-8")
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert result == [expected]
        assert seen == chunks
        seen.clear()
    assert [ok for _, ok in chunks].count(True) > 1 and not chunks[-1][1]


def spy_chunks(monkeypatch):
    """Record each chunk the byte parse sees and whether it was strict."""
    seen = []
    strict_rows = ingest._strict_rows

    def spy(chunk, out):
        strict = strict_rows(chunk, out)
        seen.append((chunk, strict))
        return strict

    monkeypatch.setattr(ingest, "_strict_rows", spy)
    return seen


class TestChunks:
    # every line is WIDTH bytes, so CHUNK_BYTES = k * WIDTH - 1 reads k lines a chunk:
    # the read stops one byte short of the k-th newline and the line's rest is read after
    WIDTH = len("1000000000,AAA,10.25\n")
    LINES = 5

    def lines(self, n):
        return [f"{10**9 + 60 * i},{'AAA' if i % 3 else 'BBB'},{10 + i % 89}.25" for i in range(n)]

    def write(self, path, lines):
        assert all(len(line) + 1 == self.WIDTH for line in lines)
        path.write_text("\n".join([HEADER, *lines]) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "bad",
        [
            "1000000120,AAA,-1.25",
            "2001-09-09,AAA,10.25",
            "1000000120,AAA,1e+35",
            "1000000120, AA,10.25",
        ],
    )
    @pytest.mark.parametrize(
        "where", [0, 5, 9, 12, 29], ids=["file_first", "first", "last", "middle", "file_last"]
    )
    def test_bad_line_at_chunk_edges(self, tmp_path, monkeypatch, bad, where):
        monkeypatch.setattr(ingest, "CHUNK_BYTES", self.LINES * self.WIDTH - 1)
        lines = self.lines(30)
        lines[where] = bad
        path = self.write(tmp_path / "p.csv", lines)
        seen = spy_chunks(monkeypatch)
        assert_same(path)
        # the chunks before the bad line's are strict; its chunk sends the file to csv.reader
        chunk, line = divmod(where, self.LINES)
        chunk_lines = [chunk.decode().splitlines() for chunk, _ in seen]
        assert [len(c) for c in chunk_lines] == [self.LINES] * (chunk + 1)
        assert [ok for _, ok in seen] == [True] * chunk + [False]
        assert chunk_lines[chunk][line] == bad

    def test_one_middle_chunk_not_strict(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "CHUNK_BYTES", self.LINES * self.WIDTH - 1)
        lines = self.lines(35)
        lines[15:20] = ["2001-09-09,BBB,11.25"] * 5  # ISO dates, the last of them kept
        path = self.write(tmp_path / "p.csv", lines)
        seen = spy_chunks(monkeypatch)
        assert_same(path)
        assert [ok for _, ok in seen] == [True, True, True, False]
        assert outcome(ingest_csv, path)[1] == 4

    def test_file_is_opened_once(self, tmp_path, monkeypatch):
        """A late line that is not strict is read on from the file already open."""
        monkeypatch.setattr(ingest, "CHUNK_BYTES", self.LINES * self.WIDTH - 1)
        lines = self.lines(30)
        lines[28] = "2001-09-09,AAA,10.25"
        path = self.write(tmp_path / "p.csv", lines)
        expected = outcome(by_rows, path)
        opens, path_open = [], Path.open

        def counting_open(self, *args, **kwargs):
            opens.append(self)
            return path_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        seen = spy_chunks(monkeypatch)
        assert outcome(ingest_csv, path) == expected
        assert opens == [path]
        assert [ok for _, ok in seen] == [True] * 5 + [False]

    @pytest.mark.parametrize("late", ["\ufeff1000000120,AAA,10.25", '1000000120,"A\nA",10.25'])
    def test_switch_mid_file(self, tmp_path, monkeypatch, late):
        """After strict chunks csv.reader reads on as a whole-file read does: a U+FEFF that
        starts its first chunk is part of a line, not a byte-order mark, and a quoted field
        spans lines."""
        monkeypatch.setattr(ingest, "CHUNK_BYTES", self.LINES * self.WIDTH - 1)
        lines = self.lines(30)
        lines[15] = late  # the first line of the fourth chunk
        path = tmp_path / "p.csv"
        path.write_text("\n".join([HEADER, *lines]) + "\n", encoding="utf-8")
        seen = spy_chunks(monkeypatch)
        expected = outcome(ingest_csv, path)
        assert [ok for _, ok in seen][:3] == [True] * 3
        assert expected == outcome(by_rows, path) == outcome(reference, path)
        skipped, _, series = expected
        assert skipped == late.startswith("\ufeff")
        assert [ticker for ticker, *_ in series] == ["A\nA"] * ("A\nA" in late) + ["AAA", "BBB"]

    @pytest.mark.parametrize(
        "header", [b'"timestamp","ticker","close"\n', b"timestamp,ticker,close\r\r\n"]
    )
    def test_quoted_or_cr_header_read_by_rows(self, tmp_path, monkeypatch, header):
        """A header with a quote, or a carriage return other than its CRLF's, is not plain:
        csv.reader reads the whole file, and no chunk is parsed from bytes."""
        monkeypatch.setattr(ingest, "CHUNK_BYTES", self.LINES * self.WIDTH - 1)
        path = tmp_path / "p.csv"
        path.write_bytes(header + "\n".join(self.lines(30)).encode() + b"\n")
        seen = spy_chunks(monkeypatch)
        expected = outcome(reference, path)
        assert outcome(ingest_csv, path) == expected
        assert seen == []
        skipped, duplicates, series = expected
        assert (skipped, duplicates) == (0, 0)
        assert [ticker for ticker, *_ in series] == ["AAA", "BBB"]

    @pytest.mark.parametrize(
        "bad", [b"1000000120,A\rB,0.00", b"1000000120,\xff\xfe,0.00", "1000000120,Ä,0.00".encode()]
    )
    def test_zero_price_ticker_is_checked(self, tmp_path, monkeypatch, bad):
        """A skipped zero-price line's ticker must still be one csv.reader reads as the byte
        parse does: a lone CR splits the line in two, and bytes that are not UTF-8 are an error."""
        monkeypatch.setattr(ingest, "CHUNK_BYTES", self.LINES * self.WIDTH - 1)
        lines = [line.encode() for line in self.lines(30)]
        lines[12] = bad
        path = tmp_path / "p.csv"
        path.write_bytes(b"\n".join([HEADER.encode(), *lines]) + b"\n")
        seen = spy_chunks(monkeypatch)
        assert_same(path)
        assert [ok for _, ok in seen] == [True, True, False]

    def test_ticker_with_only_zero_prices(self, tmp_path, monkeypatch):
        """Strict zero-price lines are skipped, and a ticker seen only on them has no series."""
        monkeypatch.setattr(ingest, "CHUNK_BYTES", self.LINES * self.WIDTH - 1)
        lines = self.lines(30)
        lines[3::4] = [f"{10**9 + 60 * i},ZZZ,00.00" for i in range(len(lines[3::4]))]
        path = self.write(tmp_path / "p.csv", lines)
        seen = spy_chunks(monkeypatch)
        assert_same(path)
        assert seen and all(ok for _, ok in seen)
        result = ingest_csv(path)
        assert [s.ticker for s in result.series] == ["AAA", "BBB"]
        assert result.skipped_rows == 7
        self.write(path, lines[3::4])
        with pytest.raises(ValueError, match="no valid rows"):
            ingest_csv(path)
        assert_same(path)

    def test_chunks_end_at_newlines(self, tmp_path, monkeypatch):
        """Odd chunk sizes split no line: the byte parse sees whole lines and every one strict."""
        lines = [f"{10**9 + i},T{i % 7},{i}.5" for i in range(200)]
        path = tmp_path / "p.csv"
        path.write_text("\r\n".join([HEADER, *lines]), encoding="utf-8")  # CRLF, no final newline
        for size in (1, 7, 33, 100, 1 << 23):
            monkeypatch.setattr(ingest, "CHUNK_BYTES", size)
            seen = spy_chunks(monkeypatch)
            assert_same(path)
            assert all(ok for _, ok in seen)
            assert b"".join(chunk for chunk, _ in seen).decode().split("\r\n") == lines
            monkeypatch.undo()


class TestExactPrices:
    def read_strict(self, tmp_path, monkeypatch, prices):
        path = tmp_path / "p.csv"
        rows = [f"{10**9 + 60 * i},PX,{p}" for i, p in enumerate(prices)]
        path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
        seen = spy_chunks(monkeypatch)
        got = ingest_csv(path).series[0].prices
        assert seen and all(ok for _, ok in seen)
        assert_same(path)
        return got

    @pytest.mark.parametrize("seed", range(3))
    def test_fifteen_significant_digits(self, tmp_path, monkeypatch, seed):
        rng = random.Random(seed)
        prices = []
        for _ in range(2000):
            digits = f"{rng.randrange(10**14, 10**15)}"
            cut = rng.randint(1, 14)
            prices.append(f"{digits[:cut]}.{digits[cut:]}")
        got = self.read_strict(tmp_path, monkeypatch, prices)
        assert got.tobytes() == np.array([float(p) for p in prices]).tobytes()

    def test_fifteen_decimals(self, tmp_path, monkeypatch):
        rng = random.Random(15)
        # 16 digits in all, so the leading digit stays below 9 to keep them below 2**53
        prices = [f"{rng.randint(0, 8)}.{rng.randrange(1, 10**15):015d}" for _ in range(2000)]
        prices += ["0.000000000000001", "8.999999999999999", "0.100000000000000"]
        got = self.read_strict(tmp_path, monkeypatch, prices)
        assert got.tobytes() == np.array([float(p) for p in prices]).tobytes()


class TestStrayQuote:
    def write(self, path, quote_at):
        rows = [f"{10**9 + 60 * i},TK{i // 1000},{100 + i % 97}.{i:06d}" for i in range(6000)]
        rows[quote_at] = '"' + rows[quote_at]
        path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
        return path

    def test_error_names_file_and_line(self, tmp_path):
        path = self.write(tmp_path / "p.csv", 10)
        with pytest.raises(ValueError, match=r"p\.csv: line \d+: field larger than field limit"):
            ingest_csv(path)
        assert_same(path)

    def test_long_field_after_many_chunks(self, tmp_path, monkeypatch):
        """Strict chunks, then a blank line: csv.reader reads on, and the error's line counts
        the lines parsed from bytes before it."""
        monkeypatch.setattr(ingest, "CHUNK_BYTES", 64)
        rows = [f"{10**9 + 60 * i},TK,{i}.5" for i in range(300)]
        rows[100:103] = ["", "1,TK,1.5\r2,TK,2.5", "2020-01-01,TK,3.5"]  # a lone CR: two lines
        rows[250] = "1,TK," + "9" * 140_000
        path = tmp_path / "p.csv"
        path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"p\.csv: line 253: field larger than field limit"):
            ingest_csv(path)
        assert_same(path)

    def test_second_fault_after_the_switch(self, tmp_path, monkeypatch):
        """A field over the limit, then a byte not UTF-8 6,000 bytes on: wherever the switch
        to csv.reader falls, the error is the one a whole-file read meets first."""
        monkeypatch.setattr(ingest, "CHUNK_BYTES", 64)
        path = tmp_path / "p.csv"
        for strict in range(0, 400, 37):
            rows = [f"{10**9 + 60 * i},TK,{i}.5".encode() for i in range(strict)]
            faults = [b"", b"1,TK," + b"9" * 140_000, b"x" * 6000 + b"\xff", b""]
            path.write_bytes(b"\n".join([HEADER.encode(), *rows, *faults]))
            assert_same(path)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cli_exits_1_without_traceback(self, tmp_path, capfd, jobs):
        bad = self.write(tmp_path / "bad.csv", 10)
        clean = tmp_path / "clean.csv"
        rows = [f"{10**9 + 86_400 * i},OK{i % 3},{50 + i % 7}.25" for i in range(300)]
        clean.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
        inputs = ["--input", str(bad)] + (["--input", str(clean)] if jobs == "2" else [])
        code = cli_main(["estimate", *inputs, "--out", str(tmp_path / "o"), "--jobs", jobs])
        err = capfd.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}: line ")
        assert "Traceback" not in err
