import argparse
import collections
import csv
import ctypes
import dataclasses
import functools
import glob
import hashlib
import io
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc

from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import entrokit
from entrokit import pipeline
from entrokit.backtest import StrategyParams
from entrokit.cli import build_parser
from entrokit.cli import main as cli_main
from entrokit.dataset import write_synthetic_market
from entrokit.ingest import ingest_csv
from entrokit.pipeline import COMMANDS, RunConfig, run_pipeline
from entrokit.series import PriceSeries

_process_ticker = pipeline._process_ticker
_ingest_csv = pipeline.ingest_csv
_pmfg = pipeline.pmfg


def _exit_worker(what):
    """End this pool worker at once; in the main process, fail the test instead of ending it."""
    if multiprocessing.parent_process() is None:
        raise AssertionError(f"{what} ran in the main process")
    os._exit(1)


def _worker_dies_on_tk1(k, config):
    """Stand-in for the per-ticker task: the pool worker running TK1 exits; the others
    return the task's named values."""
    if pipeline._SERIES[k].ticker == "TK1":
        _exit_worker("TK1's estimates")
    return _process_ticker(k, config)


def _estimator_marks_its_run(k, config):
    """Stand-in for the per-ticker task: leaves a file beside the output directory, then
    returns the task's named values."""
    Path(config.out_dir).with_name("estimator-ran").touch()
    return _process_ticker(k, config)


def _task_returns_its_pid(k, config):
    """Stand-in for the per-ticker task: its named values and ``probe``, the pid of the
    process that ran it, a name that is no record field; TK1's task raises."""
    if pipeline._SERIES[k].ticker == "TK1":
        raise ValueError("stand-in failure")
    return {**_process_ticker(k, config), "probe": float(os.getpid())}


def keep_runs(monkeypatch, stage):
    """The list to which each later run appends the ``_Run`` its ``stage`` reads."""
    runs, (fn, read) = [], pipeline.STAGES[stage]

    def keeping(run):
        runs.append(run)
        return fn(run)

    monkeypatch.setitem(pipeline.STAGES, stage, (keeping, read))
    return runs


def _pmfg_dies_on_seven_nodes(graph):
    """Stand-in for pmfg: the pool worker filtering a 7-ticker cohort's graph exits."""
    if len(graph.nodes) == 7:
        _exit_worker("the 7-ticker PMFG")
    return _pmfg(graph)


def _out_of_memory(*args, **kwargs):
    """Stand-in for a function that runs out of memory."""
    raise MemoryError("stand-in out of memory")


def _ingest_notes_its_pid(path):
    """Stand-in for ingest_csv: appends the reading process's pid to ``ingest-pids`` beside the input."""
    with Path(path).with_name("ingest-pids").open("a") as fh:
        fh.write(f"{os.getpid()}\n")
    return _ingest_csv(path)


def inline_pool(sizes):
    """Stand-in pool class: records each pool's size in ``sizes`` and runs each task at submit, here."""

    class InlinePool:
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    return InlinePool


def counting_pool(sizes):
    """Stand-in pool class: a real process pool that records its size in ``sizes``."""

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    return CountingPool


def _env_with_src():
    """This environment, with the entrokit under test first on a subprocess's PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(entrokit.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def read_outputs(out):
    """File name -> text of every file in ``out``."""
    return {p.name: p.read_text() for p in sorted(out.iterdir())}


def read_records(out):
    """Ticker -> its row of ``records.csv`` in ``out``, a dict by column."""
    with (out / "records.csv").open(newline="") as fh:
        return {row["ticker"]: row for row in csv.DictReader(fh)}


def report_body(text):
    """report.txt without its time stamp."""
    return re.sub("generated_at: .*", "", text)


def write_csv(path, rows, header="timestamp,ticker,close"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestIngestCsv:
    def test_well_formed(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["0,AAA,100", "86400,AAA,101", "172800,AAA,102"])
        result = ingest_csv(path)
        assert len(result.series) == 1
        series = result.series[0]
        assert len(series) == 3
        assert series.sampling == "daily"
        assert result.skipped_rows == 0

    def test_negative_price_skipped(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            ["0,AAA,100", "86400,AAA,-5", "172800,AAA,102", "259200,AAA,103"],
        )
        result = ingest_csv(path)
        assert len(result.series[0]) == 3
        assert result.skipped_rows == 1

    def test_infinite_price_and_huge_timestamp_skipped(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            ["0,AAA,100", "86400,AAA,inf", f"{2**63},AAA,101", "172800,AAA,102"],
        )
        result = ingest_csv(path)
        assert result.skipped_rows == 2
        assert result.series[0].timestamps.tolist() == [0, 172800]
        assert result.series[0].prices.tolist() == [100.0, 102.0]

    def test_interleaved_tickers_sorted(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            ["86400,BBB,50", "0,AAA,100", "0,BBB,49", "86400,AAA,101"],
        )
        result = ingest_csv(path)
        assert [s.ticker for s in result.series] == ["AAA", "BBB"]
        for s in result.series:
            assert s.timestamps.tolist() == [0, 86400]
        assert result.series[0].prices.tolist() == [100.0, 101.0]
        assert result.series[1].prices.tolist() == [49.0, 50.0]

    def test_duplicate_timestamp_last_wins(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["0,AAA,100", "0,AAA,200", "86400,AAA,150"])
        result = ingest_csv(path)
        assert result.duplicate_rows == 1
        assert result.series[0].timestamps.tolist() == [0, 86400]
        assert result.series[0].prices.tolist() == [200.0, 150.0]

    def test_iso_dates(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["2020-01-01,AAA,10", "2020-01-02,AAA,11"])
        series = ingest_csv(path).series[0]
        assert series.timestamps.tolist() == [1577836800, 1577923200]
        assert series.sampling == "daily"

    def test_intraday_label(self, tmp_path):
        rows = [f"{i * 60},AAA,{100 + i}" for i in range(5)]
        assert ingest_csv(write_csv(tmp_path / "p.csv", rows)).series[0].sampling == "intraday"

    def test_byte_order_mark(self, tmp_path):
        """A file saved with a UTF-8 byte-order mark reads as the same file without one."""
        path = tiny_market(tmp_path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write("86400,TK0,-1\n86400,TK1,99\n")  # one skipped row, one duplicate
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        plain, bom = ingest_csv(path), ingest_csv(marked)
        assert (bom.skipped_rows, bom.duplicate_rows) == (plain.skipped_rows, plain.duplicate_rows)
        assert (plain.skipped_rows, plain.duplicate_rows) == (1, 1)
        assert len(bom.series) == len(plain.series) == 6
        for a, b in zip(plain.series, bom.series):
            assert (a.ticker, a.sampling) == (b.ticker, b.sampling)
            assert a.timestamps.tolist() == b.timestamps.tolist()
            assert a.prices.tolist() == b.prices.tolist()

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["0,AAA,100"], header="date,symbol,price")
        with pytest.raises(ValueError, match="header"):
            ingest_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            ingest_csv(path)


def tiny_market(tmp_path, n_tickers=6, n_points=120, seed=0, step=86400, name="market.csv"):
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(n_tickers):
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, n_points)))
        rows.extend(f"{i * step},TK{k},{p:.4f}" for i, p in enumerate(prices))
    return write_csv(tmp_path / name, rows)


class TestRunPipeline:
    def test_estimate_records(self, tmp_path):
        path = tiny_market(tmp_path)
        config = RunConfig(inputs=(path,), out_dir=tmp_path / "out", command="estimate")
        run_pipeline(config)
        rows = read_records(tmp_path / "out")
        assert len(rows) == 6
        assert all(r["status"] == "ok" for r in rows.values())
        assert (tmp_path / "out" / "report.txt").exists()
        for r in rows.values():
            assert 0 <= float(r["lz_entropy"]) <= 2.15
            assert 0 <= float(r["ctw_entropy"]) <= 2.15

    def test_crash_isolation(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [
            f"{i * 86400},GOOD,{p:.4f}"
            for i, p in enumerate(100 * np.exp(np.cumsum(rng.normal(0, 0.02, 120))))
        ]
        # FLAT has constant prices: zero-variance returns fail the cohort rule
        rows += [f"{i * 86400},FLAT,100" for i in range(120)]
        path = write_csv(tmp_path / "m.csv", rows)
        config = RunConfig(inputs=(path,), out_dir=tmp_path / "out", command="estimate")
        report = run_pipeline(config)
        rows = read_records(tmp_path / "out")
        assert rows["FLAT"]["status"] == "failed"
        assert rows["GOOD"]["status"] == "ok"
        assert report.num_failed == 1

    def test_rounding_flat_returns_fail(self, monkeypatch):
        """Returns equal but for the rounding of their log prices fail as equal ones do, not
        as a BDS rejection; a walk with 1e-6 noise is not flat."""
        t = np.arange(300)
        noise = np.random.default_rng(0).normal(0, 1e-6, 300)
        config = RunConfig(inputs=(), out_dir=Path("unused"), command="validate")
        for prices in (np.full(300, 100.0), 100 * np.exp(0.001 * t), 100 * 1.01**t):
            monkeypatch.setattr(pipeline, "_SERIES", [PriceSeries("T", "daily", t * 86400, prices)])
            with pytest.raises(ValueError, match="^zero-variance series$"):
                pipeline._process_ticker(0, config)
        prices = 100 * np.exp(np.cumsum(noise))
        monkeypatch.setattr(pipeline, "_SERIES", [PriceSeries("T", "daily", t * 86400, prices)])
        assert set(pipeline._process_ticker(0, config)) == {"ctw_entropy"}

    @pytest.mark.parametrize(
        "prices, error",
        [
            ([100.0], "T: need at least 2 points for returns"),
            ([100.0, 100.0], "zero-variance series"),
            ([100.0, 101.0], "zero-variance series"),  # one return spans nothing
            ([100.0] * 3, "zero-variance series"),
            ([100.0, 101.0, 103.0], "need at least 50 observations, got 2"),
            ([100.0] * 4, "zero-variance series"),
            ([100.0, 101.0, 103.0, 102.0], "need at least 50 observations, got 3"),
        ],
    )
    def test_short_tickers_fail_the_cohort_rule(self, monkeypatch, prices, error):
        """Fewer returns than --states fail the cohort rule, not the discretization."""
        t = np.arange(len(prices)) * 86400
        monkeypatch.setattr(pipeline, "_SERIES", [PriceSeries("T", "daily", t, prices)])
        config = RunConfig(inputs=(), out_dir=Path("unused"), command="validate")
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            pipeline._process_ticker(0, config)

    def test_no_returns_left_by_split_sessions(self, monkeypatch):
        """Its one return spans a session gap: no return is left, and none is flat."""
        series = PriceSeries("T", "intraday", [0, pipeline.SESSION_GAP_SECONDS], [100.0, 101.0])
        monkeypatch.setattr(pipeline, "_SERIES", [series])
        config = RunConfig(
            inputs=(), out_dir=Path("unused"), command="validate", split_sessions=True
        )
        with pytest.raises(ValueError, match="^need at least 50 observations, got 0$"):
            pipeline._process_ticker(0, config)

    def test_reproducible_report_body(self, tmp_path):
        path = tiny_market(tmp_path)

        def run(out):
            run_pipeline(
                RunConfig(inputs=(path,), out_dir=out, command="report", permutations=50, seed=9)
            )
            text = (out / "report.txt").read_text()
            return re.sub(r"generated_at: .*", "", text), (out / "records.csv").read_text()

        body1, rec1 = run(tmp_path / "o1")
        body2, rec2 = run(tmp_path / "o2")
        assert re.sub(r"(o1|o2)", "", body1) == re.sub(r"(o1|o2)", "", body2)
        assert rec1 == rec2

    def test_jobs_parallel_matches_serial(self, tmp_path):
        path = tiny_market(tmp_path)
        for out, jobs in (("s", 1), ("p", 3)):
            run_pipeline(
                RunConfig(inputs=(path,), out_dir=tmp_path / out, command="estimate", jobs=jobs)
            )
        records = [(tmp_path / out / "records.csv").read_bytes() for out in ("s", "p")]
        assert records[0] == records[1]
        # every file each command writes on a daily and an intraday cohort is
        # the same at one job, at two and at three
        intraday = tiny_market(tmp_path, seed=1, step=60, name="intraday.csv")
        for command in COMMANDS:
            outputs = {}
            for jobs in (1, 2, 3):
                out = tmp_path / f"{command}{jobs}"
                depth = {"ctw_depth": 8} if command == "validate" else {}
                config = RunConfig(
                    inputs=(path, intraday), out_dir=out, command=command, jobs=jobs,
                    permutations=99, **depth,
                )
                run_pipeline(config)
                outputs[jobs] = read_outputs(out)
            if command == "report":  # records, report, 2 densities, 3 backtest, 2 x 5 graph
                assert len(outputs[1]) == 17
            for jobs in (2, 3):
                assert outputs[1].keys() == outputs[jobs].keys(), (command, jobs)
                for name, text in outputs[1].items():
                    other = outputs[jobs][name]
                    if name == "report.txt":  # the time stamp may differ
                        text, other = report_body(text), report_body(other)
                    assert text == other, (command, jobs, name)

    def test_empty_inputs_error(self, tmp_path):
        with pytest.raises(ValueError):
            RunConfig(inputs=(), out_dir=tmp_path / "out", command="estimate")

    def test_no_outputs_on_ingest_failure(self, tmp_path):
        bad = write_csv(tmp_path / "bad.csv", ["0,AAA,100"], header="x,y,z")
        out = tmp_path / "out"
        with pytest.raises(ValueError):
            run_pipeline(RunConfig(inputs=(bad,), out_dir=out, command="estimate"))
        assert not out.exists()

    def test_validate_writes_curves(self, tmp_path):
        config = RunConfig(inputs=(), out_dir=tmp_path / "v", command="validate", ctw_depth=8)
        run_pipeline(config)
        text = (tmp_path / "v" / "convergence.csv").read_text()
        assert text.splitlines()[0] == "source,size,lz_mean,ctw_mean,true_entropy"
        assert "uniform_iid" in text

    def test_graph_command_outputs(self, tmp_path):
        path = tiny_market(tmp_path)
        config = RunConfig(inputs=(path,), out_dir=tmp_path / "g", command="graph")
        report = run_pipeline(config)
        assert report.facts["graph[daily][mst]"] == "nodes=6 edges=5"
        edges = (tmp_path / "g" / "graph_daily_mst_edges.csv").read_text().splitlines()
        assert edges[0] == "source,target,distance"
        assert len(edges) - 1 == 5  # n-1 edges for 6 tickers
        gml = (tmp_path / "g" / "graph_daily_mst.gml").read_text()
        assert gml.startswith("graph [")
        assert "entropy" in gml

    def test_backtest_command_outputs(self, tmp_path):
        path = tiny_market(tmp_path)
        config = RunConfig(inputs=(path,), out_dir=tmp_path / "b", command="backtest")
        report = run_pipeline(config)
        assert report.facts["backtest.num_tickers"] == "6"
        assert (tmp_path / "b" / "backtest_summary.csv").exists()
        assert (tmp_path / "b" / "backtest_equity.csv").exists()

    def test_buy_of_zero_shares_is_a_named_failure(self, tmp_path):
        """A capital that buys 0.0 shares fails its tickers; it does not trade them at -100%."""
        path = tiny_market(tmp_path)
        out = tmp_path / "b"
        argv = ["backtest", "--input", str(path), "--out", str(out), "--capital", "5e-324"]
        assert cli_main(argv) == 2
        failures = [line for line in (out / "report.txt").read_text().splitlines()
                    if line.startswith("failure: ")]
        assert len(failures) == 6
        assert all(re.fullmatch(r"failure: backtest\[TK\d\]: TK\d: .* 0 shares", f) for f in failures)
        assert not (out / "backtest_trades.csv").exists()

    def test_split_sessions_drops_overnight_gaps(self, tmp_path):
        rows = []
        t = 0
        for day in range(3):
            for minute in range(40):
                rows.append(f"{t},AAA,{100 + minute * 0.1 + day:.2f}")
                t += 60
            t += 18 * 3600  # overnight
        path = write_csv(tmp_path / "m.csv", rows)
        run_pipeline(RunConfig(inputs=(path,), out_dir=tmp_path / "w", command="estimate"))
        run_pipeline(
            RunConfig(
                inputs=(path,), out_dir=tmp_path / "wo", command="estimate", split_sessions=True
            )
        )
        with_gaps, without = (read_records(tmp_path / out)["AAA"] for out in ("w", "wo"))
        assert with_gaps["n"] == "120"
        assert "split_sessions: True" in (tmp_path / "wo" / "report.txt").read_text()
        assert without["lz_entropy"] != with_gaps["lz_entropy"]
        # the two returns across the overnight gaps are dropped, no other
        series = ingest_csv(path).series[0]
        config = RunConfig(inputs=(path,), out_dir=tmp_path / "x", split_sessions=True)
        returns = pipeline._returns_for(series, config)
        one_minute = np.diff(series.timestamps) == 60
        assert len(returns) == 117
        assert np.array_equal(returns, np.diff(np.log(series.prices))[one_minute])

    def test_dead_worker_fails_its_ticker(self, tmp_path, monkeypatch):
        path = tiny_market(tmp_path)
        monkeypatch.setattr(pipeline, "_process_ticker", _worker_dies_on_tk1)
        for command in ("estimate", "report"):
            out = tmp_path / command
            code = cli_main([command, "--input", str(path), "--out", str(out), "--jobs", "2"])
            assert code == 2
            with (out / "records.csv").open(newline="") as fh:
                rows = {row["ticker"]: row for row in csv.DictReader(fh)}
            assert len(rows) == 6
            assert rows["TK1"]["status"] == "failed"
            assert rows["TK1"]["error"].startswith("BrokenProcessPool: ")
            # the tickers the broken pool left pending run again in a fresh pool
            for ticker in ("TK0", "TK2", "TK3", "TK4", "TK5"):
                assert rows[ticker]["status"] == "ok", rows[ticker]["error"]
            report = (out / "report.txt").read_text()
            assert "tickers: 6" in report
            assert "tickers_failed: 1" in report
            # the backtest and the graph build shared the broken pools, and
            # neither fails for it
            assert "failure:" not in report
        summary = (out / "backtest_summary.csv").read_text().splitlines()
        assert len(summary) == 7
        gml = (out / "graph_daily_pmfg.gml").read_text()
        assert set(re.findall(r'label "(\w+)"', gml)) == {"TK0", "TK2", "TK3", "TK4", "TK5"}

    def test_extra_value_comes_back_from_a_worker(self, tmp_path, monkeypatch):
        """A value a per-ticker task returns under a name that is no record field reaches the
        later stages from its pool worker, and no file; a task that raised leaves no values."""
        path = tiny_market(tmp_path)
        plain = tmp_path / "plain"
        assert cli_main(["report", "--input", str(path), "--out", str(plain)]) == 0
        monkeypatch.setattr(pipeline, "_process_ticker", _task_returns_its_pid)
        runs = keep_runs(monkeypatch, "backtest")
        out = tmp_path / "o"
        assert cli_main(["report", "--input", str(path), "--out", str(out), "--jobs", "2"]) == 2
        [run] = runs
        ok = [0, 2, 3, 4, 5]  # TK0..TK5 in ticker order, all but TK1
        assert sorted(run.values) == ok
        assert run.cohorts == {"daily": ok}
        for values in run.values.values():
            assert set(values) == {"lz_entropy", "ctw_entropy", "bds_statistic", "bds_p", "probe"}
            assert values["probe"] != os.getpid()
        outputs = read_outputs(out)
        assert not any("probe" in text for text in outputs.values())
        rows = outputs["records.csv"].splitlines()
        assert rows[2] == "TK1,daily,120,,,,,failed,ValueError: stand-in failure"
        assert rows[:2] + rows[3:] == [
            row for row in (plain / "records.csv").read_text().splitlines() if row[:4] != "TK1,"
        ]

    @pytest.mark.parametrize("command", ["graph", "backtest"])
    def test_cohorts_stage_keeps_ctw_alone(self, tmp_path, monkeypatch, command):
        path = tiny_market(tmp_path)
        runs = keep_runs(monkeypatch, COMMANDS[command][-1])
        out = tmp_path / "o"
        assert cli_main([command, "--input", str(path), "--out", str(out), "--jobs", "2"]) == 0
        [run] = runs
        assert {k: set(values) for k, values in run.values.items()} == {
            k: {"ctw_entropy"} for k in range(6)
        }

    def test_dead_worker_fails_its_graph(self, tmp_path, monkeypatch):
        """A worker that dies in one cohort's graph build fails that build alone."""
        daily = tiny_market(tmp_path)
        intraday = tiny_market(tmp_path, n_tickers=7, seed=1, step=60, name="intraday.csv")
        argv = [
            "report", "--input", str(daily), "--input", str(intraday),
            "--jobs", "2", "--permutations", "99", "--out",
        ]
        assert cli_main(argv + [str(tmp_path / "clean")]) == 0
        monkeypatch.setattr(pipeline, "pmfg", _pmfg_dies_on_seven_nodes)
        assert cli_main(argv + [str(tmp_path / "dead")]) == 2
        clean, dead = read_outputs(tmp_path / "clean"), read_outputs(tmp_path / "dead")
        lost = {name for name in GRAPH_FILES if "intraday" in name}
        assert len(lost) == 5
        assert dead.keys() == clean.keys() - lost
        for name in dead.keys() - {"report.txt"}:
            assert dead[name] == clean[name], name
        failures = [line for line in dead["report.txt"].splitlines() if line.startswith("failure:")]
        assert len(failures) == 1
        assert failures[0].startswith("failure: graph[intraday]: BrokenProcessPool: ")
        # report.txt loses the failed cohort's graph lines and gains the failure, no other
        kept = [
            line for line in report_body(clean["report.txt"]).splitlines()
            if not line.startswith("graph[intraday]")
        ]
        assert [
            line for line in report_body(dead["report.txt"]).splitlines()
            if not line.startswith("failure:")
        ] == kept

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "target, names, files, facts",
        [
            ("pmfg", ["graph[daily]", "graph[intraday]"], ("graph_", "correlation_"), "graph["),
            ("mean_reversion_backtest", ["backtest"], "backtest_", "backtest."),
            ("density_equality_test", ["equality"], "density_", "equality["),
        ],
        ids=["graph", "backtest", "equality"],
    )
    def test_raising_task_is_a_named_failure(
        self, tmp_path, monkeypatch, target, names, files, facts, jobs
    ):
        """A MemoryError in a cross-sectional task fails that task alone, by name, untraced."""
        daily = tiny_market(tmp_path)
        intraday = tiny_market(tmp_path, n_tickers=7, seed=1, step=60, name="intraday.csv")
        argv = [
            "report", "--input", str(daily), "--input", str(intraday),
            "--jobs", jobs, "--permutations", "99", "--out",
        ]
        assert cli_main(argv + [str(tmp_path / "clean")]) == 0
        monkeypatch.setattr(pipeline, target, _out_of_memory)
        assert cli_main(argv + [str(tmp_path / "raised")]) == 2
        clean, raised = read_outputs(tmp_path / "clean"), read_outputs(tmp_path / "raised")
        lost = {name for name in clean if name.startswith(files)}
        assert lost
        assert raised.keys() == clean.keys() - lost
        for name in raised.keys() - {"report.txt"}:
            assert raised[name] == clean[name], name
        lines = report_body(raised["report.txt"]).splitlines()
        assert [line for line in lines if line.startswith("failure:")] == [
            f"failure: {name}: MemoryError: stand-in out of memory" for name in names
        ]
        assert "Traceback" not in raised["report.txt"]
        # report.txt loses the task's lines and gains its failures, no other
        kept = [
            line for line in report_body(clean["report.txt"]).splitlines()
            if not line.startswith(facts)
        ]
        assert len(kept) < len(report_body(clean["report.txt"]).splitlines())
        assert [line for line in lines if not line.startswith("failure:")] == kept

    def test_dead_worker_reruns_keep_parallelism(self, tmp_path, monkeypatch):
        path = tiny_market(tmp_path, n_tickers=40)
        monkeypatch.setattr(pipeline, "_process_ticker", _worker_dies_on_tk1)
        pools = []
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", counting_pool(pools))
        out = tmp_path / "o"
        code = cli_main(["estimate", "--input", str(path), "--out", str(out), "--jobs", "2"])
        assert code == 2
        with (out / "records.csv").open(newline="") as fh:
            status = {row["ticker"]: row["status"] for row in csv.DictReader(fh)}
        assert len(status) == 40
        assert [t for t, s in status.items() if s != "ok"] == ["TK1"]
        # one pool for the run, one rerun pool, then one ticker alone per further break
        assert len(pools) < 10, pools
        assert pools[:2] == [2, 2]

    def test_pool_broken_at_submit(self, tmp_path, monkeypatch):
        """A pool that raises BrokenProcessPool at a submit loses that task, which runs again
        in a fresh pool of the same size; the outputs are a clean run's."""
        daily = tiny_market(tmp_path)
        intraday = tiny_market(tmp_path, seed=1, step=60, name="intraday.csv")
        args = ["report", "--input", str(daily), "--input", str(intraday), "--permutations", "20"]
        assert cli_main(args + ["--out", str(tmp_path / "clean"), "--jobs", "1"]) == 0
        sizes, submitted = [], []  # each pool's size; (pools opened, task) at each submit

        class BreaksAtFirstSubmit(inline_pool(sizes)):
            def submit(self, fn, *args):
                submitted.append((len(sizes), fn.__name__))
                if len(submitted) == 1:  # as if a worker had died since the last submit
                    raise BrokenProcessPool("stand-in broken pool")
                return super().submit(fn, *args)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", BreaksAtFirstSubmit)
        assert cli_main(args + ["--out", str(tmp_path / "broken"), "--jobs", "2"]) == 0
        assert sizes == [2, 2]
        assert submitted[0] == (1, "_backtest_task")
        assert [s for s in submitted if s[1] == "_backtest_task"] == [
            (1, "_backtest_task"), (2, "_backtest_task"),
        ]
        assert all(pools == 1 for pools, fn in submitted if fn != "_backtest_task")
        clean, broken = read_outputs(tmp_path / "clean"), read_outputs(tmp_path / "broken")
        assert clean.keys() == broken.keys()
        for name, text in clean.items():
            if name == "report.txt":
                text, broken[name] = report_body(text), report_body(broken[name])
            assert broken[name] == text, name

    def test_every_pool_forks(self, tmp_path, monkeypatch):
        """Each pool of a two-job run names the fork context, the dead-worker reruns' too:
        the stand-ins patched in here reach the workers only by fork."""
        path = tiny_market(tmp_path)
        monkeypatch.setattr(pipeline, "_process_ticker", _worker_dies_on_tk1)
        opened = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append((args, kwargs))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingPool)
        out = tmp_path / "o"
        assert cli_main(["estimate", "--input", str(path), "--out", str(out), "--jobs", "2"]) == 2
        # the run's pool, the rerun pool, TK1's pool of its own and the pool after it
        assert [kwargs["max_workers"] for _, kwargs in opened][:4] == [2, 2, 1, 2]
        for args, kwargs in opened:
            assert args == ()
            assert kwargs["mp_context"].get_start_method() == "fork"

    def test_tasks_carry_indices_not_series(self, tmp_path, monkeypatch):
        """No task's pickled call exceeds 64 KiB on a market whose every cohort holds more
        than that in prices: a task names its series by index."""
        daily, intraday = write_synthetic_market(tmp_path / "m", n_points=300)
        for path in (daily, intraday):
            assert sum(s.prices.nbytes for s in ingest_csv(path).series) > 64 * 1024
        sizes = collections.defaultdict(list)
        submit = pipeline._Executor.submit

        def measuring_submit(executor, fn, *args):
            sizes[fn.__name__].append(len(pickle.dumps((fn, args))))
            return submit(executor, fn, *args)

        monkeypatch.setattr(pipeline._Executor, "submit", measuring_submit)
        run_pipeline(RunConfig(inputs=(daily, intraday), out_dir=tmp_path / "o", permutations=20))
        assert {name: len(v) for name, v in sizes.items()} == {
            "_backtest_task": 1, "_process_ticker": 182, "_graph_task": 2, "_density_task": 1,
        }
        assert max(max(v) for v in sizes.values()) <= 64 * 1024, dict(sizes)

    def test_series_table_lives_for_one_run(self, tmp_path, monkeypatch):
        """The table of series is empty once a run returns or raises, and each of two
        two-job runs in one process reads its own market."""
        first = tiny_market(tmp_path)
        second = tiny_market(tmp_path, n_tickers=9, seed=1, name="second.csv")
        records = {}
        for jobs in (2, 1):
            for path in (first, second):
                out = tmp_path / f"{path.stem}{jobs}"
                run_pipeline(RunConfig(inputs=(path,), out_dir=out, command="estimate", jobs=jobs))
                assert pipeline._SERIES == []
                records[path.stem, jobs] = (out / "records.csv").read_text()
        for path, tickers in ((first, 6), (second, 9)):
            assert records[path.stem, 2] == records[path.stem, 1]
            assert len(records[path.stem, 2].splitlines()) == 1 + tickers
        # the second input repeats a daily ticker of the first, read into the table before it
        seen = []

        def ingest_notes_the_table(path):
            seen.append(len(pipeline._SERIES))
            return _ingest_csv(path)

        monkeypatch.setattr(pipeline, "ingest_csv", ingest_notes_the_table)
        config = RunConfig(inputs=(first, second), out_dir=tmp_path / "o", command="estimate")
        with pytest.raises(ValueError, match="is in both"):
            run_pipeline(config)
        assert seen == [0, 6]
        assert pipeline._SERIES == []

    def test_pool_no_larger_than_its_tickers(self, tmp_path, monkeypatch):
        path = tiny_market(tmp_path)
        sizes = []
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", inline_pool(sizes))
        args = ["estimate", "--input", str(path), "--out"]
        assert cli_main(args + [str(tmp_path / "p"), "--jobs", "10000"]) == 0
        assert sizes == [6]
        assert cli_main(args + [str(tmp_path / "s"), "--jobs", "1"]) == 0
        assert sizes == [6]
        records = [(tmp_path / d / "records.csv").read_text() for d in ("p", "s")]
        assert records[0] == records[1]

    def test_pool_sizes_two_inputs(self, tmp_path, monkeypatch):
        """Two inputs open one pool a run, of min(jobs, tickers) workers, and none at one job."""
        daily = tiny_market(tmp_path)
        intraday = tiny_market(tmp_path, seed=1, step=60, name="intraday.csv")
        sizes = []
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", inline_pool(sizes))
        args = ["report", "--input", str(daily), "--input", str(intraday), "--permutations", "20"]
        assert cli_main(args + ["--out", str(tmp_path / "p"), "--jobs", "10000"]) == 0
        assert sizes == [12]
        assert cli_main(args + ["--out", str(tmp_path / "q"), "--jobs", "2"]) == 0
        assert sizes == [12, 2]
        assert cli_main(args + ["--out", str(tmp_path / "s"), "--jobs", "1"]) == 0
        assert sizes == [12, 2]
        outputs = {d: read_outputs(tmp_path / d) for d in ("p", "q", "s")}
        for d in ("p", "q"):
            assert outputs[d].keys() == outputs["s"].keys()
            for name, text in outputs["s"].items():
                if name != "report.txt":
                    assert outputs[d][name] == text, (d, name)

    def test_ingest_runs_in_the_main_process(self, tmp_path, monkeypatch):
        """At two jobs, every input is read here, and the run opens one real pool of two workers."""
        daily = tiny_market(tmp_path)
        intraday = tiny_market(tmp_path, seed=1, step=60, name="intraday.csv")
        monkeypatch.setattr(pipeline, "ingest_csv", _ingest_notes_its_pid)
        pools = []
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", counting_pool(pools))
        argv = ["report", "--input", str(daily), "--input", str(intraday),
                "--out", str(tmp_path / "o"), "--jobs", "2", "--permutations", "20"]
        assert cli_main(argv) == 0
        assert (tmp_path / "ingest-pids").read_text().split() == [str(os.getpid())] * 2
        assert pools == [2]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unreadable_input_named(self, tmp_path, jobs, capsys):
        """An input ingest cannot read exits 1 naming it, whatever the input count or jobs."""
        good = tiny_market(tmp_path)
        bad = write_csv(tmp_path / "bad.csv", ["0,AAA,100"], header="x,y,z")
        out = tmp_path / "o"
        for inputs in ([bad], [good, bad]):
            argv = ["estimate", *(a for p in inputs for a in ("--input", str(p)))]
            assert cli_main(argv + ["--out", str(out), "--jobs", jobs]) == 1
            assert not out.exists()
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: expected header"), err

    def test_graph_aligns_missing_row(self, tmp_path):
        assert cli_main(["make-dataset", "--out", str(tmp_path / "d"), "--points", "120", "--seed", "3"]) == 0
        lines = (tmp_path / "d" / "daily.csv").read_text().splitlines()
        header, rows = lines[0], [r for r in lines[1:] if r.split(",")[1] < "SYN010"]
        missing = [r for r in rows if r.split(",")[1] == "SYN005"][40]
        path = write_csv(tmp_path / "m.csv", [r for r in rows if r != missing], header=header)
        out = tmp_path / "g"
        assert cli_main(["graph", "--input", str(path), "--out", str(out)]) == 0
        for kind, edges in (("mst", 9), ("pmfg", 24)):
            text = (out / f"graph_daily_{kind}_edges.csv").read_text()
            assert len(text.splitlines()) - 1 == edges
        report = (out / "report.txt").read_text()
        # the other 9 tickers each lose the row at SYN005's missing timestamp
        assert "graph[daily].rows_dropped: 9 " in report
        assert "failure:" not in report


def reduce_aligned_returns(cohort, config):
    """The oracle: stamp intersection, per-series membership test, each row's returns on its own.

    Returns the rows stacked as one matrix, and the rows dropped.
    """
    common = functools.reduce(np.intersect1d, [series.timestamps for series in cohort])
    rows, dropped = [], 0
    for series in cohort:
        keep = np.isin(series.timestamps, common)
        dropped += len(keep) - int(np.count_nonzero(keep))
        shared = dataclasses.replace(
            series, timestamps=series.timestamps[keep], prices=series.prices[keep]
        )
        rows.append(pipeline._returns_for(shared, config))
    return np.array(rows), dropped


def _cohort(stamps_per_ticker, seed=0, sampling="daily"):
    rng = np.random.default_rng(seed)
    return [
        PriceSeries(
            f"T{k}", sampling, np.asarray(stamps, dtype=np.int64),
            100 * np.exp(np.cumsum(rng.normal(0, 0.02, len(stamps)))),
        )
        for k, stamps in enumerate(stamps_per_ticker)
    ]


class TestAlignedReturns:
    """``_aligned_returns``' one return matrix against the intersect1d/isin oracle's rows."""

    CONFIG = RunConfig(inputs=(), out_dir=Path("unused"), command="validate")

    def assert_same(self, cohort, config=CONFIG):
        try:
            expected = reduce_aligned_returns(cohort, config)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                pipeline._aligned_returns(cohort, config)
            assert str(raised.value) == str(exc)
            return None
        aligned, dropped = pipeline._aligned_returns(cohort, config)
        assert dropped == expected[1]
        assert aligned.shape == expected[0].shape
        assert np.array_equal(aligned, expected[0])
        return aligned, dropped

    def graph_task(self, cohort, monkeypatch):
        """``_graph_task`` on ``cohort``, the table of series for the call."""
        monkeypatch.setattr(pipeline, "_SERIES", cohort)
        return pipeline._graph_task("daily", list(range(len(cohort))), {}, self.CONFIG)

    def test_missing_row(self):
        full = list(range(0, 50 * 86400, 86400))
        aligned, dropped = self.assert_same(_cohort([full, full[:20] + full[21:], full]))
        assert dropped == 2
        assert [len(r) for r in aligned] == [48, 48, 48]

    def test_identical_stamps(self):
        full = list(range(0, 50 * 86400, 86400))
        aligned, dropped = self.assert_same(_cohort([full] * 4))
        assert dropped == 0
        assert [len(r) for r in aligned] == [49] * 4

    def test_disjoint_stamps(self, monkeypatch):
        cohort = _cohort([range(0, 10), range(10, 20), range(0, 20)])
        aligned, dropped = pipeline._aligned_returns(cohort, self.CONFIG)
        assert dropped == 40
        assert [len(r) for r in aligned] == [0, 0, 0]
        result = self.graph_task(cohort, monkeypatch)
        assert result == ({}, {}, ["graph[daily]: need at least 3 aligned observations"], 40)

    def test_one_shared_stamp_fails_the_graph(self, monkeypatch):
        cohort = _cohort([[0, 5, 9], [3, 5, 7, 8], [5, 6]])
        result = self.graph_task(cohort, monkeypatch)
        assert result == ({}, {}, ["graph[daily]: need at least 3 aligned observations"], 6)

    def test_three_shared_stamps_fail_the_graph(self, monkeypatch):
        cohort = _cohort([[0, 5, 9, 12], [0, 5, 7, 9], [0, 1, 5, 9]])
        aligned, dropped = self.assert_same(cohort)
        assert dropped == 3
        files, facts, failures, rows_dropped = self.graph_task(cohort, monkeypatch)
        assert (files, facts, rows_dropped) == ({}, {}, 3)
        assert failures == ["graph[daily]: need at least 3 aligned observations"]

    def test_rounding_flat_row_fails_the_graph(self, monkeypatch):
        """A row whose shared returns are equal but for rounding is named as a flat one is."""
        cohort = _cohort([range(300)] * 3)
        cohort[1] = dataclasses.replace(cohort[1], prices=100 * np.exp(0.001 * np.arange(300)))
        result = self.graph_task(cohort, monkeypatch)
        assert result == ({}, {}, ["graph[daily]: zero-variance series: T1"], 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_gaps(self, seed):
        """Bars 1-3 minutes apart, and three sessions of 390 one-minute bars a night apart.

        Odd seeds split sessions, which drops at least the two returns across nights.
        """
        rng = np.random.default_rng(seed)
        bars = np.arange(1000)
        shapes = (
            (np.cumsum(rng.integers(1, 4, size=300)) * 60, 0),
            (bars // 390 * 86400 + bars % 390 * 60, 2),
        )
        split = bool(seed % 2)
        config = dataclasses.replace(self.CONFIG, split_sessions=split)
        for base, nights in shapes:
            stamps = [
                base[rng.random(len(base)) < rng.uniform(0.7, 1.0)]
                for _ in range(int(rng.integers(2, 12)))
            ]
            aligned, _ = self.assert_same(_cohort(stamps, seed=seed, sampling="intraday"), config)
            masked = len(functools.reduce(np.intersect1d, stamps)) - 1 - aligned.shape[1]
            assert masked >= nights if split else masked == 0


class TestGraphGml:
    """GML labels are escaped as networkx escapes them, so any ticker reads back."""

    def test_escaped_labels_read_back(self):
        names = ("A&B", 'Q"T', "N\nL", "é", "&amp;", "plain")
        graph = pipeline.WeightedGraph(names, ((names[0], names[1], 0.5),))
        text = pipeline._graph_gml("mst", graph, dict.fromkeys(names, 1.0))
        assert 'label "A&#38;B"' in text and 'label "Q&#34;T"' in text
        assert tuple(nx.parse_gml(text).nodes) == names

    def test_quoted_tickers_from_csv(self, tmp_path):
        rng = np.random.default_rng(5)
        buf = io.StringIO()
        rows = csv.writer(buf, lineterminator="\n")
        rows.writerow(["timestamp", "ticker", "close"])
        tickers = ["A&B", 'Q"T', "C", "D"]
        for ticker in tickers:
            prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 120)))
            rows.writerows([i * 86400, ticker, f"{p:.4f}"] for i, p in enumerate(prices))
        path = tmp_path / "quoted.csv"
        path.write_text(buf.getvalue(), encoding="utf-8")
        assert cli_main(["graph", "--input", str(path), "--out", str(tmp_path / "g")]) == 0
        for kind in ("mst", "pmfg"):
            graph = nx.parse_gml((tmp_path / "g" / f"graph_daily_{kind}.gml").read_text())
            assert sorted(graph.nodes) == sorted(tickers)


class TestBacktestFiles:
    """The backtest CSVs, built line by line from the arrays, match csv.writer rows."""

    def test_same_text_as_csv_rows(self, monkeypatch):
        rng = np.random.default_rng(2)
        strategy = StrategyParams(window=10)
        series = [
            PriceSeries(ticker, "daily", np.arange(300) * 86400,
                        100 * np.exp(np.cumsum(rng.normal(0, 0.03, 300))))
            for ticker in ("A,B", 'Q"T', "N\nL", "50%", "%d", "plain")
        ]
        monkeypatch.setattr(pipeline, "_SERIES", series)
        files, facts, failures, reports = pipeline._backtest_task(range(len(series)), strategy)
        assert failures == []
        assert facts == {"backtest.num_tickers": "6", "backtest.params": str(strategy)}
        trades, equity = io.StringIO(), io.StringIO()
        trade_rows = csv.writer(trades, lineterminator="\n")
        equity_rows = csv.writer(equity, lineterminator="\n")
        trade_rows.writerow(["ticker", "timestamp", "side", "price", "shares"])
        equity_rows.writerow(["ticker", "timestamp", "equity"])
        for s, got in zip(series, reports, strict=True):
            report = pipeline.mean_reversion_backtest(s, strategy)
            assert got.ticker == s.ticker
            assert got.trade_bars.tolist() == report.trade_bars.tolist()
            assert got.trade_shares.tolist() == report.trade_shares.tolist()
            assert report.num_trades > 1
            for k, (bar, shares) in enumerate(zip(report.trade_bars, report.trade_shares)):
                trade_rows.writerow([
                    s.ticker, int(s.timestamps[bar]), ("buy", "sell")[k % 2],
                    f"{s.prices[bar]:.6f}", f"{shares:.6f}",
                ])
            for ts, value in zip(s.timestamps, report.equity(s.prices)):
                equity_rows.writerow([s.ticker, int(ts), f"{value:.6f}"])
        assert "".join(files["backtest_trades.csv"]) == trades.getvalue()
        assert "".join(files["backtest_equity.csv"]) == equity.getvalue()

    def test_task_memory_per_bar(self, monkeypatch):
        """The task holds about the text of its files: one string a ticker, none a bar."""
        rng = np.random.default_rng(3)
        tickers, bars = 40, 5_000
        series = [
            PriceSeries(f"SYN{k:03d}", "intraday", np.arange(bars) * 60,
                        100 * np.exp(np.cumsum(rng.normal(0, 0.01, bars))))
            for k in range(tickers)
        ]
        monkeypatch.setattr(pipeline, "_SERIES", series)
        tracemalloc.start()
        try:
            files, _, failures, _ = pipeline._backtest_task(range(tickers), StrategyParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert failures == [] and len(files["backtest_trades.csv"]) == tickers + 1
        assert peak <= 48 * tickers * bars  # 150 bytes a bar with one string a bar


RUN_FILES = {"records.csv", "report.txt"}
GRAPH_FILES = {
    f"{prefix}_{label}{suffix}"
    for label in ("daily", "intraday")
    for prefix, suffix in (
        ("graph", "_mst_edges.csv"), ("graph", "_mst.gml"),
        ("graph", "_pmfg_edges.csv"), ("graph", "_pmfg.gml"), ("correlation", ".csv"),
    )
}
BACKTEST_FILES = {"backtest_trades.csv", "backtest_equity.csv", "backtest_summary.csv"}
DENSITY_FILES = {"density_lz.csv", "density_ctw.csv"}
ESTIMATE_SETTINGS = ["states", "ctw_depth", "bds_m", "bds_eps", "split_sessions", "inputs"]
COHORT_SETTINGS = ["states", "ctw_depth", "split_sessions", "inputs"]
ALL_SETTINGS = [
    "seed", "states", "ctw_depth", "bds_m", "bds_eps", "permutations", "split_sessions", "inputs",
]


def _settings(report_text):
    """Names of the settings report.txt lists between its command and skipped_rows lines."""
    lines = report_text.splitlines()
    assert lines[1].startswith("command: ")
    end = next(i for i, line in enumerate(lines) if line.startswith("skipped_rows: "))
    return [line.split(":")[0] for line in lines[2:end]]


class TestCommands:
    """Every command on one tiny market of a daily and an intraday cohort."""

    EXPECTED = {  # command -> (the files it writes, the settings report.txt lists)
        "estimate": (RUN_FILES, ESTIMATE_SETTINGS),
        "validate": ({"convergence.csv", "report.txt"}, ["seed", "ctw_depth"]),
        "bds": (RUN_FILES, ESTIMATE_SETTINGS),
        "compare": (RUN_FILES | DENSITY_FILES, ALL_SETTINGS),
        "graph": (RUN_FILES | GRAPH_FILES, COHORT_SETTINGS),
        "backtest": (RUN_FILES | BACKTEST_FILES, COHORT_SETTINGS),
        "report": (RUN_FILES | DENSITY_FILES | GRAPH_FILES | BACKTEST_FILES, ALL_SETTINGS),
    }

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """command -> (the AnalysisReport of its run, {file name: text} of the files it wrote)."""
        root = tmp_path_factory.mktemp("commands")
        inputs = [
            "--input", str(tiny_market(root)),
            "--input", str(tiny_market(root, seed=1, step=60, name="intraday.csv")),
        ]
        reports = []

        def recording_run(config):
            reports.append(run_pipeline(config))
            return reports[-1]

        runs = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entrokit.cli, "run_pipeline", recording_run)
            for command in COMMANDS:
                out = root / command
                if command == "validate":
                    argv = [command, "--out", str(out), "--ctw-depth", "8"]
                else:
                    argv = [command, *inputs, "--out", str(out)]
                if command in ("compare", "report"):
                    argv += ["--permutations", "20"]
                assert cli_main(argv) == 0, command
                runs[command] = reports[-1], {p.name: p.read_text() for p in out.iterdir()}
        return runs

    @pytest.fixture(scope="class")
    def outputs(self, runs):
        """command -> {file name: text} of its run."""
        return {command: files for command, (_, files) in runs.items()}

    def test_files_and_settings(self, outputs):
        assert outputs.keys() == COMMANDS.keys()
        for command, (files, settings) in self.EXPECTED.items():
            assert outputs[command].keys() == files, command
            assert _settings(outputs[command]["report.txt"]) == settings, command

    def test_report_lines_are_the_facts(self, runs):
        """report.txt's body is "name: value" lines: the settings, ``facts`` in order, the failures."""
        for command, (report, files) in runs.items():
            lines = files["report.txt"].splitlines()
            body = lines[2:lines.index("provenance:")]
            pairs = [line.split(": ", 1) for line in body]
            assert all(len(pair) == 2 and pair[0] and pair[1] for pair in pairs), command
            names = [name for name, _ in pairs if name != "failure"]
            assert len(names) == len(set(names)), command
            settings = _settings(files["report.txt"])
            assert body == (
                body[:len(settings)]
                + [f"{name}: {value}" for name, value in report.facts.items()]
                + [f"failure: {failure}" for failure in report.failures]
            ), command
            assert list(report.facts)[:4] == [
                "skipped_rows", "duplicate_rows", "tickers", "tickers_failed",
            ], command

    def test_commands_write_what_report_writes(self, outputs):
        """Every file but report.txt equals report's; graph and backtest, which run CTW
        alone, leave their records' LZ and BDS cells empty."""
        report = outputs["report"]
        for command in ("estimate", "bds", "compare", "graph", "backtest"):
            for name, text in outputs[command].items():
                if name == "records.csv" and command in ("graph", "backtest"):
                    rows, expected = (
                        list(csv.DictReader(io.StringIO(t))) for t in (text, report[name])
                    )
                    assert list(rows[0]) == list(expected[0]), command
                    for row in expected:
                        row.update(lz_entropy="", bds_statistic="", bds_p="")
                    assert rows == expected, command
                elif name != "report.txt":
                    assert text == report[name], (command, name)

    # sha256 of each file `report` writes on the tiny market, report.txt without
    # its generated_at line; the density curves, which may move in the last
    # bits of a float, are left out
    PINNED = {
        "backtest_equity.csv": "2e56eb784fdc91e53a1ff9a1005c2f22be21bf1bdda8f793f1593e94f362d03b",
        "backtest_summary.csv": "953abaafd0709fe2d6fc40e8f9940a219ccbb3a6e0db3e14bf76776dc5a6eba3",
        "backtest_trades.csv": "be8a8c2af4d4549ea1b8ed1a842a2ebfe29c5447516a04afdb8f33941294a89f",
        "correlation_daily.csv": "0805ec21b841441db742fc906f04a82c4febbe9dc165e609a933d84ebfeda217",
        "correlation_intraday.csv": "1c3009c296fd6a84ff36ce31235fcd30876a58bf13509023a52b43c194804bda",
        "graph_daily_mst.gml": "123f7993e58167547d2fe77aea3585efcbf2737098c5f6e1b638ebd5788b0aeb",
        "graph_daily_mst_edges.csv": "760c808df79b7465900a2d5dacdde04e7f2795c9ece421917d107c492e0285e8",
        "graph_daily_pmfg.gml": "9fcd8242894d54f41ef17ca8031db1b4c2e0d9dee83d4cf9f98f406f87396fe0",
        "graph_daily_pmfg_edges.csv": "ba00938621d93a2fc99e4e6427c9edff3be8bccb0f965273d6bc84f867fa8b00",
        "graph_intraday_mst.gml": "fa284d43271ad3daf33627ee8ffa5362760ed8a1c06aad7b803e9287ac656f9c",
        "graph_intraday_mst_edges.csv": "af2011a3a39ff1dccd6b6456525b2c222ee52bb56ed07ccf76fad9550220e0ca",
        "graph_intraday_pmfg.gml": "5c260e12ba79775103ebab823b3f56026433bc3cafb96adb0e91faff3295aa6b",
        "graph_intraday_pmfg_edges.csv": "1a2e71959e2c36487956f6aceacccb1a31b9a6972da1b0f6eea9d663afb9ac4c",
        "records.csv": "cad0bf265482efab345c246fe4c8c1002054d21766d33a3d9cd399bdf3247a20",
        "report.txt": "5231488028d1bffd65e90e4e0ffaed4e2f82334afbf66a20a1e401f79c52243c",
    }

    def test_report_output_pinned(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        tiny_market(tmp_path)
        tiny_market(tmp_path, seed=1, step=60, name="intraday.csv")
        argv = ["report", "--input", "market.csv", "--input", "intraday.csv", "--out", "out",
                "--permutations", "20"]
        assert cli_main(argv) == 0
        digests = {}
        for path in (tmp_path / "out").iterdir():
            data = path.read_bytes()
            if path.name == "report.txt":
                data = b"".join(
                    line for line in data.splitlines(keepends=True)
                    if not line.startswith(b"  generated_at: ")
                )
            if not path.name.startswith("density_"):
                digests[path.name] = hashlib.sha256(data).hexdigest()
        assert digests == self.PINNED

    def test_pool_tasks_per_command(self, tmp_path, monkeypatch):
        """Each command submits the pool work its stages read, and no other."""
        estimates = {"_process_ticker": 12}
        expected = {
            "estimate": estimates,
            "validate": {},
            "bds": estimates,
            "compare": {**estimates, "_density_task": 1},
            "graph": {**estimates, "_graph_task": 2},
            "backtest": {**estimates, "_backtest_task": 1},
            "report": {**estimates, "_density_task": 1, "_graph_task": 2, "_backtest_task": 1},
        }
        assert expected.keys() == COMMANDS.keys()
        submitted = collections.Counter()
        submit = pipeline._Executor.submit

        def counting_submit(executor, fn, *args):
            submitted[fn.__name__] += 1
            return submit(executor, fn, *args)

        monkeypatch.setattr(pipeline._Executor, "submit", counting_submit)
        inputs = [
            "--input", str(tiny_market(tmp_path)),
            "--input", str(tiny_market(tmp_path, seed=1, step=60, name="intraday.csv")),
        ]
        for command, counts in expected.items():
            submitted.clear()
            out = ["--out", str(tmp_path / command)]
            if command == "validate":
                argv = [command, *out, "--ctw-depth", "8"]
            else:
                argv = [command, *inputs, *out, "--jobs", "1"]
            if command in ("compare", "report"):
                argv += ["--permutations", "20"]
            assert cli_main(argv) == 0, command
            assert dict(submitted) == counts, command

    def test_estimators_per_command(self, tmp_path, monkeypatch):
        """Each command runs LZ and BDS once per ticker that passes the cohort rule if it reads
        them, and never if, like graph and backtest, it reads CTW alone."""
        calls = collections.Counter()

        def counted(name):
            estimator = getattr(pipeline, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return estimator(*args, **kwargs)

            return call

        for name in ("lz_entropy_rate", "ctw_entropy_rate", "bds_statistic"):
            monkeypatch.setattr(pipeline, name, counted(name))
        # FLAT and SHORT fail the cohort rule, so no estimator runs on them
        rows = [f"{i * 86400},FLAT,100" for i in range(120)]
        rows += [f"{i * 86400},SHORT,{100 + i % 7}" for i in range(40)]
        inputs = [
            "--input", str(tiny_market(tmp_path)),
            "--input", str(tiny_market(tmp_path, seed=1, step=60, name="intraday.csv")),
            "--input", str(write_csv(tmp_path / "failing.csv", rows)),
        ]
        every = {"lz_entropy_rate": 12, "ctw_entropy_rate": 12, "bds_statistic": 12}
        ctw = {"ctw_entropy_rate": 12}
        expected = {
            "estimate": every, "validate": {}, "bds": every, "compare": every,
            "graph": ctw, "backtest": ctw, "report": every,
        }
        assert expected.keys() == COMMANDS.keys()
        for command, counts in expected.items():
            calls.clear()
            out = ["--out", str(tmp_path / command)]
            if command == "validate":
                assert cli_main([command, *out, "--ctw-depth", "8"]) == 0
            else:
                argv = [command, *inputs, *out, "--jobs", "1", *(
                    ["--permutations", "20"] if command in ("compare", "report") else []
                )]
                assert cli_main(argv) == 2, command
                with (tmp_path / command / "records.csv").open(newline="") as fh:
                    failed = [row["ticker"] for row in csv.DictReader(fh) if row["status"] != "ok"]
                assert failed == ["FLAT", "SHORT"], command
            assert dict(calls) == counts, command

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_degenerate_density_samples(self, tmp_path, jobs):
        """Two cohorts of one series six times over: each density test is a named failure."""
        prices = 100 * np.exp(np.cumsum(np.random.default_rng(2).normal(0, 0.02, 301)))
        inputs = []
        for name, step in (("daily.csv", 86400), ("intraday.csv", 60)):
            rows = [f"{i * step},TK{k},{p:.4f}" for k in range(6) for i, p in enumerate(prices)]
            inputs += ["--input", str(write_csv(tmp_path / name, rows))]
        out = tmp_path / "out"
        argv = ["compare", *inputs, "--out", str(out), "--permutations", "20", "--jobs", jobs]
        assert cli_main(argv) == 2
        lines = (out / "report.txt").read_text().splitlines()
        assert [line for line in lines if line.startswith("failure: ")] == [
            f"failure: equality[{e}]: degenerate samples: every value is equal" for e in ("lz", "ctw")
        ]
        assert not any(line.startswith("equality[") for line in lines)
        assert sorted(p.name for p in out.iterdir()) == ["records.csv", "report.txt"]

    def test_constant_association_input(self, tmp_path):
        """Two cohorts of one series six times over: each entropy-|BDS| rho is a named failure."""
        prices = 100 * np.exp(np.cumsum(np.random.default_rng(2).normal(0, 0.02, 301)))
        inputs = []
        for name, step in (("daily.csv", 86400), ("intraday.csv", 60)):
            rows = [f"{i * step},TK{k},{p:.4f}" for k in range(6) for i, p in enumerate(prices)]
            inputs += ["--input", str(write_csv(tmp_path / name, rows))]
        out = tmp_path / "out"
        assert cli_main(["report", *inputs, "--out", str(out), "--permutations", "20"]) == 2
        lines = (out / "report.txt").read_text().splitlines()
        assert [line for line in lines if line.startswith("failure: entropy_bds_spearman")] == [
            f"failure: entropy_bds_spearman[{label}][{e}]: "
            "rank correlation undefined for constant input"
            for label in ("daily", "intraday") for e in ("ctw", "lz")
        ]
        assert not any(line.startswith("entropy_bds_spearman") for line in lines)

    def test_association_skips_small_cohorts(self, tmp_path):
        """A cohort of fewer than three tickers has no entropy-|BDS| rho, and no failure."""
        daily = tiny_market(tmp_path)
        intraday = tiny_market(tmp_path, n_tickers=2, seed=1, step=60, name="intraday.csv")
        out = tmp_path / "out"
        argv = ["bds", "--input", str(daily), "--input", str(intraday), "--out", str(out)]
        assert cli_main(argv) == 0
        lines = (out / "report.txt").read_text().splitlines()
        assert [line.split(":")[0] for line in lines if "entropy_bds_spearman" in line] == [
            f"entropy_bds_spearman[daily][{e}]" for e in ("ctw", "lz")
        ]
        assert not any(line.startswith("failure:") for line in lines)

    @pytest.mark.parametrize("command", ["graph", "report"])
    def test_failed_tickers_leave_every_cohort(self, tmp_path, monkeypatch, command):
        """A ticker that fails the cohort rule (flat, or under 50 returns) joins no
        cross-sectional stage."""
        splits, cohort_report = [], pipeline.entropy_cohort_report

        def recording_split(reports, entropies):
            splits.append(cohort_report(reports, entropies))
            return splits[-1]

        monkeypatch.setattr(pipeline, "entropy_cohort_report", recording_split)
        rng = np.random.default_rng(5)
        rows = [f"{i * 86400},FLAT,100" for i in range(120)]
        rows += [f"{i * 86400},SHORT,{100 + i % 7}" for i in range(40)]
        for k in range(6):
            prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 120)))
            rows += [f"{i * 86400},TK{k},{p:.4f}" for i, p in enumerate(prices)]
        path = write_csv(tmp_path / "m.csv", rows)
        out = tmp_path / "o"
        report = run_pipeline(RunConfig(inputs=(path,), out_dir=out, command=command))
        ok = {f"TK{k}" for k in range(6)}
        with (out / "records.csv").open(newline="") as fh:
            rows = {row["ticker"]: row for row in csv.DictReader(fh)}
        assert {t: row["status"] for t, row in rows.items()} == {
            **{t: "ok" for t in ok}, "FLAT": "failed", "SHORT": "failed",
        }
        assert rows["FLAT"]["error"] == "ValueError: zero-variance series"
        assert rows["SHORT"]["error"] == "ValueError: need at least 50 observations, got 39"
        for kind in ("mst", "pmfg"):
            gml = (out / f"graph_daily_{kind}.gml").read_text()
            assert set(re.findall(r'label "(\w+)"', gml)) == ok
        assert not any(name.endswith(".rows_dropped") for name in report.facts)
        assert "rows_dropped" not in (out / "report.txt").read_text()
        if command == "report":
            [split] = splits
            tickers = split["low_entropy"]["tickers"] + split["high_entropy"]["tickers"]
            assert sorted(tickers) == sorted(ok)
        else:
            assert splits == []

    def test_backtest_splits_the_cohort_it_trades(self, tmp_path, monkeypatch):
        """The entropy split reads the CTW entropies of the cohort backtested: daily if there is one."""
        splits, cohort_report = [], pipeline.entropy_cohort_report

        def recording_split(reports, entropies):
            splits.append(entropies)
            return cohort_report(reports, entropies)

        monkeypatch.setattr(pipeline, "entropy_cohort_report", recording_split)
        rng = np.random.default_rng(7)
        daily, intraday = [], []
        for k in range(3):
            prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 300)))
            daily += [f"{i * 86400},TK{k},{p:.4f}" for i, p in enumerate(prices[:40])]
            intraday += [f"{i * 60},TK{k},{p:.4f}" for i, p in enumerate(prices)]
        daily = write_csv(tmp_path / "daily.csv", daily)
        intraday = write_csv(tmp_path / "intraday.csv", intraday)
        # 40 daily bars are too few for BDS, so the daily cohort is empty and no ticker is split
        out = tmp_path / "both"
        argv = ["backtest", "--input", str(daily), "--input", str(intraday), "--out", str(out)]
        assert cli_main(argv) == 2
        report = (out / "report.txt").read_text()
        assert "backtest.num_tickers: 3\n" in report
        assert "backtest.low_entropy" not in report
        assert splits == []
        out = tmp_path / "intraday"
        assert cli_main(["backtest", "--input", str(intraday), "--out", str(out)]) == 0
        with (out / "records.csv").open(newline="") as fh:
            ctw = {row["ticker"]: row["ctw_entropy"] for row in csv.DictReader(fh)}
        [entropies] = splits
        assert {t: f"{h:.6f}" for t, h in entropies.items()} == ctw
        assert "backtest.low_entropy: " in (out / "report.txt").read_text()


class TestCli:
    def test_exit_code_config_error(self, tmp_path):
        """A missing input or a directory exits 1 before any work."""
        out = tmp_path / "o"
        for path in (tmp_path / "missing.csv", tmp_path):
            assert cli_main(["estimate", "--input", str(path), "--out", str(out)]) == 1
            assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", ["backtest", "report"])
    def test_warning_counts_every_failure(self, tmp_path, command, jobs, capsys):
        """The warning counts the failed rows of records.csv and the failure lines of
        report.txt: FLAT fails the cohort rule, and SHORT's 60 bars, fewer than the
        window, fail its backtest by name."""
        path = tiny_market(tmp_path)
        rows = path.read_text().splitlines()[1:]
        rows += [f"{i * 86400},FLAT,100" for i in range(120)]
        rows += [f"{i * 86400},SHORT,{100 + i % 3}" for i in range(60)]
        write_csv(path, rows)
        out = tmp_path / "o"
        argv = [command, "--input", str(path), "--out", str(out), "--jobs", jobs, "--window", "80"]
        assert cli_main(argv) == 2
        failed = [ticker for ticker, row in read_records(out).items() if row["status"] == "failed"]
        assert failed == ["FLAT"]
        failures = [line for line in (out / "report.txt").read_text().splitlines()
                    if line.startswith("failure: ")]
        assert "failure: backtest[SHORT]: SHORT: need more than 80 bars, got 60" in failures
        warning = f"warning: {len(failed) + len(failures)} analyses failed; see report.txt\n"
        assert capsys.readouterr().err == warning

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_piped_input_read_like_a_file(self, tmp_path, jobs):
        """An input through a named pipe gives the regular file's records.csv byte for byte."""
        path = tiny_market(tmp_path)
        argv = ["estimate", "--jobs", jobs, "--out"]
        assert cli_main(argv + [str(tmp_path / "file"), "--input", str(path)]) == 0
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
        writer.start()
        code = cli_main(argv + [str(tmp_path / "pipe"), "--input", str(fifo)])
        writer.join(timeout=10)
        if writer.is_alive():  # the run never opened the pipe: open it here to release the writer
            fifo.read_bytes()
            writer.join(timeout=10)
        assert code == 0
        assert not writer.is_alive()
        records = [(tmp_path / d / "records.csv").read_bytes() for d in ("file", "pipe")]
        assert records[0] == records[1]

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--ctw-depth", "99"),
            ("--ctw-depth", "-1"),
            ("--bds-m", "0"),
            ("--bds-eps", "-1"),
            ("--permutations", "0"),
            ("--bds-eps", "nan"),
            ("--bds-eps", "inf"),
            ("--entry-z", "nan"),
            ("--exit-z", "nan"),
            ("--capital", "nan"),
            ("--capital", "inf"),
            ("--seed", "-1"),
        ],
    )
    def test_bad_parameter_rejected_before_work(self, tmp_path, flag, value, capsys):
        path = tiny_market(tmp_path)
        out = tmp_path / "o"
        assert cli_main(["report", "--input", str(path), "--out", str(out), flag, value]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            "report --input CSV --out OUT --states 5",
            "estimate --input CSV --out OUT --jobs two",
            "estimate --input CSV",
            "validate --out OUT --input CSV",
            "validate --out OUT --states 8",
            "validate --out OUT --permutations 3",
            "estimate --input CSV --out OUT --seed 1",
            "bds --input CSV --out OUT --permutations 3",
            "graph --input CSV --out OUT --seed 1",
            "backtest --input CSV --out OUT --permutations 3",
            "compare --input CSV --out OUT --window 5",
            "report --input CSV --out OUT --no-such-flag",
            "no-such-command --out OUT",
        ],
    )
    def test_usage_error_exits_1(self, tmp_path, argv, capsys):
        path = tiny_market(tmp_path)
        out = tmp_path / "o"
        names = {"CSV": str(path), "OUT": str(out)}
        assert cli_main([names.get(a, a) for a in argv.split()]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", list(COMMANDS) + ["make-dataset"])
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: entrokit {command}")

    def test_flags_follow_the_command_table(self):
        """Each command takes the flags of the RunConfig fields its stages read, no other."""
        config_fields = {f.name for f in dataclasses.fields(RunConfig)}
        named = {
            "inputs": {"--input"},
            "out_dir": {"--out"},
            "strategy": {"--window", "--entry-z", "--exit-z", "--capital"},
        }
        dests = config_fields | {f.name for f in dataclasses.fields(StrategyParams)}
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        pairs = 0
        for command, stages in COMMANDS.items():
            read = {"out_dir"}.union(*(pipeline.STAGES[stage][1] for stage in stages))
            assert read <= config_fields
            expected = set().union(*(named.get(f, {"--" + f.replace("_", "-")}) for f in read))
            actions = [a for a in sub.choices[command]._actions if a.dest != "help"]
            assert {a.option_strings[0] for a in actions} == expected, command
            assert {a.dest for a in actions} <= dests
            pairs += len(actions)
        assert {a.option_strings[0] for a in sub.choices["validate"]._actions} == {
            "-h", "--out", "--seed", "--ctw-depth",
        }
        assert pairs == 59

    def test_ticker_in_two_inputs_rejected_before_work(self, tmp_path, monkeypatch, capsys):
        path = tiny_market(tmp_path)
        other = tiny_market(tmp_path, n_tickers=9, seed=1, name="other.csv")
        monkeypatch.setattr(pipeline, "_process_ticker", _estimator_marks_its_run)
        out = tmp_path / "o"
        for jobs in ("1", "2"):
            assert cli_main(
                ["report", "--input", str(path), "--input", str(other), "--out", str(out),
                 "--jobs", jobs]
            ) == 1
            assert not out.exists()
            assert not (tmp_path / "estimator-ran").exists()
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert "'TK0'" in err and "daily" in err
            assert f"{path} and {other}" in err

    def test_one_input_given_twice_rejected_before_work(self, tmp_path, monkeypatch, capsys):
        """The same file twice, however it is named, fails the configuration: nothing is read."""
        path = tiny_market(tmp_path)
        monkeypatch.chdir(tmp_path)
        submitted = collections.Counter()
        submit = pipeline._Executor.submit

        def counting_submit(executor, fn, *args):
            submitted[fn.__name__] += 1
            return submit(executor, fn, *args)

        monkeypatch.setattr(pipeline._Executor, "submit", counting_submit)
        (tmp_path / "sub").mkdir()
        out = tmp_path / "o"
        for first, second in ((str(path), str(path)), ("market.csv", "./market.csv"),
                              (str(path), "sub/../market.csv")):
            for jobs in ("1", "2"):
                assert cli_main(
                    ["estimate", "--input", first, "--input", second, "--out", str(out),
                     "--jobs", jobs]
                ) == 1
                assert not out.exists()
                err = capsys.readouterr().err
                assert err == f"error: input given twice: {Path(first)} and {Path(second)}\n"
        assert submitted == {}

    @pytest.mark.parametrize("sub", [(), ("sub",)], ids=["file", "under_file"])
    def test_out_not_a_directory_rejected_before_work(self, tmp_path, monkeypatch, capsys, sub):
        """--out naming a file, or a path under one, fails the configuration: no task runs."""
        path = tiny_market(tmp_path)
        monkeypatch.setattr(pipeline, "_process_ticker", _estimator_marks_its_run)
        submitted = collections.Counter()
        submit = pipeline._Executor.submit

        def counting_submit(executor, fn, *args):
            submitted[fn.__name__] += 1
            return submit(executor, fn, *args)

        monkeypatch.setattr(pipeline._Executor, "submit", counting_submit)
        blocker = tmp_path / "F"
        blocker.write_text("not a directory\n")
        out = blocker.joinpath(*sub)
        assert cli_main(["estimate", "--input", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert submitted == {}
        assert not (tmp_path / "estimator-ran").exists()
        assert blocker.read_text() == "not a directory\n"

    def test_ticker_in_daily_and_intraday_inputs_valid(self, tmp_path):
        daily = tiny_market(tmp_path)
        intraday = tiny_market(tmp_path, seed=1, step=60, name="intraday.csv")
        out = tmp_path / "o"
        assert cli_main(
            ["estimate", "--input", str(daily), "--input", str(intraday), "--out", str(out)]
        ) == 0
        with (out / "records.csv").open(newline="") as fh:
            keys = sorted((row["ticker"], row["sampling"]) for row in csv.DictReader(fh))
        assert keys == sorted((f"TK{k}", s) for k in range(6) for s in ("daily", "intraday"))

    def test_exit_code_success_and_partial(self, tmp_path):
        path = tiny_market(tmp_path)
        assert cli_main(["estimate", "--input", str(path), "--out", str(tmp_path / "ok")]) == 0
        rows = [f"{i * 86400},FLAT,100" for i in range(120)]
        mixed = write_csv(tmp_path / "mixed.csv", rows)
        code = cli_main(["estimate", "--input", str(mixed), "--out", str(tmp_path / "pf")])
        assert code == 2

    def test_make_dataset(self, tmp_path):
        assert cli_main(["make-dataset", "--out", str(tmp_path / "d"), "--points", "80", "--seed", "1"]) == 0
        result = ingest_csv(tmp_path / "d" / "daily.csv")
        assert len(result.series) == 91
        assert result.series[0].sampling == "daily"
        intraday = ingest_csv(tmp_path / "d" / "intraday.csv")
        assert intraday.series[0].sampling == "intraday"

    def test_report_imports_no_scipy(self, tmp_path):
        """Nor numpy.ma: two cohorts, so that the density tests run too."""
        daily = tiny_market(tmp_path)
        intraday = tiny_market(tmp_path, seed=1, step=60, name="intraday.csv")
        script = (
            "import sys; from entrokit.cli import main; "
            f"code = main(['report', '--input', {str(daily)!r}, '--input', {str(intraday)!r}, "
            f"'--out', {str(tmp_path / 'o')!r}, '--permutations', '20']); "
            "print(code, sorted(m for m in sys.modules "
            "if m == 'numpy.ma' or m.startswith(('scipy', 'networkx'))))"
        )
        env = _env_with_src()
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout.strip().splitlines()[-1] == "0 []"

    def test_estimate_imports_no_numpy_ma(self, tmp_path):
        path = tiny_market(tmp_path)
        script = (
            "import sys; from entrokit.cli import main; "
            f"code = main(['estimate', '--input', {str(path)!r}, '--out', {str(tmp_path / 'o')!r}]); "
            "print(code, sorted({'numpy.ma', 'scipy', 'networkx'} & sys.modules.keys()))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=_env_with_src(), check=True
        )
        assert proc.stdout.strip().splitlines()[-1] == "0 []"

    @staticmethod
    def _blas_probe(env_value):
        """Thread count and OPENBLAS_NUM_THREADS after entrokit, numpy and a matmul."""
        script = (
            "import os, entrokit, numpy as np; a = np.ones((300, 300)); a @ a; "
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
        )
        env = _env_with_src()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if env_value is not None:
            env["OPENBLAS_NUM_THREADS"] = env_value
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        threads, setting = proc.stdout.split()
        return int(threads), setting

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_one_blas_thread(self):
        assert self._blas_probe(None) == (1, "1")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_caller_blas_setting_kept(self):
        assert self._blas_probe("2")[1] == "2"

    def test_tests_run_one_blas_thread(self):
        """The test process's OpenBLAS runs one thread, as the CLI's does (tests/conftest.py)."""
        site = os.path.dirname(os.path.dirname(np.__file__))
        libs = glob.glob(os.path.join(site, "numpy.libs", "libscipy_openblas64_*.so"))
        if not libs:
            pytest.skip("numpy bundles no scipy-openblas library")
        assert ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_() == 1

    def test_console_entry_point(self):
        env = _env_with_src()
        proc = subprocess.run(
            [sys.executable, "-m", "entrokit.cli", "--help"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
        for command in COMMANDS:
            assert command in proc.stdout
        proc = subprocess.run(
            [sys.executable, "-m", "entrokit.cli", "validate", "--out", "o", "--input", "x.csv"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
