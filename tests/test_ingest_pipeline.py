import csv
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import entrokit
from entrokit import pipeline
from entrokit.cli import main as cli_main
from entrokit.ingest import ingest_csv
from entrokit.pipeline import RunConfig, run_pipeline

_process_ticker = pipeline._process_ticker


def _worker_dies_on_tk1(args):
    """Stand-in for the per-ticker worker: the process running TK1 exits."""
    if args[0].ticker == "TK1":
        os._exit(1)
    return _process_ticker(args)


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

    def test_interleaved_tickers_sorted(self, tmp_path):
        path = write_csv(
            tmp_path / "p.csv",
            ["86400,BBB,50", "0,AAA,100", "0,BBB,49", "86400,AAA,101"],
        )
        result = ingest_csv(path)
        assert [s.ticker for s in result.series] == ["AAA", "BBB"]
        for s in result.series:
            ts = [p.timestamp for p in s.points]
            assert ts == sorted(ts)

    def test_duplicate_timestamp_last_wins(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["0,AAA,100", "0,AAA,200", "86400,AAA,150"])
        result = ingest_csv(path)
        assert result.duplicate_rows == 1
        assert result.series[0].points[0].price == 200

    def test_iso_dates(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["2020-01-01,AAA,10", "2020-01-02,AAA,11"])
        series = ingest_csv(path).series[0]
        assert series.points[1].timestamp - series.points[0].timestamp == 86400
        assert series.sampling == "daily"

    def test_intraday_label(self, tmp_path):
        rows = [f"{i * 60},AAA,{100 + i}" for i in range(5)]
        assert ingest_csv(write_csv(tmp_path / "p.csv", rows)).series[0].sampling == "intraday"

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", ["0,AAA,100"], header="date,symbol,price")
        with pytest.raises(ValueError, match="header"):
            ingest_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            ingest_csv(path)


def tiny_market(tmp_path, n_tickers=6, n_points=120, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(n_tickers):
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, n_points)))
        rows.extend(f"{i * 86400},TK{k},{p:.4f}" for i, p in enumerate(prices))
    return write_csv(tmp_path / "market.csv", rows)


class TestRunPipeline:
    def test_estimate_records(self, tmp_path):
        path = tiny_market(tmp_path)
        config = RunConfig(inputs=(path,), out_dir=tmp_path / "out", command="estimate")
        report = run_pipeline(config)
        assert len(report.records) == 6
        assert all(not r.failed for r in report.records)
        assert (tmp_path / "out" / "records.csv").exists()
        assert (tmp_path / "out" / "report.txt").exists()
        for r in report.records:
            assert 0 <= r.lz_entropy <= 2.15
            assert 0 <= r.ctw_entropy <= 2.15

    def test_crash_isolation(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [
            f"{i * 86400},GOOD,{p:.4f}"
            for i, p in enumerate(100 * np.exp(np.cumsum(rng.normal(0, 0.02, 120))))
        ]
        # FLAT has constant prices: zero-variance returns fail BDS
        rows += [f"{i * 86400},FLAT,100" for i in range(120)]
        path = write_csv(tmp_path / "m.csv", rows)
        config = RunConfig(inputs=(path,), out_dir=tmp_path / "out", command="estimate")
        report = run_pipeline(config)
        by_ticker = {r.ticker: r for r in report.records}
        assert by_ticker["FLAT"].failed
        assert not by_ticker["GOOD"].failed
        assert report.num_failed == 1

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
        r1 = run_pipeline(
            RunConfig(inputs=(path,), out_dir=tmp_path / "s", command="estimate", jobs=1)
        )
        r2 = run_pipeline(
            RunConfig(inputs=(path,), out_dir=tmp_path / "p", command="estimate", jobs=3)
        )
        assert r1.records == r2.records

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
        assert ("daily", "mst") in report.graph_info
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
        assert report.backtest_info["num_tickers"] == 6
        assert (tmp_path / "b" / "backtest_summary.csv").exists()
        assert (tmp_path / "b" / "backtest_equity.csv").exists()

    def test_split_sessions_drops_overnight_gaps(self, tmp_path):
        rows = []
        t = 0
        for day in range(3):
            for minute in range(40):
                rows.append(f"{t},AAA,{100 + minute * 0.1 + day:.2f}")
                t += 60
            t += 18 * 3600  # overnight
        path = write_csv(tmp_path / "m.csv", rows)
        with_gaps = run_pipeline(
            RunConfig(inputs=(path,), out_dir=tmp_path / "w", command="estimate")
        )
        without = run_pipeline(
            RunConfig(
                inputs=(path,), out_dir=tmp_path / "wo", command="estimate", split_sessions=True
            )
        )
        assert with_gaps.records[0].n == 120
        assert "split_sessions: True" in (tmp_path / "wo" / "report.txt").read_text()
        assert without.records[0].lz_entropy != with_gaps.records[0].lz_entropy
        # the two returns across the overnight gaps are dropped, no other
        series = ingest_csv(path).series[0]
        config = RunConfig(inputs=(path,), out_dir=tmp_path / "x", split_sessions=True)
        returns = pipeline._returns_for(series, config)
        one_minute = np.diff(series.timestamps()) == 60
        assert len(returns) == 117
        assert returns.values == tuple(np.diff(np.log(series.prices()))[one_minute])

    def test_dead_worker_fails_its_ticker(self, tmp_path, monkeypatch):
        path = tiny_market(tmp_path)
        monkeypatch.setattr(pipeline, "_process_ticker", _worker_dies_on_tk1)
        out = tmp_path / "o"
        code = cli_main(["estimate", "--input", str(path), "--out", str(out), "--jobs", "2"])
        assert code == 2
        with (out / "records.csv").open(newline="") as fh:
            rows = {row["ticker"]: row for row in csv.DictReader(fh)}
        assert len(rows) == 6
        assert rows["TK1"]["status"] == "failed"
        assert rows["TK1"]["error"].startswith("BrokenProcessPool: ")
        assert "tickers: 6" in (out / "report.txt").read_text()


class TestCli:
    def test_exit_code_config_error(self, tmp_path):
        code = cli_main(["estimate", "--input", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--ctw-depth", "99"),
            ("--ctw-depth", "-1"),
            ("--bds-m", "0"),
            ("--bds-eps", "-1"),
            ("--permutations", "0"),
        ],
    )
    def test_bad_parameter_rejected_before_work(self, tmp_path, flag, value, capsys):
        path = tiny_market(tmp_path)
        out = tmp_path / "o"
        assert cli_main(["report", "--input", str(path), "--out", str(out), flag, value]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

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
        path = tiny_market(tmp_path)
        script = (
            "import sys; from entrokit.cli import main; "
            f"code = main(['report', '--input', {str(path)!r}, '--out', {str(tmp_path / 'o')!r}]); "
            "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        src = os.path.dirname(os.path.dirname(entrokit.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout.strip().splitlines()[-1] == "0 []"

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "entrokit.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        for command in ("estimate", "validate", "bds", "compare", "graph", "backtest", "report"):
            assert command in proc.stdout
