"""Each correctness check rejects a corrupted output.

Run from the repository root:  python3 -m pytest bench/test_checks.py -q

The fixtures run the program in this process on small inputs (about 10 s
in all); every test then corrupts one value of a copy of the outputs and
expects the check to fail on it, after the untouched copy passed.
"""

from __future__ import annotations

import csv
import shutil
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import checks
import inputs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from entrokit.cli import main as entrokit  # noqa: E402

MARKET_TICKERS = 12  # enough that no label permutation reaches the observed split
PERMUTATIONS = 200


@pytest.fixture(scope="module")
def market(tmp_path_factory):
    root = tmp_path_factory.mktemp("market")
    assert entrokit(["make-dataset", "--out", str(root / "full"), "--seed", "3", "--points", "750"]) == 0
    (root / "data").mkdir()
    for name in ("daily.csv", "intraday.csv"):
        inputs.subset_market(root / "full" / name, root / "data" / name, MARKET_TICKERS)
    daily, intraday = root / "data" / "daily.csv", root / "data" / "intraday.csv"
    out = root / "out"
    assert entrokit(["report", "--input", str(daily), "--input", str(intraday), "--out", str(out),
                     "--permutations", str(PERMUTATIONS), "--seed", "3"]) == 0
    checks.check_market(out, daily, intraday, PERMUTATIONS)
    return out, daily, intraday


@pytest.fixture(scope="module")
def intraday(tmp_path_factory):
    root = tmp_path_factory.mktemp("intraday")
    data = root / "long.csv"
    rates = inputs.write_long_intraday(data, seed=3, bars=1201)
    out = root / "out"
    assert entrokit(["estimate", "--input", str(data), "--out", str(out)]) == 0
    checks.check_long_intraday(out, data, rates)
    return out, data, rates


def _corrupt(src: Path, dst: Path, name: str, edit) -> Path:
    shutil.copytree(src, dst)
    path = dst / name
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return dst


def _bump(text: str, delta: float) -> str:
    return f"{float(text) + delta:.6f}"


def _reject_market(market, tmp_path, name, edit, match):
    out, daily, intraday = market
    bad = _corrupt(out, tmp_path / "bad", name, edit)
    with pytest.raises(checks.CheckError, match=match):
        checks.check_market(bad, daily, intraday, PERMUTATIONS)


def _column(rows, name):
    return rows[0].index(name)


def test_lz_value_shifted_by_a_hundredth(market, tmp_path):
    def edit(rows):
        c = _column(rows, "lz_entropy")
        rows[5][c] = _bump(rows[5][c], 0.01)
    _reject_market(market, tmp_path, "records.csv", edit, "lz_entropy")


def test_ctw_value_off_in_last_digit(market, tmp_path):
    def edit(rows):
        c = _column(rows, "ctw_entropy")
        rows[7][c] = _bump(rows[7][c], -1e-6)
    _reject_market(market, tmp_path, "records.csv", edit, "ctw_entropy")


def test_bds_statistic_off_in_last_digit(market, tmp_path):
    def edit(rows):
        c = _column(rows, "bds_statistic")
        rows[3][c] = _bump(rows[3][c], 1e-6)
    _reject_market(market, tmp_path, "records.csv", edit, "bds_statistic")


def test_record_marked_failed(market, tmp_path):
    def edit(rows):
        rows[2][_column(rows, "status")] = "failed"
    _reject_market(market, tmp_path, "records.csv", edit, "status")


def test_correlation_entry_off(market, tmp_path):
    def edit(rows):
        rows[2][4] = _bump(rows[2][4], 2e-6)
    _reject_market(market, tmp_path, "correlation_daily.csv", edit, "correlation_daily")


def test_mst_distance_off(market, tmp_path):
    def edit(rows):
        rows[1][2] = _bump(rows[1][2], 0.05)
    _reject_market(market, tmp_path, "graph_intraday_mst_edges.csv", edit, "mst")


def test_pmfg_edge_removed(market, tmp_path):
    _reject_market(market, tmp_path, "graph_daily_pmfg_edges.csv", lambda rows: rows.pop(10), "pmfg")


def test_pmfg_missing_an_mst_edge(market, tmp_path):
    out = market[0]
    tree = {frozenset((r["source"], r["target"]))
            for r in checks.read_rows(out / "graph_daily_mst_edges.csv")}

    def edit(rows):
        # flip one MST edge to another edge that keeps the graph planar and maximal
        k = next(k for k, r in enumerate(rows[1:], start=1) if frozenset(r[:2]) in tree)
        graph = nx.Graph(tuple(r[:2]) for r in rows[1:])
        graph.remove_edge(*rows[k][:2])
        flip = next(e for e in nx.non_edges(graph) if frozenset(e) != frozenset(rows[k][:2])
                    and nx.check_planarity(nx.Graph([*graph.edges, e]))[0])
        rows[k] = [*flip, rows[k][2]]
    _reject_market(market, tmp_path, "graph_daily_pmfg_edges.csv", edit, "misses an MST edge")


def test_equality_p_value_changed(market, tmp_path):
    out, daily, intraday = market
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    text = (bad / "report.txt").read_text(encoding="utf-8")
    (bad / "report.txt").write_text(text.replace("p_value=0.00497512", "p_value=0.00995025", 1))
    assert text != (bad / "report.txt").read_text(encoding="utf-8")
    with pytest.raises(checks.CheckError, match="p_value"):
        checks.check_market(bad, daily, intraday, PERMUTATIONS)


def test_benchmark_return_off(market, tmp_path):
    def edit(rows):
        c = _column(rows, "benchmark_return_pct")
        rows[4][c] = _bump(rows[4][c], 1e-5)
    _reject_market(market, tmp_path, "backtest_summary.csv", edit, "benchmark_return_pct")


def test_missing_output_file(market, tmp_path):
    out, daily, intraday = market
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    (bad / "density_ctw.csv").unlink()
    with pytest.raises(checks.CheckError, match="density_ctw.csv"):
        checks.check_market(bad, daily, intraday, PERMUTATIONS)


def test_intraday_lz_value_shifted(intraday, tmp_path):
    out, data, rates = intraday

    def edit(rows):
        c = _column(rows, "lz_entropy")
        rows[1][c] = _bump(rows[1][c], 0.01)
    bad = _corrupt(out, tmp_path / "bad", "records.csv", edit)
    with pytest.raises(checks.CheckError, match="lz_entropy"):
        checks.check_long_intraday(bad, data, rates)


def test_intraday_wrong_driving_rate(intraday):
    out, data, rates = intraday
    wrong = dict(rates, MIN03=rates["MIN03"] + 0.3)
    with pytest.raises(checks.CheckError, match="not within"):
        checks.check_long_intraday(out, data, wrong)


def test_rising_rejects_a_tie():
    rates = {"a": 1.0, "b": 1.5, "c": 2.0}
    checks.check_rising({"a": 1.0, "b": 1.4, "c": 1.9}, rates, "lz")
    with pytest.raises(checks.CheckError, match="rise strictly"):
        checks.check_rising({"a": 1.0, "b": 1.4, "c": 1.4}, rates, "lz")


def test_ctw_bound_holds_and_is_tight_on_iid_input():
    rng = np.random.default_rng(0)
    for symbols in (rng.integers(0, 4, 400), np.arange(400) % 4, np.zeros(400, dtype=np.int64)):
        assert checks.ctw_rate(symbols) <= checks.ctw_bound(symbols)
    iid = rng.integers(0, 4, 2000)
    assert checks.ctw_bound(iid) - checks.ctw_rate(iid) < 0.01


def test_lz_scan_matches_the_definition():
    def brute(symbols):
        text = "".join(map(str, symbols))
        n = len(text)
        total = 0
        for i in range(n):
            length = 0
            while length < n - i and text[i:i + length + 1] in text[:i]:
                length += 1
            total += length + 1
        return n * np.log2(n) / total

    rng = np.random.default_rng(1)
    for n in (2, 5, 40, 200):
        for symbols in (rng.integers(0, 4, n), np.zeros(n, dtype=np.int64), np.arange(n) % 3):
            assert checks.lz_rate(symbols) == pytest.approx(brute(symbols), rel=1e-12)


def test_bds_does_not_depend_on_the_tile():
    x = np.random.default_rng(2).standard_normal(300)
    assert checks.bds(x, block=7) == checks.bds(x, block=1000)
