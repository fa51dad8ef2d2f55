import ast
import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entrokit
from entrokit import dataset
from entrokit.cli import main as cli_main
from entrokit.synth import SyntheticSource, generate, shift_register_chain

# make-dataset --seed 1 --points 120, as written by the csv.writer loop
PINNED_SHA256 = {
    "daily.csv": "a83fa4ccd2ef82259f32e0018fa2bc467e7cf66c4fc70f1a61382f7fae85c765",
    "intraday.csv": "8b84b9e2b5394b91af8f39e0a2eb6ba277c4fe50b76736d5707e840d55ad5a27",
}

COHORTS = [
    (dataset.DAILY_ENTROPY_BITS, dataset._T0_DAILY, dataset._DAY, 0),
    (dataset.INTRADAY_ENTROPY_BITS, dataset._T0_INTRADAY, dataset._MINUTE, 7_000_000),
]


def loop_write_cohort(path, entropy_bits, n_points, t0, spacing, seed):
    """Oracle: the cohort written one ``csv.writer.writerow`` call per row."""
    transition = shift_register_chain(entropy_bits)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "ticker", "close"])
        for k in range(dataset.NUM_TICKERS):
            ticker = f"SYN{k:03d}"
            source = SyntheticSource(
                kind="markov", alphabet_size=4, seed=seed + k, transition=transition
            )
            symbols = generate(source, n_points - 1)
            rng = np.random.default_rng(seed + 100_000 + k)
            prices = dataset._symbols_to_prices(symbols, rng)
            for i, price in enumerate(prices):
                writer.writerow([t0 + i * spacing, ticker, f"{price:.6f}"])


class TestWriteCohort:
    @pytest.mark.parametrize("n_points", [2, 3, 120, 750])
    @pytest.mark.parametrize("seed", [0, 1, 29])
    def test_matches_csv_writer_loop(self, tmp_path, n_points, seed):
        for bits, t0, spacing, offset in COHORTS:
            fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
            dataset._write_cohort(fast, bits, n_points, t0, spacing, seed + offset)
            loop_write_cohort(slow, bits, n_points, t0, spacing, seed + offset)
            assert fast.read_bytes() == slow.read_bytes()

    def test_pinned_bytes(self, tmp_path):
        dataset.write_synthetic_market(tmp_path, n_points=120, seed=1)
        for name, digest in PINNED_SHA256.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


class TestMakeDatasetCli:
    @pytest.mark.parametrize(
        "flag,value",
        [("--points", "1"), ("--points", "0"), ("--points", "-5"), ("--seed", "-1")],
    )
    def test_bad_setting_rejected_before_work(self, tmp_path, flag, value, capsys):
        out = tmp_path / "d"
        assert cli_main(["make-dataset", "--out", str(out), flag, value]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_names_a_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep me", encoding="utf-8")
        assert cli_main(["make-dataset", "--out", str(out), "--points", "3"]) == 1
        assert out.read_text(encoding="utf-8") == "keep me"
        assert capsys.readouterr().err.startswith("error: ")

    def test_absent_flag_leaves_the_default(self, tmp_path):
        """--points with no --seed writes what write_synthetic_market does at its default seed."""
        assert cli_main(["make-dataset", "--out", str(tmp_path / "cli"), "--points", "40"]) == 0
        dataset.write_synthetic_market(tmp_path / "call", n_points=40)
        for name in ("daily.csv", "intraday.csv"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "call" / name).read_bytes()

    def test_two_points(self, tmp_path):
        assert cli_main(["make-dataset", "--out", str(tmp_path / "d"), "--points", "2"]) == 0
        rows = (tmp_path / "d" / "daily.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1 + 2 * dataset.NUM_TICKERS

    def test_imports_no_scipy(self, tmp_path):
        script = (
            "import sys; from entrokit.cli import main; "
            f"code = main(['make-dataset', '--out', {str(tmp_path / 'd')!r}, '--points', '20']); "
            "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        src = os.path.dirname(os.path.dirname(entrokit.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout.strip().splitlines()[-1] == "0 []"


def test_no_module_imports_scipy():
    for path in Path(entrokit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), path.name
