"""The benchmark's tracer, bench/trace.py, run unchanged on a small report.

The tracer wraps the program's public functions by name and reads work
counts from their arguments and results.  A report on two cohorts must
still give every counter it lists a nonzero count, so removing or
reshaping a function it reads shows up here rather than as a failed
``bench/run.py --trace 1``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import entrokit

ROOT = Path(__file__).resolve().parent.parent
TRACE = ROOT / "bench" / "trace.py"


def _trace_module():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cohort(path: Path, step: int, seed: int) -> Path:
    """Five tickers of 120 prices, ``step`` seconds apart."""
    rng = np.random.default_rng(seed)
    rows = ["timestamp,ticker,close"]
    for k in range(5):
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 120)))
        rows.extend(f"{i * step},TK{k},{p:.4f}" for i, p in enumerate(prices))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_traced_report_counts_every_layer(tmp_path):
    daily = _cohort(tmp_path / "daily.csv", 86400, seed=0)
    intraday = _cohort(tmp_path / "intraday.csv", 60, seed=1)
    result = tmp_path / "trace.json"
    src = os.path.dirname(os.path.dirname(entrokit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [
        sys.executable, str(TRACE), str(result), "--", "report", "--input", str(daily),
        "--input", str(intraday), "--out", str(tmp_path / "out"), "--jobs", "1",
    ]
    subprocess.run(argv, env=env, check=True, timeout=120)
    traced = json.loads(result.read_text())
    assert traced["exit_codes"] == [0]
    counts = {name: traced["metrics"][name] for name in _trace_module().COUNTS}
    assert all(value > 0 for value in counts.values()), counts
