"""Benchmark of the entrokit batch pipeline.

Usage (from the repository root):
    python3 bench/run.py --workload market_report --seed 1 --seconds 30 --trace 0

Each run makes the workload's inputs from --seed, measures set-up, then runs
the workload's `entrokit` command in fresh processes, one round after
another, while --seconds last.  The first round's outputs are checked
against computations made apart from the program (bench/checks.py); every
later round must write the same files.  With --trace 0 the rounds run
untraced and the run reports the end-to-end metrics; with --trace 1 they
run in-process at --jobs 1 under bench/trace.py and the run reports the
per-layer metrics.  Figures are medians over the rounds.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPS = 5
COMMAND_TIMEOUT_S = 150.0
MARKET_JOBS = 2
PERMUTATIONS = 1000  # the report's default


class Failed(Exception):
    """The workload could not be run or measured; no metrics are reported."""


def machine_facts() -> str:
    mem_kb = 0
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    versions = " ".join(f"{p}={metadata.version(p)}" for p in ("numpy", "scipy", "networkx"))
    return (f"nproc={os.cpu_count()} mem_gib={mem_kb / 2**20:.1f} "
            f"python={platform.python_version()} {versions}")


class Runner:
    """Starts the program's processes and measures each from launch to exit."""

    def __init__(self, work: Path) -> None:
        self.work = work
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                        TMPDIR=str(tmp))
        self.log = (work / "commands.log").open("ab")

    def close(self) -> None:
        self.log.close()

    def run(self, argv: list[str]) -> tuple[int, float, float, float]:
        """(exit code, wall s, user+system CPU s of it and its children, peak RSS MB of one process)."""
        self.log.write(f"$ {' '.join(argv)}\n".encode())
        self.log.flush()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=self.log, stderr=self.log, start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            # wait4 reports the child together with the descendants it waited for:
            # the CPU time of the pool workers and the largest single RSS
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # stragglers, if any, of a killed command
        if proc.returncode < 0:
            raise Failed(f"{' '.join(argv[1:5])} ended by signal {-proc.returncode}")
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024

    def entrokit(self, *args: str) -> tuple[int, float, float, float]:
        return self.run([sys.executable, "-m", "entrokit.cli", *args])

    def traced(self, *args: str) -> dict:
        result = self.work / "trace.json"
        result.unlink(missing_ok=True)
        code, *_ = self.run([sys.executable, str(BENCH / "trace.py"), str(result), "--", *args])
        if code != 0:
            raise Failed(f"traced run exited {code}; see {self.log.name}")
        return json.loads(result.read_text(encoding="utf-8"))

    def import_seconds(self) -> float:
        code, wall, _, _ = self.run([sys.executable, "-c", "import entrokit.cli"])
        if code != 0:
            raise Failed(f"import entrokit.cli exited {code}")
        return wall


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def same_outputs(a: Path, b: Path) -> bool:
    """Every file equal, report.txt apart from its generation time."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    for name in names:
        if name == "report.txt":
            strip = [[line for line in (d / name).read_text().splitlines()
                      if not line.lstrip().startswith("generated_at:")] for d in (a, b)]
            if strip[0] != strip[1]:
                return False
        elif not filecmp.cmp(a / name, b / name, shallow=False):
            return False
    return True


class Workload:
    """One workload: its inputs, its command, its checks and its operation count."""

    name: str
    operations: int  # per round
    jobs: int  # of the untraced rounds; traced rounds run at one job

    def __init__(self, runner: Runner, seed: int) -> None:
        self.runner = runner
        self.seed = seed
        self.data = runner.work / "data"
        self.data.mkdir()

    def setup(self, trace: bool) -> float:
        """Seconds of set-up beyond the import, repeated with each import."""
        return 0.0

    def prepare(self, trace: bool) -> None:
        """Write the inputs the command reads, once set-up is measured."""
        raise NotImplementedError

    def command(self, jobs: int) -> list[str]:
        raise NotImplementedError

    def untraced(self, out: Path) -> tuple[int, dict]:
        code, wall, cpu, rss = self.runner.entrokit(*self.command(self.jobs), "--out", str(out))
        return code, {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}

    def traced(self, out: Path) -> tuple[int, dict]:
        result = self.runner.traced(*self.command(1), "--out", str(out))
        return result["exit_codes"][0], result["metrics"]

    def check(self, out: Path) -> None:
        raise NotImplementedError


class MarketReport(Workload):
    name = "market_report"
    operations = checks.market_operations(inputs.MARKET_TICKERS)
    jobs = MARKET_JOBS

    def __init__(self, runner: Runner, seed: int) -> None:
        super().__init__(runner, seed)
        self.full = runner.work / "market"
        self.daily, self.intraday = self.data / "daily.csv", self.data / "intraday.csv"

    def make_dataset(self) -> list[str]:
        return ["make-dataset", "--out", str(self.full), "--seed", str(self.seed),
                "--points", str(inputs.MARKET_POINTS)]

    def setup(self, trace: bool) -> float:
        if trace:  # make-dataset is traced with each round instead
            return 0.0
        code, wall, _, _ = self.runner.entrokit(*self.make_dataset())
        if code != 0:
            raise Failed(f"make-dataset exited {code}")
        return wall

    def prepare(self, trace: bool) -> None:
        if not trace:
            self.subset()

    def subset(self) -> None:
        for name in ("daily.csv", "intraday.csv"):
            inputs.subset_market(self.full / name, self.data / name, inputs.MARKET_TICKERS)

    def command(self, jobs: int) -> list[str]:
        return ["report", "--input", str(self.daily), "--input", str(self.intraday),
                "--jobs", str(jobs), "--seed", str(self.seed)]

    def traced(self, out: Path) -> tuple[int, dict]:
        dataset = self.runner.traced(*self.make_dataset())
        if dataset["exit_codes"] != [0]:
            raise Failed(f"make-dataset exited {dataset['exit_codes']}")
        self.subset()
        code, metrics = super().traced(out)
        for name, value in dataset["metrics"].items():
            metrics[name] = max(metrics[name], value) if name == "bds.peak_mb" else metrics[name] + value
        return code, metrics

    def check(self, out: Path) -> None:
        checks.check_market(out, self.daily, self.intraday, PERMUTATIONS)


class LongIntraday(Workload):
    name = "long_intraday"
    operations = len(inputs.INTRADAY_RATES)
    jobs = 1  # two BDS workers would hold two n-by-n matrices at once

    def __init__(self, runner: Runner, seed: int) -> None:
        super().__init__(runner, seed)
        self.csv = self.data / "long_intraday.csv"
        self.rates: dict[str, float] = {}

    def prepare(self, trace: bool) -> None:
        self.rates = inputs.write_long_intraday(self.csv, self.seed)

    def command(self, jobs: int) -> list[str]:
        return ["estimate", "--input", str(self.csv), "--jobs", str(jobs)]

    def check(self, out: Path) -> None:
        checks.check_long_intraday(out, self.csv, self.rates)


WORKLOADS = {w.name: w for w in (MarketReport, LongIntraday)}


class Tally:
    """Operations attempted and failed over the rounds of one run."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0


def measure(workload: Workload, seconds: float, trace: bool, tally: Tally) -> dict:
    runner = workload.runner
    setups, imports = [], []
    for rep in range(SETUP_REPS):
        imports.append(runner.import_seconds())
        setups.append(imports[-1] + workload.setup(trace))
        print(f"setup {rep + 1}: import {imports[-1]:.3f} s, total {setups[-1]:.3f} s")
    workload.prepare(trace)

    rounds = []
    first = runner.work / "out-1"
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        out = first if not rounds else runner.work / "out-n"
        shutil.rmtree(out, ignore_errors=True)
        code, figures = (workload.traced if trace else workload.untraced)(out)
        rounds.append(figures)
        tally.attempted += workload.operations
        try:
            tally.failed += checks.failed_operations(out)
        except FileNotFoundError:
            tally.failed += workload.operations
        print(f"round {len(rounds)}: exit {code}, "
              + ", ".join(f"{k} {figures[k]:.3f}" for k in ("wall_s", "cpu_s", "peak_rss_mb",
                                                            "trace.wall_s") if k in figures))
        if code != 0:
            raise checks.CheckError(f"{workload.name}: exit code {code}")
        if out == first:
            workload.check(out)
            print("round 1: outputs match the independent computations")
        elif not same_outputs(first, out):
            raise checks.CheckError(f"round {len(rounds)}: outputs differ from round 1")

    print(f"{workload.name}: rounds {len(rounds)}, "
          f"attempted {tally.attempted}, failed {tally.failed}")
    if trace:
        # every layer figure from the median round, so that they add up
        walls = [r["trace.wall_s"] for r in rounds]
        metrics = dict(rounds[walls.index(statistics.median_low(walls))])
        metrics["cli.import_s"] = statistics.median(imports)
        return metrics
    metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    metrics["setup_s"] = statistics.median(setups)
    return metrics


UNITS = {"_s": "s", "_mb": "MB"}


def unit(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "entrokit" / "cli.py").is_file():
        print(f"error: no entrokit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"machine: {machine_facts()}")
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(work)
    tally = Tally()
    try:
        metrics = measure(WORKLOADS[args.workload](runner, args.seed), args.seconds,
                          bool(args.trace), tally)
    except (Failed, checks.CheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1),
                          "failed": tally.failed, "metrics": {}}))
        return 1
    finally:
        runner.close()
    print(json.dumps({
        "correct": True, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
