"""Batch analysis pipeline: ingest -> estimate -> compare -> emit.

One table says what every command does.  ``COMMANDS`` maps each command to
its stages, in the order they run, and ``STAGES`` maps each stage to its
function and the ``RunConfig`` fields it reads.  ``command_fields`` reads
the two: the CLI gives each subcommand the flags of those fields and no
other, and ``report.txt`` lists those settings and no other.

Per ticker: log returns -> quartile discretization -> LZ and CTW entropy
rates -> BDS on the raw returns.  Cross-sectional stages compare estimate
densities across sampling cohorts, build correlation graphs and run the
mean-reversion backtest.  A failing ticker is recorded and skipped; it
never aborts the run.  A ticker belongs to its sampling cohort, the input
of every cross-sectional stage, only if LZ, CTW and BDS all succeed on it:
a flat series or one of fewer than 50 returns fails BDS, and so is left out.
All files are written atomically under the output directory.

One executor runs a command's work: a process pool when ``jobs > 1``,
else each task inline, at submit.  The estimates stage reads every input
here, opens the pool once, and then submits each piece of work the moment
its inputs exist: the backtest, the per-ticker estimates in (sampling,
ticker) order, each cohort's graph build as soon as its last ticker's
record is in, and the two density tests once every record is.
Each task a later stage reads is kept under the name its failure takes
("backtest", "graph[daily]", "equality[lz]").  The later stages only
collect those results by name, in the order of ``COMMANDS``, and write the
files and the report in this process; workers write nothing.  The graph
files hold the MST and the PMFG as edge lists, and as GML with each node's
CTW entropy.

``report.txt`` lists the settings the command read, then
``AnalysisReport.facts``, then a ``failure:`` line for each named failure.
``facts`` maps each ``name: value`` line to its value, in print order: the
input counts (zero for ``validate``, which reads no input), then the lines
each stage writes as it collects its results, in the order of ``COMMANDS``.
"""

from __future__ import annotations

import csv
import io
import os
import re
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .backtest import (
    PerformanceReport, StrategyParams, entropy_cohort_report, mean_reversion_backtest,
)
from .bds import BdsParams, bds_statistic, entropy_bds_association
from .ctw import DEFAULT_DEPTH, CtwParams, ctw_entropy_rate
from .densities import DEFAULT_PERMUTATIONS, density_equality_test, summary_stats
from .graphs import WeightedGraph, correlation_matrix, distance_graph, mst, pmfg
from .ingest import ingest_csv
from .lz import lz_entropy_rate
from .series import PriceSeries, log_returns, quantile_discretize
from .synth import SyntheticSource, convergence_curve

__all__ = [
    "COMMANDS", "RunConfig", "TickerRecord", "AnalysisReport", "command_fields", "run_pipeline",
]

SESSION_GAP_SECONDS = 4 * 3600  # intraday gap treated as a session boundary

# command -> its stages, in the order they run; STAGES below defines each one
COMMANDS = {
    "estimate": ("estimates", "summaries"),
    "validate": ("curves",),
    "bds": ("estimates", "associations"),
    "compare": ("estimates", "summaries", "equality_tests"),
    "graph": ("estimates", "graphs"),
    "backtest": ("estimates", "backtest"),
    "report": ("estimates", "summaries", "equality_tests", "associations", "graphs", "backtest"),
}

# the settings report.txt lists, in its order, when the command reads them;
# jobs and the output directory change no result, and the backtest section
# lists the strategy
_PROVENANCE = (
    "seed", "states", "ctw_depth", "bds_m", "bds_eps", "permutations", "split_sessions", "inputs",
)


def command_fields(command: str) -> tuple[str, ...]:
    """The ``RunConfig`` fields ``command`` reads, in field order: ``out_dir`` and its stages'."""
    read = {"out_dir"}.union(*(STAGES[stage][1] for stage in COMMANDS[command]))
    return tuple(f.name for f in fields(RunConfig) if f.name in read)


@dataclass(frozen=True)
class RunConfig:
    inputs: tuple[Path, ...]
    out_dir: Path
    command: str = "report"
    states: int = 4
    ctw_depth: int = DEFAULT_DEPTH
    bds_m: int = 2
    bds_eps: float = 1.0
    permutations: int = DEFAULT_PERMUTATIONS
    seed: int = 0
    jobs: int = 1
    split_sessions: bool = False
    strategy: StrategyParams = field(default_factory=StrategyParams)

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        out = Path(self.out_dir)
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise ValueError(f"output directory {out}: {existing} is not a directory")
        if self.states not in (4, 8):
            raise ValueError("states must be 4 or 8")
        if not self.inputs and "inputs" in command_fields(self.command):
            raise ValueError("at least one input file is required")
        given: dict[Path, Path] = {}  # resolved path -> the input naming it
        for p in self.inputs:
            if not Path(p).exists() or Path(p).is_dir():  # a pipe is read like a file
                raise ValueError(f"input not readable: {p}")
            resolved = Path(p).resolve()
            if resolved in given:
                raise ValueError(f"input given twice: {given[resolved]} and {p}")
            given[resolved] = p
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.permutations < 1:
            raise ValueError("permutations must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        CtwParams(self.ctw_depth)  # each raises ValueError on a bad value
        BdsParams(self.bds_m, self.bds_eps)


@dataclass(frozen=True)
class TickerRecord:
    ticker: str
    sampling: str
    n: int
    lz_entropy: float | None = None
    ctw_entropy: float | None = None
    bds_statistic: float | None = None
    bds_p: float | None = None
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error)


# the input counts every report.txt lists first; the estimates stage sets them
_INPUT_COUNTS = ("skipped_rows", "duplicate_rows", "tickers", "tickers_failed")


@dataclass
class AnalysisReport:
    config: RunConfig
    records: list[TickerRecord] = field(default_factory=list)
    # each "name: value" line of report.txt after the settings -> its value, in print order
    facts: dict[str, str] = field(default_factory=lambda: dict.fromkeys(_INPUT_COUNTS, "0"))
    failures: list[str] = field(default_factory=list)

    @property
    def num_failed(self) -> int:
        return sum(1 for r in self.records if r.failed) + len(self.failures)


class _InlinePool:
    """The pool at one job: each task runs here, at submit."""

    def submit(self, fn: Callable, *args) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # raised again when the result is read, as from a worker
            future.set_exception(exc)
        return future


@dataclass(eq=False)
class _Task:
    """One call given to the executor, kept so that a broken pool's loss can run again."""

    fn: Callable
    args: tuple
    future: Future | None = None
    breaks: int = 0  # pools that broke while it was pending or running in them
    alone: bool = False  # it ran in a pool of its own, so its result is final


class _Executor:
    """The one executor of a command, and its recovery from a dead worker.

    Tasks run inline until ``open`` asks for a process pool, which only
    ``jobs > 1`` does.  A dead worker breaks the whole pool, and every task
    of it not yet done then raises ``BrokenProcessPool``.  Those tasks run
    again, in submission order, in one fresh pool of the same size.
    Whenever a pool breaks again, the first lost task that had been lost
    before runs alone, and its result is final: ``BrokenProcessPool`` if its
    own worker dies too.  The rest go to another fresh pool.  So a task
    fails only when it kills a pool it has to itself.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.workers = 0  # of the process pool; 0 while tasks run inline
        self._pool: Any = _InlinePool()
        self._stack = ExitStack()  # the process pool's with block
        self._live: dict[_Task, None] = {}  # submitted to this pool, in order, not yet collected

    def __enter__(self) -> _Executor:
        return self

    def __exit__(self, *exc) -> None:
        self._stack.close()

    def open(self, tasks: int) -> None:
        """Run later tasks in a pool of ``min(jobs, tasks)`` workers if ``jobs > 1``; call it once.

        Under the fork start method every worker is forked at the first
        submit, so no pool has more workers than the tasks it was opened for.
        """
        if self.jobs > 1:
            self._replace(min(self.jobs, tasks))

    def _replace(self, workers: int) -> None:
        # the old pool shuts down first, so no pool thread runs while the new one forks
        self._stack.close()
        self._pool = self._stack.enter_context(ProcessPoolExecutor(max_workers=workers))
        self.workers = workers

    def submit(self, fn: Callable, *args) -> _Task:
        task = _Task(fn, args)
        self._start(task)
        return task

    def _start(self, task: _Task) -> None:
        try:
            task.future = self._pool.submit(task.fn, *task.args)
        except BrokenProcessPool as exc:  # a worker died since the last submit
            task.future = Future()
            task.future.set_exception(exc)
        self._live[task] = None

    def result(self, task: _Task):
        """The task's result; raises what the task raised, or ``BrokenProcessPool`` if it ran alone."""
        while not task.alone and isinstance(task.future.exception(), BrokenProcessPool):
            self._recover()
        self._live.pop(task, None)
        return task.future.result()

    def _recover(self) -> None:
        """Replace the broken pool and run again every task it lost."""
        lost = [t for t in self._live if isinstance(t.future.exception(), BrokenProcessPool)]
        self._live = {}
        self._stack.close()
        for task in lost:
            task.breaks += 1
        again = next((t for t in lost if t.breaks > 1), None)
        if again is not None:
            lost.remove(again)
            again.alone = True
            with ProcessPoolExecutor(max_workers=1) as pool:
                again.future = pool.submit(again.fn, *again.args)
        self._replace(self.workers)
        for task in lost:
            self._start(task)


@dataclass
class _Run:
    """What one command's stages share: each stage reads and fills it in turn."""

    report: AnalysisReport
    executor: _Executor
    series: list[PriceSeries] = field(default_factory=list)  # by (ticker, sampling)
    cohorts: dict[str, list[TickerRecord]] = field(default_factory=dict)  # label -> ok records
    # (label, "lz" or "ctw") -> the cohort's entropy rates, in cohort order
    entropies: dict[tuple[str, str], list[float]] = field(default_factory=dict)
    # work submitted and not yet collected, by the name its failure takes:
    # "backtest", "graph[<label>]" or "equality[<estimator>]"
    tasks: dict[str, _Task] = field(default_factory=dict)

    @property
    def config(self) -> RunConfig:
        return self.report.config

    @property
    def out(self) -> Path:
        return Path(self.report.config.out_dir)

    def collect(self, name: str):
        """The result of the task submitted as ``name``; None if there is none.

        A task whose worker died with it alone leaves the named failure
        ``name: BrokenProcessPool: ...`` in its place.
        """
        task = self.tasks.pop(name, None)
        if task is None:
            return None
        try:
            return self.executor.result(task)
        except BrokenProcessPool as exc:
            self.report.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None


def _kept_returns(timestamps: np.ndarray, sampling: str, config: RunConfig) -> np.ndarray | slice:
    """Index of the returns between ``timestamps`` that the estimators read.

    All of them, or under ``split_sessions`` on intraday data a mask without
    those that span a gap of SESSION_GAP_SECONDS or more.
    """
    if config.split_sessions and sampling == "intraday":
        return np.diff(timestamps) < SESSION_GAP_SECONDS
    return slice(None)


def _returns_for(series: PriceSeries, config: RunConfig) -> np.ndarray:
    return log_returns(series)[_kept_returns(series.timestamps, series.sampling, config)]


def _failed_record(series: PriceSeries, exc: BaseException) -> TickerRecord:
    return TickerRecord(
        ticker=series.ticker,
        sampling=series.sampling,
        n=len(series),
        error=f"{type(exc).__name__}: {exc}",
    )


def _process_ticker(series: PriceSeries, config: RunConfig) -> TickerRecord:
    try:
        returns = _returns_for(series, config)
        symbols = quantile_discretize(returns, config.states)
        lz = lz_entropy_rate(symbols)
        ctw = ctw_entropy_rate(symbols, config.states, depth_D=config.ctw_depth)
        bds = bds_statistic(returns, BdsParams(config.bds_m, config.bds_eps))
        return TickerRecord(
            ticker=series.ticker,
            sampling=series.sampling,
            n=len(series),
            lz_entropy=lz.bits_per_symbol,
            ctw_entropy=ctw.bits_per_symbol,
            bds_statistic=bds.statistic,
            bds_p=bds.p_value,
        )
    except Exception as exc:  # crash isolation: the run continues
        return _failed_record(series, exc)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.6f}"
    return str(x)


def _write_records(out: Path, records: list[TickerRecord]) -> None:
    rows = [
        [
            r.ticker,
            r.sampling,
            r.n,
            _fmt(r.lz_entropy),
            _fmt(r.ctw_entropy),
            _fmt(r.bds_statistic),
            _fmt(r.bds_p),
            "failed" if r.failed else "ok",
            r.error,
        ]
        for r in records
    ]
    header = [
        "ticker", "sampling", "n", "lz_entropy", "ctw_entropy",
        "bds_statistic", "bds_p", "status", "error",
    ]
    _atomic_write(out / "records.csv", _csv_text(header, rows))


def _write_files(out: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        _atomic_write(out / name, text)


def _ingest(run: _Run) -> None:
    """Every input's series, sorted by (ticker, sampling); a ticker twice in one cohort is an error."""
    source: dict[tuple[str, str], Path] = {}  # (ticker, sampling) -> its input file
    skipped = duplicates = 0
    for path in run.config.inputs:
        result = ingest_csv(path)
        for series in result.series:
            key = (series.ticker, series.sampling)
            if key in source:
                raise ValueError(
                    f"ticker {series.ticker!r} of the {series.sampling} cohort is in "
                    f"both {source[key]} and {path}"
                )
            source[key] = path
        run.series.extend(result.series)
        skipped += result.skipped_rows
        duplicates += result.duplicate_rows
    if not run.series:
        raise ValueError("no tickers found in inputs")
    run.series.sort(key=lambda s: (s.ticker, s.sampling))
    run.report.facts.update(skipped_rows=str(skipped), duplicate_rows=str(duplicates))


def _backtest_label(run: _Run) -> str:
    """The cohort the backtest trades and splits by entropy: daily if any series is, else intraday."""
    return "daily" if any(s.sampling == "daily" for s in run.series) else "intraday"


def _estimates(run: _Run) -> None:
    """Ingest every input, run LZ, CTW and BDS on each ticker, and submit the later stages' work.

    The backtest is submitted once the inputs are in, a cohort's graph build
    once the last of its tickers' records is, and the density tests once
    every record is.
    """
    _ingest(run)
    config, report, executor = run.config, run.report, run.executor
    stages = COMMANDS[config.command]
    executor.open(len(run.series))
    if "backtest" in stages:
        label = _backtest_label(run)
        run.tasks["backtest"] = executor.submit(
            _backtest_task, [s for s in run.series if s.sampling == label], config.strategy
        )
    by_label: dict[str, list[int]] = {}  # label -> its series' indices, in ticker order
    for k, series in enumerate(run.series):
        by_label.setdefault(series.sampling, []).append(k)
    by_label = dict(sorted(by_label.items()))
    tickers = {
        k: executor.submit(_process_ticker, run.series[k], config)
        for ks in by_label.values() for k in ks
    }
    records: list[TickerRecord] = [None] * len(run.series)
    for label, ks in by_label.items():
        for k in ks:
            try:
                records[k] = executor.result(tickers.pop(k))
            except BrokenProcessPool as exc:
                records[k] = _failed_record(run.series[k], exc)
        ok = [k for k in ks if not records[k].failed]
        if not ok:
            continue
        cohort = run.cohorts[label] = [records[k] for k in ok]
        if "graphs" in stages and len(cohort) >= 3:
            run.tasks[f"graph[{label}]"] = executor.submit(
                _graph_task, label, [run.series[k] for k in ok],
                {r.ticker: r.ctw_entropy for r in cohort}, config,
            )
    report.records = records
    report.facts["tickers"] = str(len(records))
    report.facts["tickers_failed"] = str(sum(r.failed for r in records))
    for label, cohort in run.cohorts.items():
        run.entropies[label, "lz"] = [r.lz_entropy for r in cohort]
        run.entropies[label, "ctw"] = [r.ctw_entropy for r in cohort]
    if "equality_tests" in stages and len(run.cohorts) == 2:
        labels = tuple(run.cohorts)
        for estimator in ("lz", "ctw"):
            a, b = (run.entropies[label, estimator] for label in labels)
            if len(a) >= 5 and len(b) >= 5:
                run.tasks[f"equality[{estimator}]"] = executor.submit(
                    _density_task, a, b, labels, config.permutations, config.seed
                )
    _write_records(run.out, records)


def _summaries(run: _Run) -> None:
    for (label, estimator), values in sorted(run.entropies.items()):
        if len(values) >= 2:
            mean, sd = summary_stats(values)
            run.report.facts[f"summary[{label}][{estimator}]"] = (
                f"mean={mean:.6f} sd={sd:.6f} n={len(values)}"
            )


def _density_task(
    a: list[float], b: list[float], labels: tuple[str, str], permutations: int, seed: int
) -> tuple[str, str]:
    """One estimator's density equality test: its report value and its CSV text."""
    res = density_equality_test(a, b, num_permutations=permutations, seed=seed)
    a_label, b_label = labels
    value = f"statistic={res.statistic:.6g} p_value={res.p_value:.6g} ({a_label} vs {b_label})"
    rows = [
        [_fmt(float(v)) for v in row]
        for row in zip(
            res.grid, res.density_a, res.density_b,
            res.reference_band_low, res.reference_band_high,
        )
    ]
    header = ["grid", f"density_{a_label}", f"density_{b_label}", "band_low", "band_high"]
    return value, _csv_text(header, rows)


def _equality_tests(run: _Run) -> None:
    """Collect the lz test, then the ctw one; report.txt lists ctw first."""
    values = {}
    for estimator in ("lz", "ctw"):
        name = f"equality[{estimator}]"
        try:
            result = run.collect(name)
        except ValueError as exc:  # degenerate samples
            run.report.failures.append(f"{name}: {exc}")
            continue
        if result is not None:
            values[name], text = result
            _atomic_write(run.out / f"density_{estimator}.csv", text)
    for name, value in sorted(values.items()):
        run.report.facts[name] = value
        run.report.facts[f"{name}.method"] = (
            "permutation stand-in for the reference-band equality test"
        )


def _associations(run: _Run) -> None:
    for (label, estimator), values in sorted(run.entropies.items()):
        bds = [r.bds_statistic for r in run.cohorts[label]]
        if len(bds) < 3:
            continue
        try:
            rho = entropy_bds_association(values, bds)
        except ValueError:
            continue
        run.report.facts[f"entropy_bds_spearman[{label}][{estimator}]"] = f"{rho:.6f}"


def _aligned_returns(cohort: list[PriceSeries], config: RunConfig) -> tuple[np.ndarray, int]:
    """The N x T returns on the timestamps every series shares, and the rows dropped for it.

    Each series' timestamps are strictly increasing, so a stamp is shared
    exactly when its count over the cohort equals the cohort's size.  The
    shared prices are gathered into one matrix, a row per series, whose log
    returns are taken at once.  Fewer than two shared stamps give no columns.
    """
    stamps, counts = np.unique(
        np.concatenate([series.timestamps for series in cohort]), return_counts=True
    )
    common = stamps[counts == len(cohort)]
    dropped = sum(len(series) for series in cohort) - len(cohort) * len(common)
    prices = np.empty((len(cohort), len(common)))
    for row, series in zip(prices, cohort):
        row[:] = series.prices[np.searchsorted(series.timestamps, common)]
    returns = np.diff(np.log(prices, out=prices), axis=1)
    return returns[:, _kept_returns(common, cohort[0].sampling, config)], dropped


def _graph_task(
    label: str, prices: list[PriceSeries], entropies: dict[str, float], config: RunConfig
) -> tuple[dict[str, str], dict[str, str], int, str]:
    """One cohort's graphs: files (name -> text), report facts, rows dropped, error.

    A ValueError ends the build; what was built before it is returned with
    its message as the error, "" when there is none.
    """
    files: dict[str, str] = {}
    info, dropped = {}, 0
    tickers = tuple(series.ticker for series in prices)
    try:
        returns, dropped = _aligned_returns(prices, config)
        rho = correlation_matrix(tickers, returns)
        graph = distance_graph(tickers, rho)
        for kind, builder in (("mst", mst), ("pmfg", pmfg)):
            filtered = builder(graph)
            rows = [[i, j, _fmt(d)] for i, j, d in filtered.edges]
            files[f"graph_{label}_{kind}_edges.csv"] = _csv_text(
                ["source", "target", "distance"], rows
            )
            files[f"graph_{label}_{kind}.gml"] = _graph_gml(kind, filtered, entropies)
            info[f"graph[{label}][{kind}]"] = (
                f"nodes={len(filtered.nodes)} edges={len(filtered.edges)}"
            )
        corr_rows = [[ticker] + [_fmt(v) for v in row] for ticker, row in zip(tickers, rho.tolist())]
        files[f"correlation_{label}.csv"] = _csv_text(["ticker", *tickers], corr_rows)
    except ValueError as exc:
        return files, info, dropped, str(exc)
    return files, info, dropped, ""


def _graphs(run: _Run) -> None:
    """Graph files per cohort; report.txt lists every cohort's rows dropped to align after them."""
    report, dropped_rows = run.report, {}
    for label in run.cohorts:
        result = run.collect(f"graph[{label}]")
        if result is None:
            continue
        files, info, dropped, error = result
        if dropped:
            dropped_rows[f"graph[{label}].rows_dropped"] = (
                f"{dropped} (timestamps not shared by every ticker)"
            )
        _write_files(run.out, files)
        report.facts.update(info)
        if error:
            report.failures.append(f"graph[{label}]: {error}")
    report.facts.update(dropped_rows)


def _gml_string(text: str) -> str:
    """``text`` escaped for a GML string as networkx escapes it.

    ``&``, ``"`` and every character outside printable ASCII become ``&#<code>;``.
    """
    return re.sub('[^ -~]|[&"]', lambda m: f"&#{ord(m.group(0))};", text)


def _graph_gml(kind: str, graph: WeightedGraph, entropies: dict[str, float]) -> str:
    """GML text of ``graph``; ``entropies`` holds each node's CTW entropy rate."""
    lines = ["graph [", "  directed 0", f'  kind "{kind}"']
    index = {node: i for i, node in enumerate(graph.nodes)}
    for node in graph.nodes:
        lines.append("  node [")
        lines.append(f"    id {index[node]}")
        lines.append(f'    label "{_gml_string(node)}"')
        lines.append(f"    entropy {entropies[node]:.6f}")
        lines.append("  ]")
    for i, j, d in graph.edges:
        lines.append("  edge [")
        lines.append(f"    source {index[i]}")
        lines.append(f"    target {index[j]}")
        lines.append(f"    distance {d:.6f}")
        lines.append("  ]")
    lines.append("]")
    return "\n".join(lines) + "\n"


def _backtest_task(
    series: list[PriceSeries], strategy: StrategyParams
) -> tuple[dict[str, str], list[PerformanceReport], list[str]]:
    """Backtest each series: the CSV files (name -> text), the reports and the failures.

    The reports come without their equity and fills, which the files hold;
    there are no files when no series could be backtested.
    """
    reports, failures, trades, equity, summary = [], [], [], [], []
    no_bars = np.empty(0)
    for s in series:
        try:
            r = mean_reversion_backtest(s, strategy)
        except ValueError as exc:
            failures.append(f"backtest[{s.ticker}]: {exc}")
            continue
        cell = _csv_text([s.ticker], [])[:-1]  # the ticker quoted as csv.writer quotes it
        bars = r.trade_bars
        fills = zip(s.timestamps[bars].tolist(), s.prices[bars].tolist(), r.trade_shares.tolist())
        trades += [
            f"{cell},{ts},{('buy', 'sell')[k % 2]},{price:.6f},{shares:.6f}\n"
            for k, (ts, price, shares) in enumerate(fills)
        ]
        equity += [
            f"{cell},{ts},{v:.6f}\n" for ts, v in zip(s.timestamps.tolist(), r.equity.tolist())
        ]
        summary.append(
            [s.ticker, _fmt(r.strategy_return_pct), _fmt(r.benchmark_return_pct), len(bars)]
        )
        reports.append(replace(r, equity=no_bars, trade_bars=no_bars, trade_shares=no_bars))
    if not reports:
        return {}, [], failures
    files = {
        "backtest_trades.csv": "ticker,timestamp,side,price,shares\n" + "".join(trades),
        "backtest_equity.csv": "ticker,timestamp,equity\n" + "".join(equity),
        "backtest_summary.csv": _csv_text(
            ["ticker", "strategy_return_pct", "benchmark_return_pct", "num_trades"], summary
        ),
    }
    return files, reports, failures


def _backtest(run: _Run) -> None:
    result = run.collect("backtest")
    if result is None:
        return
    files, reports, failures = result
    run.report.failures.extend(failures)
    if not reports:
        return
    _write_files(run.out, files)
    entropies = {r.ticker: r.ctw_entropy for r in run.cohorts.get(_backtest_label(run), [])}
    covered = [r for r in reports if r.ticker in entropies]
    facts = run.report.facts
    facts["backtest.num_tickers"] = str(len(reports))
    facts["backtest.params"] = str(run.config.strategy)
    if len(covered) >= 2:
        split = entropy_cohort_report(covered, entropies)
        for side in ("low_entropy", "high_entropy"):
            facts[f"backtest.{side}"] = (
                f"strategy={split[side]['mean_strategy_return_pct']:.4f}% "
                f"benchmark={split[side]['mean_benchmark_return_pct']:.4f}%"
            )


def _curves(run: _Run) -> None:
    """Convergence curves of both estimators on two known-entropy sources."""
    sizes = [100, 300, 1000, 3000, 10000]
    rows = []
    for name in ("constant", "uniform_iid"):
        source = SyntheticSource(kind=name, alphabet_size=4, seed=run.config.seed)
        curve = convergence_curve(source, sizes, trials=10, ctw_depth=run.config.ctw_depth)
        for size, lz_m, ctw_m in zip(curve.sizes, curve.estimates_lz, curve.estimates_ctw):
            rows.append([name, size, _fmt(lz_m), _fmt(ctw_m), _fmt(curve.true_entropy)])
    _atomic_write(
        run.out / "convergence.csv",
        _csv_text(["source", "size", "lz_mean", "ctw_mean", "true_entropy"], rows),
    )


# stage -> (its function, the RunConfig fields it reads)
STAGES = {
    "estimates": (
        _estimates,
        ("inputs", "states", "ctw_depth", "bds_m", "bds_eps", "jobs", "split_sessions"),
    ),
    "summaries": (_summaries, ()),
    "equality_tests": (_equality_tests, ("permutations", "seed")),
    "associations": (_associations, ()),
    "graphs": (_graphs, ("split_sessions",)),
    "backtest": (_backtest, ("strategy",)),
    "curves": (_curves, ("seed", "ctw_depth")),
}


def _report_text(report: AnalysisReport) -> str:
    cfg = report.config
    read = command_fields(cfg.command)
    lines = ["entrokit analysis report", f"command: {cfg.command}"]
    for name in _PROVENANCE:
        if name in read:
            value = getattr(cfg, name)
            if name == "inputs":
                value = ", ".join(str(p) for p in value)
            lines.append(f"{name}: {value}")
    lines += [f"{name}: {value}" for name, value in report.facts.items()]
    lines += [f"failure: {failure}" for failure in report.failures]
    lines += [
        "provenance:",
        f"  version: {__version__}",
        f"  generated_at: {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}",
    ]
    return "\n".join(lines) + "\n"


def run_pipeline(config: RunConfig) -> AnalysisReport:
    """Run the stages of ``config.command`` in order, then write ``report.txt``."""
    with _Executor(config.jobs) as executor:
        run = _Run(AnalysisReport(config), executor)
        for stage in COMMANDS[config.command]:
            STAGES[stage][0](run)
    _atomic_write(run.out / "report.txt", _report_text(run.report))
    return run.report
