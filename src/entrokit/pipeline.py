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
else each task inline, at submit.  The estimates stage submits each piece
of work the moment its inputs exist: every input file's ingest (to the
pool only when there are two or more inputs), then, once the
duplicate-ticker check has passed, the backtest, the per-ticker estimates
in (sampling, ticker) order, each cohort's graph build as soon as its last
ticker's record is in, and the two density tests once every record is.
The later stages only collect those results, in the order of ``COMMANDS``,
and write the files and the report in this process; workers write nothing.
"""

from __future__ import annotations

import csv
import io
import os
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
from .graphs import correlation_matrix, distance_graph, mst, pmfg
from .ingest import ingest_csv
from .lz import lz_entropy_rate
from .series import PriceSeries, ReturnSeries, log_returns, quantile_discretize
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
        if self.states not in (4, 8):
            raise ValueError("states must be 4 or 8")
        if not self.inputs and "inputs" in command_fields(self.command):
            raise ValueError("at least one input file is required")
        for p in self.inputs:
            if not Path(p).is_file():
                raise ValueError(f"input not readable: {p}")
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
    failed: bool = False
    error: str = ""


@dataclass
class AnalysisReport:
    config: RunConfig
    records: list[TickerRecord] = field(default_factory=list)
    summaries: dict = field(default_factory=dict)
    equality_tests: dict = field(default_factory=dict)
    associations: dict = field(default_factory=dict)
    graph_info: dict = field(default_factory=dict)
    backtest_info: dict = field(default_factory=dict)
    skipped_rows: int = 0
    duplicate_rows: int = 0
    failures: list[str] = field(default_factory=list)
    graph_rows_dropped: dict = field(default_factory=dict)  # cohort -> rows not shared

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
        """Make the pool ``min(jobs, tasks)`` workers if that is larger; no task may be pending.

        Under the fork start method every worker is forked at the first
        submit, so no pool has more workers than the tasks it was opened for.
        """
        workers = min(self.jobs, tasks)
        if self.jobs > 1 and workers > self.workers:
            self._replace(workers)

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
    # work submitted and not yet collected: ("ingest", input index), "backtest",
    # ("graph", label) or ("density", estimator)
    tasks: dict[Any, _Task] = field(default_factory=dict)

    @property
    def config(self) -> RunConfig:
        return self.report.config

    @property
    def out(self) -> Path:
        return Path(self.report.config.out_dir)

    def collect(self, key, name: str):
        """The result of the task submitted under ``key``, or None if there is none.

        A task whose worker died with it alone leaves the named failure
        ``name: BrokenProcessPool: ...`` in its place.
        """
        task = self.tasks.pop(key, None)
        if task is None:
            return None
        try:
            return self.executor.result(task)
        except BrokenProcessPool as exc:
            self.report.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None


def _returns_for(series: PriceSeries, config: RunConfig) -> ReturnSeries:
    returns = log_returns(series)
    if not (config.split_sessions and series.sampling == "intraday"):
        return returns
    within = np.diff(series.timestamps) < SESSION_GAP_SECONDS
    return replace(returns, values=returns.values[within])


def _failed_record(series: PriceSeries, exc: BaseException) -> TickerRecord:
    return TickerRecord(
        ticker=series.ticker,
        sampling=series.sampling,
        n=len(series),
        failed=True,
        error=f"{type(exc).__name__}: {exc}",
    )


def _process_ticker(args: tuple[PriceSeries, RunConfig]) -> TickerRecord:
    series, config = args
    try:
        returns = _returns_for(series, config)
        symbols = quantile_discretize(returns, config.states)
        lz = lz_entropy_rate(symbols)
        ctw = ctw_entropy_rate(symbols, depth_D=config.ctw_depth)
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
    config, report, executor = run.config, run.report, run.executor
    if len(config.inputs) > 1:
        executor.open(len(config.inputs))
    for i, path in enumerate(config.inputs):
        run.tasks["ingest", i] = executor.submit(ingest_csv, path)
    source: dict[tuple[str, str], Path] = {}  # (ticker, sampling) -> its input file
    for i, path in enumerate(config.inputs):
        result = run.collect(("ingest", i), f"ingest[{path}]")
        if result is None:
            continue
        for series in result.series:
            key = (series.ticker, series.sampling)
            if key in source:
                raise ValueError(
                    f"ticker {series.ticker!r} of the {series.sampling} cohort is in "
                    f"both {source[key]} and {path}"
                )
            source[key] = path
        run.series.extend(result.series)
        report.skipped_rows += result.skipped_rows
        report.duplicate_rows += result.duplicate_rows
    if not run.series:
        raise ValueError("no tickers found in inputs")
    run.series.sort(key=lambda s: (s.ticker, s.sampling))


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
        daily = [s for s in run.series if s.sampling == "daily"] or run.series
        run.tasks["backtest"] = executor.submit(
            _backtest_task, sorted(daily, key=lambda s: s.ticker), config.strategy
        )
    by_label: dict[str, list[int]] = {}  # label -> its series' indices, in ticker order
    for k, series in enumerate(run.series):
        by_label.setdefault(series.sampling, []).append(k)
    by_label = dict(sorted(by_label.items()))
    tickers = {
        k: executor.submit(_process_ticker, (run.series[k], config))
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
            run.tasks["graph", label] = executor.submit(
                _graph_task, label, [run.series[k] for k in ok],
                {r.ticker: r.ctw_entropy for r in cohort}, config,
            )
    report.records = records
    for label, cohort in run.cohorts.items():
        run.entropies[label, "lz"] = [r.lz_entropy for r in cohort]
        run.entropies[label, "ctw"] = [r.ctw_entropy for r in cohort]
    if "equality_tests" in stages and len(run.cohorts) == 2:
        labels = tuple(run.cohorts)
        for estimator in ("lz", "ctw"):
            a, b = (run.entropies[label, estimator] for label in labels)
            if len(a) >= 5 and len(b) >= 5:
                run.tasks["density", estimator] = executor.submit(
                    _density_task, a, b, labels, config.permutations, config.seed
                )
    _write_records(run.out, records)


def _summaries(run: _Run) -> None:
    for key, values in run.entropies.items():
        if len(values) >= 2:
            mean, sd = summary_stats(values)
            run.report.summaries[key] = {"mean": mean, "sd": sd, "n": len(values)}


def _density_task(
    a: list[float], b: list[float], labels: tuple[str, str], permutations: int, seed: int
) -> tuple[dict, str]:
    """One estimator's density equality test: its report entry and its CSV text."""
    res = density_equality_test(a, b, num_permutations=permutations, seed=seed)
    a_label, b_label = labels
    info = {
        "cohort_a": a_label,
        "cohort_b": b_label,
        "statistic": res.statistic,
        "p_value": res.p_value,
        "bandwidth": res.bandwidth,
        "method": "permutation stand-in for the reference-band equality test",
    }
    rows = [
        [_fmt(float(v)) for v in row]
        for row in zip(
            res.grid, res.density_a, res.density_b,
            res.reference_band_low, res.reference_band_high,
        )
    ]
    header = ["grid", f"density_{a_label}", f"density_{b_label}", "band_low", "band_high"]
    return info, _csv_text(header, rows)


def _equality_tests(run: _Run) -> None:
    for estimator in ("lz", "ctw"):
        result = run.collect(("density", estimator), f"equality[{estimator}]")
        if result is not None:
            run.report.equality_tests[estimator], text = result
            _atomic_write(run.out / f"density_{estimator}.csv", text)


def _associations(run: _Run) -> None:
    for (label, estimator), values in run.entropies.items():
        bds = [r.bds_statistic for r in run.cohorts[label]]
        if len(bds) < 3:
            continue
        try:
            run.report.associations[label, estimator] = entropy_bds_association(values, bds)
        except ValueError:
            continue


def _aligned_returns(
    cohort: list[PriceSeries], config: RunConfig
) -> tuple[list[ReturnSeries], int]:
    """Returns on the timestamps every series shares, and the rows dropped for it.

    Each series' timestamps are strictly increasing, so a stamp is shared
    exactly when its count over the cohort equals the cohort's size.
    """
    stamps, counts = np.unique(
        np.concatenate([series.timestamps for series in cohort]), return_counts=True
    )
    common = stamps[counts == len(cohort)]
    aligned, dropped = [], 0
    for series in cohort:
        keep = np.searchsorted(series.timestamps, common)
        dropped += len(series) - len(common)
        shared = replace(series, timestamps=common, prices=series.prices[keep])
        aligned.append(_returns_for(shared, config))
    return aligned, dropped


def _graph_task(
    label: str, prices: list[PriceSeries], entropies: dict[str, float], config: RunConfig
) -> tuple[dict[str, str], dict, int, str]:
    """One cohort's graphs: files (name -> text), graph_info entries, rows dropped, error.

    A ValueError ends the build; what was built before it is returned with
    its message as the error, "" when there is none.
    """
    files: dict[str, str] = {}
    info, dropped = {}, 0
    try:
        series, dropped = _aligned_returns(prices, config)
        corr = correlation_matrix(series)
        graph = distance_graph(corr)
        entropy_attr = {ticker: {"entropy": e} for ticker, e in entropies.items()}
        for kind, builder in (("mst", mst), ("pmfg", pmfg)):
            filtered = builder(graph, node_attributes=entropy_attr)
            rows = [[i, j, _fmt(d)] for i, j, d in filtered.edges]
            files[f"graph_{label}_{kind}_edges.csv"] = _csv_text(
                ["source", "target", "distance"], rows
            )
            files[f"graph_{label}_{kind}.gml"] = _graph_gml(filtered)
            info[label, kind] = {"nodes": len(filtered.nodes), "edges": len(filtered.edges)}
        corr_rows = [
            [corr.tickers[i]] + [_fmt(float(v)) for v in corr.rho[i]]
            for i in range(len(corr.tickers))
        ]
        files[f"correlation_{label}.csv"] = _csv_text(["ticker"] + list(corr.tickers), corr_rows)
    except ValueError as exc:
        return files, info, dropped, str(exc)
    return files, info, dropped, ""


def _graphs(run: _Run) -> None:
    """Graph files per cohort; also the rows each cohort dropped to align."""
    report = run.report
    for label in run.cohorts:
        result = run.collect(("graph", label), f"graph[{label}]")
        if result is None:
            continue
        files, info, dropped, error = result
        if dropped:
            report.graph_rows_dropped[label] = dropped
        _write_files(run.out, files)
        report.graph_info.update(info)
        if error:
            report.failures.append(f"graph[{label}]: {error}")


def _graph_gml(filtered) -> str:
    lines = ["graph [", "  directed 0", f'  kind "{filtered.kind}"']
    index = {node: i for i, node in enumerate(filtered.nodes)}
    for node in filtered.nodes:
        lines.append("  node [")
        lines.append(f"    id {index[node]}")
        lines.append(f'    label "{node}"')
        attrs = filtered.node_attributes.get(node, {})
        if "sector" in attrs:
            lines.append(f'    sector "{attrs["sector"]}"')
        if attrs.get("entropy") is not None:
            lines.append(f"    entropy {attrs['entropy']:.6f}")
        lines.append("  ]")
    for i, j, d in filtered.edges:
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

    The reports come without their equity curves and trades, which the
    files hold; there are no files when no series could be backtested.
    """
    reports, failures = [], []
    for s in series:
        try:
            reports.append(mean_reversion_backtest(s, strategy))
        except ValueError as exc:
            failures.append(f"backtest[{s.ticker}]: {exc}")
    if not reports:
        return {}, [], failures
    trade_rows = [
        [r.ticker, t.timestamp, t.side, _fmt(t.price), _fmt(t.shares)]
        for r in reports
        for t in r.trades
    ]
    equity_rows = [
        [r.ticker, ts, _fmt(v)] for r in reports for ts, v in r.equity_curve
    ]
    summary_rows = [
        [r.ticker, _fmt(r.strategy_return_pct), _fmt(r.benchmark_return_pct), r.num_trades]
        for r in reports
    ]
    files = {
        "backtest_trades.csv": _csv_text(
            ["ticker", "timestamp", "side", "price", "shares"], trade_rows
        ),
        "backtest_equity.csv": _csv_text(["ticker", "timestamp", "equity"], equity_rows),
        "backtest_summary.csv": _csv_text(
            ["ticker", "strategy_return_pct", "benchmark_return_pct", "num_trades"], summary_rows
        ),
    }
    return files, [replace(r, equity_curve=(), trades=()) for r in reports], failures


def _backtest(run: _Run) -> None:
    result = run.collect("backtest", "backtest")
    if result is None:
        return
    files, reports, failures = result
    run.report.failures.extend(failures)
    if not reports:
        return
    _write_files(run.out, files)
    # CTW entropies of the daily cohort, or of the intraday one when no daily ticker is ok
    cohort = run.cohorts.get("daily") or run.cohorts.get("intraday", [])
    entropies = {r.ticker: r.ctw_entropy for r in cohort}
    covered = [r for r in reports if r.ticker in entropies]
    run.report.backtest_info = {
        "num_tickers": len(reports),
        "params": run.config.strategy,
        "cohorts": entropy_cohort_report(covered, entropies) if len(covered) >= 2 else {},
    }


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
    lines += [
        f"skipped_rows: {report.skipped_rows}",
        f"duplicate_rows: {report.duplicate_rows}",
        f"tickers: {len(report.records)}",
        f"tickers_failed: {sum(1 for r in report.records if r.failed)}",
    ]
    for (label, estimator), s in sorted(report.summaries.items()):
        lines.append(
            f"summary[{label}][{estimator}]: mean={s['mean']:.6f} sd={s['sd']:.6f} n={s['n']}"
        )
    for estimator, res in sorted(report.equality_tests.items()):
        lines.append(
            f"equality[{estimator}]: statistic={res['statistic']:.6g} "
            f"p_value={res['p_value']:.6g} ({res['cohort_a']} vs {res['cohort_b']})"
        )
        lines.append(f"equality[{estimator}].method: {res['method']}")
    for (label, estimator), rho in sorted(report.associations.items()):
        lines.append(f"entropy_bds_spearman[{label}][{estimator}]: {rho:.6f}")
    for (label, kind), info in sorted(report.graph_info.items()):
        lines.append(f"graph[{label}][{kind}]: nodes={info['nodes']} edges={info['edges']}")
    for label, dropped in sorted(report.graph_rows_dropped.items()):
        lines.append(
            f"graph[{label}].rows_dropped: {dropped} (timestamps not shared by every ticker)"
        )
    if report.backtest_info:
        bt = report.backtest_info
        lines.append(f"backtest.num_tickers: {bt['num_tickers']}")
        lines.append(f"backtest.params: {bt['params']}")
        if bt.get("cohorts"):
            for side in ("low_entropy", "high_entropy"):
                c = bt["cohorts"][side]
                lines.append(
                    f"backtest.{side}: strategy={c['mean_strategy_return_pct']:.4f}% "
                    f"benchmark={c['mean_benchmark_return_pct']:.4f}%"
                )
    for failure in report.failures:
        lines.append(f"failure: {failure}")
    lines.append("provenance:")
    lines.append(f"  version: {__version__}")
    lines.append(f"  generated_at: {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}")
    return "\n".join(lines) + "\n"


def run_pipeline(config: RunConfig) -> AnalysisReport:
    """Run the stages of ``config.command`` in order, then write ``report.txt``."""
    with _Executor(config.jobs) as executor:
        run = _Run(AnalysisReport(config), executor)
        for stage in COMMANDS[config.command]:
            STAGES[stage][0](run)
    _atomic_write(run.out / "report.txt", _report_text(run.report))
    return run.report
