"""Batch analysis pipeline: ingest -> estimate -> compare -> emit.

One table says what every command does.  ``COMMANDS`` maps each command to
its stages, in the order they run, and ``STAGES`` maps each stage to its
function and the ``RunConfig`` fields it reads.  ``command_fields`` reads
the two: the CLI gives each subcommand the flags of those fields and no
other, and ``report.txt`` lists those settings and no other.

Per ticker: log returns -> quartile discretization -> LZ and CTW entropy
rates -> BDS on the raw returns, as ``_VALUES`` says the command reads them:
``graph`` and ``backtest`` read CTW alone.  A ticker belongs to its sampling
cohort, the input of every cross-sectional stage, if it passes the cohort
rule (at least ``bds.MIN_LENGTH`` returns, not flat but for rounding) and
its estimators succeed; else its ``records.csv`` row names the failure, and
the run goes on.  Cross-sectional stages compare estimate densities across
sampling cohorts, build correlation graphs and run the mean-reversion
backtest.  All files are written atomically under the output directory.

One executor runs a command's work: a process pool when ``jobs > 1``, else
each task inline, at submit.  The estimates stage reads every
input into ``_SERIES``, opens the pool once, and then submits each piece of
work the moment its inputs exist: the backtest, the per-ticker tasks in
(sampling, ticker) order, each cohort's graph build as soon as its last
ticker's task is in, and the density tests once every ticker's is.  A
per-ticker task returns by name the values its command's stages read.
``_estimates`` keeps them in ``_Run.values`` by series index, where later
stages read them (a ticker is ok exactly when it has values), and writes
``records.csv``, a row per series, from those ``RECORD_VALUES`` names; any
other name is for later stages alone.  The other tasks, kept under the name
their failure takes ("backtest", "graph[daily]", "equality"), return one
shape, ``(files, facts, failures, *rest)``: the files they built (name ->
text, or texts to write in turn), their ``report.txt`` lines, and what they
met and could not build, each a named failure.  ``_Run.collect`` writes the
files, adds the facts and failures and gives the stage the rest, in the
order of ``COMMANDS``; workers write nothing.  A raised task, a dead
worker's ``BrokenProcessPool`` or a ``MemoryError`` alike, becomes a failure
in one of two places: ``_Run.collect`` names it ``<name>: <type>:
<message>``, and ``_estimates`` gives the ticker a failed row, with the
error ``<type>: <message>`` and no values.  The graph files hold the MST and
the PMFG as edge lists, and as GML with each node's CTW entropy.

A task names its series by index in ``_SERIES``, the run's one table of
series: no series crosses a process boundary.  Pool workers see the table
only because every pool forks them after ingest fills it; at one job tasks
read it inline.  It is module state, emptied once the executor closes, so
a process runs one ``run_pipeline`` at a time.

``report.txt`` lists the settings the command read, then
``AnalysisReport.facts``, then a ``failure:`` line for each named failure;
``AnalysisReport`` holds just these.  ``facts`` maps each ``name: value``
line to its value, in print order: the input counts (zero for
``validate``, which reads no input), then the lines each stage writes as it
collects its results, in the order of ``COMMANDS``.
"""

from __future__ import annotations

import csv
import io
import multiprocessing
import os
import re
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from itertools import chain, cycle
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .backtest import (
    PerformanceReport, StrategyParams, entropy_cohort_report, mean_reversion_backtest,
)
from .bds import MIN_LENGTH, BdsParams, bds_statistic, entropy_bds_association
from .ctw import DEFAULT_DEPTH, CtwParams, ctw_entropy_rate
from .densities import DEFAULT_PERMUTATIONS, density_equality_test
from .graphs import WeightedGraph, correlation_matrix, distance_graph, mst, pmfg
from .ingest import ingest_csv
from .lz import lz_entropy_rate
from .series import PriceSeries, log_returns, quantile_discretize
from .synth import SyntheticSource, generate

__all__ = [
    "COMMANDS", "RECORD_VALUES", "RunConfig", "AnalysisReport", "command_fields", "run_pipeline",
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


# the task values records.csv lists, in column order; a task's other names reach no file
RECORD_VALUES = ("lz_entropy", "ctw_entropy", "bds_statistic", "bds_p")

# the input counts every report.txt lists first; the estimates stage sets them
_INPUT_COUNTS = ("skipped_rows", "duplicate_rows", "tickers", "tickers_failed")


@dataclass
class AnalysisReport:
    config: RunConfig
    # each "name: value" line of report.txt after the settings -> its value, in print order
    facts: dict[str, str] = field(default_factory=lambda: dict.fromkeys(_INPUT_COUNTS, "0"))
    failures: list[str] = field(default_factory=list)

    @property
    def num_failed(self) -> int:
        """The failed tickers, as ``report.txt`` counts them, and the named failures."""
        return int(self.facts["tickers_failed"]) + len(self.failures)


_FORK = multiprocessing.get_context("fork")

# the run's series, sorted by (ticker, sampling), from ingest until its executor
# closes; tasks name them by index, and pool workers inherit the table by fork
_SERIES: list[PriceSeries] = []


@dataclass(eq=False)
class _Task:
    """One call given to the executor, kept so that a broken pool's loss can run again."""

    fn: Callable
    args: tuple
    future: Future | None = None
    breaks: int = 0  # pools that broke while it was pending or running in them
    alone: bool = False  # it ran in a pool of its own, so its result is final


class _Executor(ExitStack):
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
        super().__init__()  # the with block of its pools: closing it shuts the pool down
        self.jobs = jobs
        self.workers = 0  # of the process pool; 0 while tasks run inline
        self._pool: ProcessPoolExecutor | None = None
        self._live: dict[_Task, None] = {}  # submitted to this pool, in order, not yet collected

    def open(self, tasks: int) -> None:
        """Run later tasks in a pool of ``min(jobs, tasks)`` workers if ``jobs > 1``; call it once.

        Every pool forks its workers (named, since Python 3.14 defaults to
        forkserver on Linux), all at the first submit, so no pool has more
        workers than the tasks it was opened for.
        """
        if self.jobs > 1:
            self._replace(min(self.jobs, tasks))

    def _replace(self, workers: int) -> None:
        # the old pool shuts down first, so no pool thread runs while the new one forks
        self.close()
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=_FORK)
        self._pool = self.enter_context(pool)
        self.workers = workers

    def submit(self, fn: Callable, *args) -> _Task:
        task = _Task(fn, args)
        self._start(task)
        return task

    def _start(self, task: _Task) -> None:
        task.future = Future()
        try:
            if self._pool is None:  # inline: the task runs now
                task.future.set_result(task.fn(*task.args))
            else:  # raises BrokenProcessPool if a worker died since the last submit
                task.future = self._pool.submit(task.fn, *task.args)
        except (Exception if self._pool is None else BrokenProcessPool) as exc:
            task.future.set_exception(exc)  # raised again when the result is read, as from a worker
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
        self.close()  # the broken pool
        for task in lost:
            task.breaks += 1
        again = next((t for t in lost if t.breaks > 1), None)
        if again is not None:
            lost.remove(again)
            again.alone = True
            with ProcessPoolExecutor(max_workers=1, mp_context=_FORK) as pool:
                again.future = pool.submit(again.fn, *again.args)
        self._replace(self.workers)
        for task in lost:
            self._start(task)


@dataclass
class _Run:
    """What one command's stages share: each stage reads and fills it in turn."""

    report: AnalysisReport
    executor: _Executor
    # series index -> the values its ticker's task returned by name; ok tickers only
    values: dict[int, dict[str, float]] = field(default_factory=dict)
    cohorts: dict[str, list[int]] = field(default_factory=dict)  # label -> its ok indices
    # work submitted and not yet collected, by the name its failure takes:
    # "backtest", "graph[<label>]" or "equality"
    tasks: dict[str, _Task] = field(default_factory=dict)

    @property
    def config(self) -> RunConfig:
        return self.report.config

    @property
    def out(self) -> Path:
        return Path(self.report.config.out_dir)

    def collect(self, name: str) -> list | None:
        """Write, record and return the result of the task submitted as ``name``.

        The task's ``(files, facts, failures, *rest)``: its files are written,
        its facts and failures added to the report, and ``rest`` returned.
        None if there is no such task, or if it raised: a task whose worker
        died with it alone, or that raised anything else, leaves the named
        failure ``name: <type>: <message>`` in its place.
        """
        task = self.tasks.pop(name, None)
        if task is None:
            return None
        try:
            files, facts, failures, *rest = self.executor.result(task)
        except Exception as exc:  # BrokenProcessPool, MemoryError, ...: the run goes on
            self.report.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        for file, text in files.items():
            _atomic_write(self.out / file, text)
        self.report.facts.update(facts)
        self.report.failures.extend(failures)
        return rest


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


# a log return carries the rounding of its two log prices: a few ulps of the larger
ROUNDING_ULPS = 64


def _rounding_flat(returns: np.ndarray, log_prices: np.ndarray) -> np.ndarray:
    """Whether ``returns`` (each row of them) span at most ROUNDING_ULPS ulps of the
    largest absolute value of ``log_prices`` (of its row).

    Such returns are constant but for rounding, as those of a price path
    growing at a fixed rate are; BDS and the correlations, which see only the
    returns, would read their rounding as structure.
    """
    scale = np.maximum(log_prices.max(axis=-1), -log_prices.min(axis=-1))
    return np.ptp(returns, axis=-1) <= ROUNDING_ULPS * np.finfo(float).eps * scale


def _ctw(returns: np.ndarray, symbols: np.ndarray, config: RunConfig) -> dict[str, float]:
    rate = ctw_entropy_rate(symbols, config.states, depth_D=config.ctw_depth)
    return {"ctw_entropy": rate.bits_per_symbol}


def _lz(returns: np.ndarray, symbols: np.ndarray, config: RunConfig) -> dict[str, float]:
    return {"lz_entropy": lz_entropy_rate(symbols).bits_per_symbol}


def _bds(returns: np.ndarray, symbols: np.ndarray, config: RunConfig) -> dict[str, float]:
    bds = bds_statistic(returns, BdsParams(config.bds_m, config.bds_eps))
    return {"bds_statistic": bds.statistic, "bds_p": bds.p_value}


# per-ticker value function -> (the RunConfig fields it reads, the stages that read its
# values); a ticker's task calls, in this order, each one a stage of its command reads
_VALUES = {
    _ctw: (
        ("states", "ctw_depth"),
        ("summaries", "equality_tests", "associations", "graphs", "backtest"),
    ),
    _lz: ((), ("summaries", "equality_tests", "associations")),
    _bds: (("bds_m", "bds_eps"), ("summaries", "associations")),  # summaries: estimate's BDS cells
}


def _process_ticker(k: int, config: RunConfig) -> dict[str, float]:
    """Series ``k``'s values read by its command's stages; it raises if it fails the cohort rule."""
    series = _SERIES[k]
    returns = _returns_for(series, config)
    if len(returns) and _rounding_flat(returns, np.log(series.prices)):
        raise ValueError("zero-variance series")
    if len(returns) < MIN_LENGTH:
        raise ValueError(f"need at least {MIN_LENGTH} observations, got {len(returns)}")
    symbols = quantile_discretize(returns, config.states)
    values: dict[str, float] = {}
    for value, (_, readers) in _VALUES.items():
        if set(readers).intersection(COMMANDS[config.command]):
            values.update(value(returns, symbols, config))
    return values


def _atomic_write(path: Path, text: str | list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        fh.writelines([text] if isinstance(text, str) else text)
    os.replace(tmp, path)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.6f}"


def _ingest(run: _Run) -> None:
    """Fill ``_SERIES`` from every input; a ticker twice in one cohort is an error."""
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
        _SERIES.extend(result.series)
        skipped += result.skipped_rows
        duplicates += result.duplicate_rows
    _SERIES.sort(key=lambda s: (s.ticker, s.sampling))
    run.report.facts.update(skipped_rows=str(skipped), duplicate_rows=str(duplicates))


def _backtest_label() -> str:
    """The cohort the backtest trades and splits by entropy: daily if any series is, else intraday."""
    return "daily" if any(s.sampling == "daily" for s in _SERIES) else "intraday"


def _estimates(run: _Run) -> None:
    """Ingest every input, run each ticker's estimators, and submit the later stages' work.

    The backtest is submitted once the inputs are in, a cohort's graph build
    once the last of its tickers' values are, and the density tests once
    every ticker's are, if both cohorts hold five tickers or more.
    """
    _ingest(run)
    config, report, executor = run.config, run.report, run.executor
    stages = COMMANDS[config.command]
    executor.open(len(_SERIES))
    labels = sorted({series.sampling for series in _SERIES})
    # label -> its series' indices, in ticker order
    by_label = {label: [k for k, s in enumerate(_SERIES) if s.sampling == label] for label in labels}
    if "backtest" in stages:
        run.tasks["backtest"] = executor.submit(
            _backtest_task, by_label[_backtest_label()], config.strategy
        )
    tickers = {k: executor.submit(_process_ticker, k, config) for k in chain(*by_label.values())}
    errors: dict[int, str] = {}
    for label, ks in by_label.items():
        for k in ks:
            try:
                run.values[k] = executor.result(tickers.pop(k))
            except Exception as exc:  # BrokenProcessPool, ValueError, ...: the run goes on
                errors[k] = f"{type(exc).__name__}: {exc}"
        ok = run.cohorts[label] = [k for k in ks if k in run.values]
        if "graphs" in stages and len(ok) >= 3:
            entropies = {_SERIES[k].ticker: run.values[k]["ctw_entropy"] for k in ok}
            run.tasks[f"graph[{label}]"] = executor.submit(_graph_task, label, ok, entropies, config)
    report.facts.update(tickers=str(len(_SERIES)), tickers_failed=str(len(errors)))
    sizes = [len(ok) for ok in run.cohorts.values()]
    if "equality_tests" in stages and len(sizes) == 2 and min(sizes) >= 5:
        run.tasks["equality"] = executor.submit(
            _density_task, _entropies(run), tuple(run.cohorts), config
        )
    rows = [  # a failed ticker's row holds its error, and no values
        [s.ticker, s.sampling, len(s), *(_fmt(run.values.get(k, {}).get(v)) for v in RECORD_VALUES),
         "failed" if k in errors else "ok", errors.get(k, "")]
        for k, s in enumerate(_SERIES)
    ]
    header = ["ticker", "sampling", "n", *RECORD_VALUES, "status", "error"]
    _atomic_write(run.out / "records.csv", _csv_text(header, rows))


def _entropies(run: _Run) -> dict[tuple[str, str], list[float]]:
    """(label, "ctw" or "lz") -> the cohort's entropy rates, cohorts by name, ctw first."""
    return {
        (label, estimator): [run.values[k][f"{estimator}_entropy"] for k in ok]
        for label, ok in run.cohorts.items()
        for estimator in ("ctw", "lz")
    }


def _summaries(run: _Run) -> None:
    for (label, estimator), values in _entropies(run).items():
        if len(values) >= 2:
            run.report.facts[f"summary[{label}][{estimator}]"] = (
                f"mean={np.mean(values):.6f} sd={np.std(values, ddof=1):.6f} n={len(values)}"
            )


def _density_task(
    entropies: dict[tuple[str, str], list[float]], labels: tuple[str, str], config: RunConfig
) -> tuple[dict[str, str], dict[str, str], list[str]]:
    """Each estimator's density equality test across the cohorts ``labels`` of ``entropies``.

    Its CSV files, its facts (ctw first) and its failures (lz first): a
    test on degenerate samples is the failure ``equality[<estimator>]: ...``.
    """
    a_label, b_label = labels
    files, facts, failures = {}, {}, []
    for estimator in ("lz", "ctw"):
        name = f"equality[{estimator}]"
        a, b = entropies[a_label, estimator], entropies[b_label, estimator]
        try:
            res = density_equality_test(a, b, num_permutations=config.permutations, seed=config.seed)
        except ValueError as exc:
            failures.append(f"{name}: {exc}")
            continue
        facts[name] = (
            f"statistic={res.statistic:.6g} p_value={res.p_value:.6g} ({a_label} vs {b_label})"
        )
        facts[f"{name}.method"] = "permutation stand-in for the reference-band equality test"
        rows = [
            [_fmt(float(v)) for v in row]
            for row in zip(
                res.grid, res.density_a, res.density_b,
                res.reference_band_low, res.reference_band_high,
            )
        ]
        header = ["grid", f"density_{a_label}", f"density_{b_label}", "band_low", "band_high"]
        files[f"density_{estimator}.csv"] = _csv_text(header, rows)
    return files, dict(sorted(facts.items())), failures


def _equality_tests(run: _Run) -> None:
    run.collect("equality")


def _associations(run: _Run) -> None:
    """Each cohort's Spearman rho of entropy against |BDS|; constant input is a named failure."""
    for (label, estimator), values in _entropies(run).items():
        bds = [run.values[k]["bds_statistic"] for k in run.cohorts[label]]
        if len(bds) < 3:
            continue
        name = f"entropy_bds_spearman[{label}][{estimator}]"
        try:
            run.report.facts[name] = f"{entropy_bds_association(values, bds):.6f}"
        except ValueError as exc:  # every entropy, or every |BDS|, is equal
            run.report.failures.append(f"{name}: {exc}")


def _aligned_returns(cohort: list[PriceSeries], config: RunConfig) -> tuple[np.ndarray, int]:
    """The N x T returns on the timestamps every series shares, and the rows dropped for it.

    Each series' timestamps are strictly increasing, so a stamp is shared
    exactly when its count over the cohort equals the cohort's size.  The
    shared prices are gathered into one matrix, a row per series, whose log
    returns are taken at once.  Fewer than two shared stamps give no columns.
    A row of three or more returns flat but for rounding fails as
    ``zero-variance series: <ticker>``.
    """
    stamps, counts = np.unique(
        np.concatenate([series.timestamps for series in cohort]), return_counts=True
    )
    common = stamps[counts == len(cohort)]
    dropped = sum(len(series) for series in cohort) - len(cohort) * len(common)
    prices = np.empty((len(cohort), len(common)))
    for row, series in zip(prices, cohort):
        row[:] = series.prices[np.searchsorted(series.timestamps, common)]
    logs = np.log(prices, out=prices)
    returns = np.diff(logs, axis=1)[:, _kept_returns(common, cohort[0].sampling, config)]
    if returns.shape[1] >= 3:  # fewer fail in correlation_matrix, which says why
        flat = _rounding_flat(returns, logs)
        if flat.any():
            raise ValueError(f"zero-variance series: {cohort[int(np.argmax(flat))].ticker}")
    return returns, dropped


def _graph_task(
    label: str, indices: list[int], entropies: dict[str, float], config: RunConfig
) -> tuple[dict[str, str], dict[str, str], list[str], int]:
    """The graphs of series ``indices``' cohort: files, facts, failures and rows dropped.

    A ValueError ends the build; what was built before it is returned with
    its message as the failure ``graph[<label>]: ...``.
    """
    files: dict[str, str] = {}
    facts, dropped = {}, 0
    cohort = [_SERIES[k] for k in indices]
    tickers = tuple(series.ticker for series in cohort)
    try:
        returns, dropped = _aligned_returns(cohort, config)
        rho = correlation_matrix(tickers, returns)
        graph = distance_graph(tickers, rho)
        for kind, builder in (("mst", mst), ("pmfg", pmfg)):
            filtered = builder(graph)
            rows = [[i, j, _fmt(d)] for i, j, d in filtered.edges]
            files[f"graph_{label}_{kind}_edges.csv"] = _csv_text(
                ["source", "target", "distance"], rows
            )
            files[f"graph_{label}_{kind}.gml"] = _graph_gml(kind, filtered, entropies)
            facts[f"graph[{label}][{kind}]"] = (
                f"nodes={len(filtered.nodes)} edges={len(filtered.edges)}"
            )
        corr_rows = [[ticker] + [_fmt(v) for v in row] for ticker, row in zip(tickers, rho.tolist())]
        files[f"correlation_{label}.csv"] = _csv_text(["ticker", *tickers], corr_rows)
    except ValueError as exc:
        return files, facts, [f"graph[{label}]: {exc}"], dropped
    return files, facts, [], dropped


def _graphs(run: _Run) -> None:
    """Collect each cohort's graphs; report.txt lists every cohort's rows dropped to align after them."""
    dropped_rows = {}
    for label in run.cohorts:
        [dropped] = run.collect(f"graph[{label}]") or [0]
        if dropped:
            dropped_rows[f"graph[{label}].rows_dropped"] = (
                f"{dropped} (timestamps not shared by every ticker)"
            )
    run.report.facts.update(dropped_rows)


def _gml_string(text: str) -> str:
    """``text`` escaped for a GML string as networkx escapes it.

    ``&``, ``"`` and every character outside printable ASCII become ``&#<code>;``.
    """
    return re.sub('[^ -~]|[&"]', lambda m: f"&#{ord(m.group(0))};", text)


def _lines(line: str, *columns) -> str:
    """``line`` %-formatted with each row of ``columns`` in turn, as one text; the first sets the rows."""
    return (line * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))


def _graph_gml(kind: str, graph: WeightedGraph, entropies: dict[str, float]) -> str:
    """GML text of ``graph``; ``entropies`` holds each node's CTW entropy rate."""
    index = {node: i for i, node in enumerate(graph.nodes)}
    nodes = _lines(
        '  node [\n    id %d\n    label "%s"\n    entropy %.6f\n  ]\n', range(len(graph.nodes)),
        [_gml_string(node) for node in graph.nodes], [entropies[node] for node in graph.nodes],
    )
    edges = _lines(
        "  edge [\n    source %d\n    target %d\n    distance %.6f\n  ]\n",
        [index[i] for i, _, _ in graph.edges], [index[j] for _, j, _ in graph.edges],
        [d for _, _, d in graph.edges],
    )
    return f'graph [\n  directed 0\n  kind "{kind}"\n{nodes}{edges}]\n'


def _backtest_task(
    indices: list[int], strategy: StrategyParams
) -> tuple[dict[str, str | list[str]], dict[str, str], list[str], list[PerformanceReport]]:
    """Backtest series ``indices``: the CSV files, the facts, the failures and the reports.

    Each per-bar file is a list of texts, one %-format a ticker; there are no
    files and no facts when no series could be backtested.
    """
    reports, failures, summary = [], [], []
    trades, equity = ["ticker,timestamp,side,price,shares\n"], ["ticker,timestamp,equity\n"]
    for s in (_SERIES[k] for k in indices):
        try:
            r = mean_reversion_backtest(s, strategy)
        except ValueError as exc:
            failures.append(f"backtest[{s.ticker}]: {exc}")
            continue
        cell = _csv_text([s.ticker], [])[:-1].replace("%", "%%")  # quoted as csv.writer quotes it
        bars = r.trade_bars
        fills = s.timestamps[bars].tolist(), cycle(("buy", "sell")), s.prices[bars].tolist()
        trades.append(_lines(f"{cell},%d,%s,%.6f,%.6f\n", *fills, r.trade_shares.tolist()))
        equity.append(_lines(f"{cell},%d,%.6f\n", s.timestamps.tolist(), r.equity(s.prices).tolist()))
        summary.append(
            [s.ticker, _fmt(r.strategy_return_pct), _fmt(r.benchmark_return_pct), len(bars)]
        )
        reports.append(r)
    if not reports:
        return {}, {}, failures, []
    files = {
        "backtest_trades.csv": trades,
        "backtest_equity.csv": equity,
        "backtest_summary.csv": _csv_text(
            ["ticker", "strategy_return_pct", "benchmark_return_pct", "num_trades"], summary
        ),
    }
    facts = {"backtest.num_tickers": str(len(reports)), "backtest.params": str(strategy)}
    return files, facts, failures, reports


def _backtest(run: _Run) -> None:
    """The entropy split of the backtested cohort's tickers, from the backtest's reports."""
    [reports] = run.collect("backtest") or [[]]
    ok = run.cohorts[_backtest_label()]
    entropies = {_SERIES[k].ticker: run.values[k]["ctw_entropy"] for k in ok}
    covered = [r for r in reports if r.ticker in entropies]
    if len(covered) >= 2:
        split = entropy_cohort_report(covered, entropies)
        for side in ("low_entropy", "high_entropy"):
            run.report.facts[f"backtest.{side}"] = (
                f"strategy={split[side]['mean_strategy_return_pct']:.4f}% "
                f"benchmark={split[side]['mean_benchmark_return_pct']:.4f}%"
            )


def _curves(run: _Run) -> None:
    """Mean LZ and CTW estimates over 10 seeded draws per size, on two sources of known entropy."""
    seed, depth = run.config.seed, run.config.ctw_depth
    rows = []
    for kind, true_entropy in (("constant", 0.0), ("uniform_iid", 2.0)):
        for size in (100, 300, 1000, 3000, 10000):
            lz, ctw = [], []
            for trial in range(10):
                symbols = generate(SyntheticSource(kind, 4, seed + trial), size)
                lz.append(lz_entropy_rate(symbols).bits_per_symbol)
                ctw.append(ctw_entropy_rate(symbols, 4, depth_D=depth).bits_per_symbol)
            rows.append([kind, size, _fmt(np.mean(lz)), _fmt(np.mean(ctw)), _fmt(true_entropy)])
    _atomic_write(
        run.out / "convergence.csv",
        _csv_text(["source", "size", "lz_mean", "ctw_mean", "true_entropy"], rows),
    )


# stage -> (its function, the RunConfig fields it reads: its own, then its values')
STAGES = {
    stage: (fn, own + tuple(
        f for read, readers in _VALUES.values() if stage in readers for f in read
    ))
    for stage, (fn, own) in {
        "estimates": (_estimates, ("inputs", "states", "jobs", "split_sessions")),
        "summaries": (_summaries, ()),
        "equality_tests": (_equality_tests, ("permutations", "seed")),
        "associations": (_associations, ()),
        "graphs": (_graphs, ("split_sessions",)),
        "backtest": (_backtest, ("strategy",)),
        "curves": (_curves, ("seed", "ctw_depth")),
    }.items()
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
    try:
        with _Executor(config.jobs) as executor:
            run = _Run(AnalysisReport(config), executor)
            for stage in COMMANDS[config.command]:
                STAGES[stage][0](run)
    finally:  # the pools, the recovery pools too, have closed
        _SERIES.clear()
    _atomic_write(run.out / "report.txt", _report_text(run.report))
    return run.report
