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
"""

from __future__ import annotations

import csv
import functools
import io
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import StrategyParams, entropy_cohort_report, mean_reversion_backtest
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


@dataclass
class _Run:
    """What one command's stages share: each stage reads and fills it in turn."""

    report: AnalysisReport
    series: list[PriceSeries] = field(default_factory=list)  # by (ticker, sampling)
    cohorts: dict[str, list[TickerRecord]] = field(default_factory=dict)  # label -> ok records
    # (label, "lz" or "ctw") -> the cohort's entropy rates, in cohort order
    entropies: dict[tuple[str, str], list[float]] = field(default_factory=dict)

    @property
    def config(self) -> RunConfig:
        return self.report.config

    @property
    def out(self) -> Path:
        return Path(self.report.config.out_dir)


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


def _run_pool(
    tasks: list[tuple[PriceSeries, RunConfig]],
    indices: list[int],
    jobs: int,
    results: list[TickerRecord | None],
) -> list[int]:
    """Run ``tasks[k]`` for each k in one fresh pool; return the k whose future broke.

    The pool has no more workers than tasks: under the fork start method
    every worker is forked at the first submit.
    """
    broken = []
    with ProcessPoolExecutor(max_workers=min(jobs, len(indices))) as pool:
        futures = [(k, pool.submit(_process_ticker, tasks[k])) for k in indices]
        for k, future in futures:
            try:
                results[k] = future.result()
            except BrokenProcessPool:
                broken.append(k)
    return broken


def _pool_results(tasks: list[tuple[PriceSeries, RunConfig]], jobs: int) -> list[TickerRecord]:
    """Per-ticker records from a process pool.

    A dead worker breaks the whole pool, and every future not yet done then
    raises ``BrokenProcessPool``.  Those tickers run again in one fresh pool.
    Whenever a pool breaks again, the first broken ticker in submission
    order runs alone, and fails if its own worker dies too; the rest go to
    another fresh pool.
    """
    results: list[TickerRecord | None] = [None] * len(tasks)
    pending = _run_pool(tasks, list(range(len(tasks))), jobs, results)
    if pending:
        pending = _run_pool(tasks, pending, jobs, results)
    while pending:
        k, rest = pending[0], pending[1:]
        with ProcessPoolExecutor(max_workers=1) as pool:
            try:
                results[k] = pool.submit(_process_ticker, tasks[k]).result()
            except BrokenProcessPool as exc:
                results[k] = _failed_record(tasks[k][0], exc)
        pending = _run_pool(tasks, rest, jobs, results) if rest else []
    return results


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


def _estimates(run: _Run) -> None:
    """Ingest every input, then run LZ, CTW and BDS on each ticker."""
    config, report = run.config, run.report
    source: dict[tuple[str, str], Path] = {}  # (ticker, sampling) -> its input file
    for path in config.inputs:
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
        report.skipped_rows += result.skipped_rows
        report.duplicate_rows += result.duplicate_rows
    if not run.series:
        raise ValueError("no tickers found in inputs")
    run.series.sort(key=lambda s: (s.ticker, s.sampling))

    tasks = [(s, config) for s in run.series]
    if config.jobs > 1:
        report.records = _pool_results(tasks, config.jobs)
    else:
        report.records = [_process_ticker(t) for t in tasks]
    _write_records(run.out, report.records)

    cohorts: dict[str, list[TickerRecord]] = {}
    for r in report.records:
        if not r.failed:
            cohorts.setdefault(r.sampling, []).append(r)
    run.cohorts = dict(sorted(cohorts.items()))
    for label, cohort in run.cohorts.items():
        run.entropies[label, "lz"] = [r.lz_entropy for r in cohort]
        run.entropies[label, "ctw"] = [r.ctw_entropy for r in cohort]


def _summaries(run: _Run) -> None:
    for key, values in run.entropies.items():
        if len(values) >= 2:
            mean, sd = summary_stats(values)
            run.report.summaries[key] = {"mean": mean, "sd": sd, "n": len(values)}


def _equality_tests(run: _Run) -> None:
    if len(run.cohorts) != 2:
        return
    a_label, b_label = run.cohorts
    for (label, estimator), a in run.entropies.items():  # one test per estimator
        b = run.entropies[b_label, estimator]
        if label != a_label or len(a) < 5 or len(b) < 5:
            continue
        res = density_equality_test(
            a, b, num_permutations=run.config.permutations, seed=run.config.seed
        )
        run.report.equality_tests[estimator] = {
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
        _atomic_write(run.out / f"density_{estimator}.csv", _csv_text(header, rows))


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
    """Returns on the timestamps every series shares, and the rows dropped for it."""
    common = functools.reduce(np.intersect1d, [series.timestamps for series in cohort])
    aligned, dropped = [], 0
    for series in cohort:
        keep = np.isin(series.timestamps, common)
        dropped += len(keep) - int(np.count_nonzero(keep))
        shared = replace(series, timestamps=series.timestamps[keep], prices=series.prices[keep])
        aligned.append(_returns_for(shared, config))
    return aligned, dropped


def _graphs(run: _Run) -> None:
    """Graph files per cohort; also the rows each cohort dropped to align."""
    report = run.report
    by_key = {(s.sampling, s.ticker): s for s in run.series}
    for label, cohort in run.cohorts.items():
        if len(cohort) < 3:
            continue
        try:
            prices = [by_key[label, r.ticker] for r in cohort]
            series, dropped = _aligned_returns(prices, run.config)
            if dropped:
                report.graph_rows_dropped[label] = dropped
            corr = correlation_matrix(series)
            graph = distance_graph(corr)
            entropy_attr = {r.ticker: {"entropy": r.ctw_entropy} for r in cohort}
            for kind, builder in (("mst", mst), ("pmfg", pmfg)):
                filtered = builder(graph, node_attributes=entropy_attr)
                rows = [[i, j, _fmt(d)] for i, j, d in filtered.edges]
                _atomic_write(
                    run.out / f"graph_{label}_{kind}_edges.csv",
                    _csv_text(["source", "target", "distance"], rows),
                )
                _atomic_write(run.out / f"graph_{label}_{kind}.gml", _graph_gml(filtered))
                report.graph_info[label, kind] = {
                    "nodes": len(filtered.nodes), "edges": len(filtered.edges),
                }
            corr_rows = [
                [corr.tickers[i]] + [_fmt(float(v)) for v in corr.rho[i]]
                for i in range(len(corr.tickers))
            ]
            _atomic_write(
                run.out / f"correlation_{label}.csv",
                _csv_text(["ticker"] + list(corr.tickers), corr_rows),
            )
        except ValueError as exc:
            report.failures.append(f"graph[{label}]: {exc}")


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


def _backtest(run: _Run) -> None:
    config, out = run.config, run.out
    daily = [s for s in run.series if s.sampling == "daily"] or run.series
    reports = []
    for series in sorted(daily, key=lambda s: s.ticker):
        try:
            reports.append(mean_reversion_backtest(series, config.strategy))
        except ValueError as exc:
            run.report.failures.append(f"backtest[{series.ticker}]: {exc}")
    if not reports:
        return
    trade_rows = [
        [r.ticker, t.timestamp, t.side, _fmt(t.price), _fmt(t.shares)]
        for r in reports
        for t in r.trades
    ]
    _atomic_write(
        out / "backtest_trades.csv",
        _csv_text(["ticker", "timestamp", "side", "price", "shares"], trade_rows),
    )
    equity_rows = [
        [r.ticker, ts, _fmt(v)] for r in reports for ts, v in r.equity_curve
    ]
    _atomic_write(
        out / "backtest_equity.csv",
        _csv_text(["ticker", "timestamp", "equity"], equity_rows),
    )
    summary_rows = [
        [r.ticker, _fmt(r.strategy_return_pct), _fmt(r.benchmark_return_pct), r.num_trades]
        for r in reports
    ]
    _atomic_write(
        out / "backtest_summary.csv",
        _csv_text(["ticker", "strategy_return_pct", "benchmark_return_pct", "num_trades"], summary_rows),
    )
    # CTW entropies of the daily cohort, or of the intraday one when no daily ticker is ok
    cohort = run.cohorts.get("daily") or run.cohorts.get("intraday", [])
    entropies = {r.ticker: r.ctw_entropy for r in cohort}
    covered = [r for r in reports if r.ticker in entropies]
    run.report.backtest_info = {
        "num_tickers": len(reports),
        "params": config.strategy,
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
    run = _Run(AnalysisReport(config))
    for stage in COMMANDS[config.command]:
        STAGES[stage][0](run)
    _atomic_write(run.out / "report.txt", _report_text(run.report))
    return run.report
