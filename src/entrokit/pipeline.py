"""Batch analysis pipeline: ingest -> estimate -> compare -> emit.

Per ticker: log returns -> quartile discretization -> LZ and CTW entropy
rates -> BDS on the raw returns.  Cross-sectional stages compare estimate
densities across sampling cohorts, build correlation graphs and optionally
run the mean-reversion backtest.  A failing ticker is recorded and skipped;
it never aborts the run.  All files are written atomically under the
output directory.
"""

from __future__ import annotations

import csv
import io
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
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

__all__ = ["RunConfig", "TickerRecord", "AnalysisReport", "run_pipeline"]

SESSION_GAP_SECONDS = 4 * 3600  # intraday gap treated as a session boundary

COMMANDS = ("estimate", "validate", "bds", "compare", "graph", "backtest", "report")


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
        if not self.inputs and self.command != "validate":
            raise ValueError("at least one input file is required")
        for p in self.inputs:
            if not Path(p).is_file():
                raise ValueError(f"input not readable: {p}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.permutations < 1:
            raise ValueError("permutations must be >= 1")
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
    records: list[TickerRecord]
    summaries: dict
    equality_tests: dict
    associations: dict
    graph_info: dict
    backtest_info: dict
    skipped_rows: int
    duplicate_rows: int
    config: RunConfig
    failures: list[str] = field(default_factory=list)

    @property
    def num_failed(self) -> int:
        return sum(1 for r in self.records if r.failed) + len(self.failures)


def _returns_for(series: PriceSeries, config: RunConfig) -> ReturnSeries:
    returns = log_returns(series)
    if not (config.split_sessions and series.sampling == "intraday"):
        return returns
    within = np.diff(series.timestamps()) < SESSION_GAP_SECONDS
    return replace(returns, values=tuple(v for v, keep in zip(returns.values, within) if keep))


def _failed_record(series: PriceSeries, exc: BaseException) -> TickerRecord:
    return TickerRecord(
        ticker=series.ticker,
        sampling=series.sampling,
        n=len(series),
        failed=True,
        error=f"{type(exc).__name__}: {exc}",
    )


def _process_ticker(args: tuple[PriceSeries, RunConfig]) -> tuple[TickerRecord, ReturnSeries | None]:
    series, config = args
    try:
        returns = _returns_for(series, config)
        symbols = quantile_discretize(returns, config.states)
        lz = lz_entropy_rate(symbols)
        ctw = ctw_entropy_rate(symbols, depth_D=config.ctw_depth)
        bds = bds_statistic(returns, BdsParams(config.bds_m, config.bds_eps))
        record = TickerRecord(
            ticker=series.ticker,
            sampling=series.sampling,
            n=len(series),
            lz_entropy=lz.bits_per_symbol,
            ctw_entropy=ctw.bits_per_symbol,
            bds_statistic=bds.statistic,
            bds_p=bds.p_value,
        )
        return record, returns
    except Exception as exc:  # crash isolation: the run continues
        return _failed_record(series, exc), None


def _pool_results(tasks: list[tuple[PriceSeries, RunConfig]], jobs: int) -> list:
    """Per-ticker results from a process pool; a dead worker fails its tickers."""
    results = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_process_ticker, task) for task in tasks]
        for future, (series, _) in zip(futures, tasks):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                results.append((_failed_record(series, exc), None))
    return results


def _atomic_write(path: Path, text: str) -> None:
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


def _cohorts(records: list[TickerRecord]) -> dict[str, list[TickerRecord]]:
    out: dict[str, list[TickerRecord]] = {}
    for r in records:
        if not r.failed:
            out.setdefault(r.sampling, []).append(r)
    return out


def _summaries(records: list[TickerRecord]) -> dict:
    summaries = {}
    for label, cohort in sorted(_cohorts(records).items()):
        for estimator, getter in (("lz", lambda r: r.lz_entropy), ("ctw", lambda r: r.ctw_entropy)):
            values = [getter(r) for r in cohort]
            if len(values) >= 2:
                mean, sd = summary_stats(values)
                summaries[(label, estimator)] = {"mean": mean, "sd": sd, "n": len(values)}
    return summaries


def _equality_tests(records: list[TickerRecord], config: RunConfig, out: Path) -> dict:
    cohorts = _cohorts(records)
    labels = sorted(cohorts)
    results = {}
    if len(labels) != 2:
        return results
    a_label, b_label = labels
    for estimator, getter in (("lz", lambda r: r.lz_entropy), ("ctw", lambda r: r.ctw_entropy)):
        a = [getter(r) for r in cohorts[a_label]]
        b = [getter(r) for r in cohorts[b_label]]
        if len(a) < 5 or len(b) < 5:
            continue
        res = density_equality_test(a, b, num_permutations=config.permutations, seed=config.seed)
        results[estimator] = {
            "cohort_a": a_label,
            "cohort_b": b_label,
            "statistic": res.statistic,
            "p_value": res.p_value,
            "bandwidth": res.bandwidth,
            "method": "permutation stand-in for the reference-band equality test",
        }
        rows = [
            [
                _fmt(float(g)),
                _fmt(float(da)),
                _fmt(float(db)),
                _fmt(float(lo)),
                _fmt(float(hi)),
            ]
            for g, da, db, lo, hi in zip(
                res.grid, res.density_a, res.density_b,
                res.reference_band_low, res.reference_band_high,
            )
        ]
        header = ["grid", f"density_{a_label}", f"density_{b_label}", "band_low", "band_high"]
        _atomic_write(out / f"density_{estimator}.csv", _csv_text(header, rows))
    return results


def _associations(records: list[TickerRecord]) -> dict:
    out = {}
    for label, cohort in sorted(_cohorts(records).items()):
        if len(cohort) < 3:
            continue
        for estimator, getter in (("lz", lambda r: r.lz_entropy), ("ctw", lambda r: r.ctw_entropy)):
            try:
                rho = entropy_bds_association(
                    [getter(r) for r in cohort], [r.bds_statistic for r in cohort]
                )
            except ValueError:
                continue
            out[(label, estimator)] = rho
    return out


def _graph_outputs(
    records: list[TickerRecord],
    returns_by_ticker: dict[str, dict[str, ReturnSeries]],
    out: Path,
    failures: list[str],
) -> dict:
    info = {}
    for label, cohort in sorted(_cohorts(records).items()):
        tickers = [r.ticker for r in cohort]
        series = [returns_by_ticker[label][t] for t in tickers if t in returns_by_ticker[label]]
        if len(series) < 3:
            continue
        try:
            corr = correlation_matrix(series)
            graph = distance_graph(corr)
            entropy_attr = {r.ticker: {"entropy": r.ctw_entropy} for r in cohort}
            for kind, builder in (("mst", mst), ("pmfg", pmfg)):
                filtered = builder(graph, node_attributes=entropy_attr)
                rows = [[i, j, _fmt(d)] for i, j, d in filtered.edges]
                _atomic_write(
                    out / f"graph_{label}_{kind}_edges.csv",
                    _csv_text(["source", "target", "distance"], rows),
                )
                _atomic_write(out / f"graph_{label}_{kind}.gml", _graph_gml(filtered))
                info[(label, kind)] = {"nodes": len(filtered.nodes), "edges": len(filtered.edges)}
            corr_rows = [
                [corr.tickers[i]] + [_fmt(float(v)) for v in corr.rho[i]]
                for i in range(len(corr.tickers))
            ]
            _atomic_write(
                out / f"correlation_{label}.csv",
                _csv_text(["ticker"] + list(corr.tickers), corr_rows),
            )
        except ValueError as exc:
            failures.append(f"graph[{label}]: {exc}")
    return info


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


def _backtest_outputs(
    all_series: list[PriceSeries],
    records: list[TickerRecord],
    config: RunConfig,
    out: Path,
    failures: list[str],
) -> dict:
    daily = [s for s in all_series if s.sampling == "daily"]
    if not daily:
        daily = list(all_series)
    reports = []
    for series in sorted(daily, key=lambda s: s.ticker):
        try:
            reports.append(mean_reversion_backtest(series, config.strategy))
        except ValueError as exc:
            failures.append(f"backtest[{series.ticker}]: {exc}")
    if not reports:
        return {}
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
    entropies = {
        r.ticker: r.ctw_entropy for r in records if not r.failed and r.sampling == "daily"
    }
    if not entropies:
        entropies = {r.ticker: r.ctw_entropy for r in records if not r.failed}
    cohort = {}
    covered = [r for r in reports if r.ticker in entropies]
    if len(covered) >= 2:
        cohort = entropy_cohort_report(covered, {t: entropies[t] for t in entropies})
    return {
        "num_tickers": len(reports),
        "params": config.strategy,
        "cohorts": cohort,
    }


def _validate_outputs(config: RunConfig, out: Path) -> None:
    sizes = [100, 300, 1000, 3000, 10000]
    rows = []
    for name, source in (
        ("constant", SyntheticSource(kind="constant", alphabet_size=4, seed=config.seed)),
        ("uniform_iid", SyntheticSource(kind="uniform_iid", alphabet_size=4, seed=config.seed)),
    ):
        curve = convergence_curve(source, sizes, trials=10, ctw_depth=config.ctw_depth)
        for size, lz_m, ctw_m in zip(curve.sizes, curve.estimates_lz, curve.estimates_ctw):
            rows.append([name, size, _fmt(lz_m), _fmt(ctw_m), _fmt(curve.true_entropy)])
    _atomic_write(
        out / "convergence.csv",
        _csv_text(["source", "size", "lz_mean", "ctw_mean", "true_entropy"], rows),
    )


def _report_text(report: AnalysisReport) -> str:
    cfg = report.config
    lines = [
        "entrokit analysis report",
        f"command: {cfg.command}",
        f"seed: {cfg.seed}",
        f"states: {cfg.states}",
        f"ctw_depth: {cfg.ctw_depth}",
        f"bds_m: {cfg.bds_m}",
        f"bds_eps: {cfg.bds_eps}",
        f"permutations: {cfg.permutations}",
        f"split_sessions: {cfg.split_sessions}",
        f"inputs: {', '.join(str(p) for p in cfg.inputs)}",
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
    """Execute one command end to end and write its outputs."""
    out = Path(config.out_dir)

    all_series: list[PriceSeries] = []
    skipped = duplicates = 0
    for path in config.inputs:
        result = ingest_csv(path)
        all_series.extend(result.series)
        skipped += result.skipped_rows
        duplicates += result.duplicate_rows
    all_series.sort(key=lambda s: (s.ticker, s.sampling))

    if config.command == "validate":
        out.mkdir(parents=True, exist_ok=True)
        report = AnalysisReport(
            records=[], summaries={}, equality_tests={}, associations={},
            graph_info={}, backtest_info={}, skipped_rows=skipped,
            duplicate_rows=duplicates, config=config,
        )
        _validate_outputs(config, out)
        _atomic_write(out / "report.txt", _report_text(report))
        return report

    if not all_series:
        raise ValueError("no tickers found in inputs")
    out.mkdir(parents=True, exist_ok=True)

    tasks = [(s, config) for s in all_series]
    if config.jobs > 1:
        results = _pool_results(tasks, config.jobs)
    else:
        results = [_process_ticker(t) for t in tasks]

    records = [rec for rec, _ in results]
    returns_by_ticker: dict[str, dict[str, ReturnSeries]] = {}
    for (rec, returns), series in zip(results, all_series):
        if returns is not None:
            returns_by_ticker.setdefault(series.sampling, {})[series.ticker] = returns

    failures: list[str] = []
    want = config.command
    summaries = _summaries(records) if want in ("estimate", "compare", "report") else {}
    equality = (
        _equality_tests(records, config, out) if want in ("compare", "report") else {}
    )
    associations = _associations(records) if want in ("bds", "report") else {}
    graph_info = (
        _graph_outputs(records, returns_by_ticker, out, failures)
        if want in ("graph", "report")
        else {}
    )
    backtest_info = (
        _backtest_outputs(all_series, records, config, out, failures)
        if want in ("backtest", "report")
        else {}
    )

    report = AnalysisReport(
        records=records,
        summaries=summaries,
        equality_tests=equality,
        associations=associations,
        graph_info=graph_info,
        backtest_info=backtest_info,
        skipped_rows=skipped,
        duplicate_rows=duplicates,
        config=config,
        failures=failures,
    )
    _write_records(out, records)
    _atomic_write(out / "report.txt", _report_text(report))
    return report
