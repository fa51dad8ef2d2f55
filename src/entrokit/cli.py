"""Command-line entry point.

Exit codes: 0 success, 1 configuration error, 2 partial failure (some
tickers failed but the run completed).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .backtest import StrategyParams
from .ctw import DEFAULT_DEPTH
from .dataset import write_synthetic_market
from .densities import DEFAULT_PERMUTATIONS
from .pipeline import COMMANDS, RunConfig, run_pipeline

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_PARTIAL_FAILURE = 2


def _add_common(parser: argparse.ArgumentParser, needs_input: bool) -> None:
    parser.add_argument(
        "--input", action="append", default=[], metavar="CSV",
        required=needs_input, help="price CSV (timestamp,ticker,close); repeatable",
    )
    parser.add_argument("--out", required=True, metavar="DIR", help="output directory")
    parser.add_argument("--states", type=int, default=4, choices=(4, 8))
    parser.add_argument("--ctw-depth", type=int, default=DEFAULT_DEPTH, metavar="N")
    parser.add_argument("--bds-m", type=int, default=2, metavar="N")
    parser.add_argument("--bds-eps", type=float, default=1.0, metavar="X")
    parser.add_argument("--seed", type=int, default=0, metavar="N")
    parser.add_argument("--jobs", type=int, default=1, metavar="N")
    parser.add_argument("--permutations", type=int, default=DEFAULT_PERMUTATIONS, metavar="N")
    parser.add_argument(
        "--split-sessions", action="store_true",
        help="drop overnight gaps from intraday series",
    )


def _add_strategy(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--window", type=int, default=20)
    parser.add_argument("--entry-z", type=float, default=-1.0)
    parser.add_argument("--exit-z", type=float, default=0.0)
    parser.add_argument("--capital", type=float, default=10_000.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="entrokit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        _add_common(p, needs_input=(command != "validate"))
        if command in ("backtest", "report"):
            _add_strategy(p)
    demo = sub.add_parser("make-dataset", help="write the bundled synthetic 91-ticker market")
    demo.add_argument("--out", required=True, metavar="DIR")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--points", type=int, default=1500)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "make-dataset":
        try:
            daily, intraday = write_synthetic_market(args.out, n_points=args.points, seed=args.seed)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        print(f"wrote {daily}")
        print(f"wrote {intraday}")
        return EXIT_OK

    strategy = StrategyParams()
    if hasattr(args, "window"):
        try:
            strategy = StrategyParams(
                window=args.window,
                entry_z=args.entry_z,
                exit_z=args.exit_z,
                initial_capital=args.capital,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR

    try:
        config = RunConfig(
            inputs=tuple(Path(p) for p in args.input),
            out_dir=Path(args.out),
            command=args.command,
            states=args.states,
            ctw_depth=args.ctw_depth,
            bds_m=args.bds_m,
            bds_eps=args.bds_eps,
            permutations=args.permutations,
            seed=args.seed,
            jobs=args.jobs,
            split_sessions=args.split_sessions,
            strategy=strategy,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        report = run_pipeline(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    print(f"report written to {config.out_dir}")
    if report.num_failed:
        print(f"warning: {report.num_failed} analyses failed; see report.txt", file=sys.stderr)
        return EXIT_PARTIAL_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
