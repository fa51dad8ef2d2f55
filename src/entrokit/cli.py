"""Command-line entry point.

Each command takes the flags of the settings its stages read and no other
(``pipeline.COMMANDS``).  Exit codes: 0 success, 1 configuration error
(any bad, missing or unknown flag among them), 2 partial failure (some
tickers failed but the run completed).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .backtest import StrategyParams
from .dataset import write_synthetic_market
from .pipeline import COMMANDS, RunConfig, command_fields, run_pipeline

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_PARTIAL_FAILURE = 2

# RunConfig field -> its flags; each flag's dest is the RunConfig or
# StrategyParams field it sets, and an absent flag leaves that default
_FLAGS = {
    "inputs": {"--input": dict(
        action="append", type=Path, required=True, dest="inputs", metavar="CSV",
        help="price CSV (timestamp,ticker,close); repeatable",
    )},
    "out_dir": {"--out": dict(
        type=Path, required=True, dest="out_dir", metavar="DIR", help="output directory",
    )},
    "states": {"--states": dict(type=int, choices=(4, 8))},
    "ctw_depth": {"--ctw-depth": dict(type=int, metavar="N")},
    "bds_m": {"--bds-m": dict(type=int, metavar="N")},
    "bds_eps": {"--bds-eps": dict(type=float, metavar="X")},
    "permutations": {"--permutations": dict(type=int, metavar="N")},
    "seed": {"--seed": dict(type=int, metavar="N")},
    "jobs": {"--jobs": dict(type=int, metavar="N")},
    "split_sessions": {"--split-sessions": dict(
        action="store_true", help="drop overnight gaps from intraday series",
    )},
    "strategy": {
        "--window": dict(type=int),
        "--entry-z": dict(type=float),
        "--exit-z": dict(type=float),
        "--capital": dict(type=float, dest="initial_capital"),
    },
}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are configuration errors, not argparse's exit 2."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="entrokit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command, argument_default=argparse.SUPPRESS)
        for name in command_fields(command):
            for flag, options in _FLAGS[name].items():
                p.add_argument(flag, **options)
    demo = sub.add_parser("make-dataset", help="write the bundled synthetic 91-ticker market")
    demo.add_argument("--out", required=True, metavar="DIR")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--points", type=int, default=1500)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
        if args["command"] == "make-dataset":
            paths = write_synthetic_market(args["out"], n_points=args["points"], seed=args["seed"])
            for path in paths:
                print(f"wrote {path}")
            return EXIT_OK
        strategy = {f.name: args.pop(f.name) for f in fields(StrategyParams) if f.name in args}
        config = RunConfig(
            inputs=tuple(args.pop("inputs", ())), strategy=StrategyParams(**strategy), **args
        )
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
