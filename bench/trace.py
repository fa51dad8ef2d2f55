"""Traced run: entrokit commands in this process, with every layer timed from outside.

Usage: python bench/trace.py RESULT.json -- ARGV [-- ARGV ...]

Each ARGV is one `entrokit` command line, run in order through
``entrokit.cli.main``.  Before the first one, every public function of the
layer modules is replaced, in every entrokit namespace that holds it, by a
wrapper that records a span (layer, start, end, parent) and the work
counts read from its arguments or result.  A layer's busy time is the sum
of its spans' self time, so nested calls are counted once.  The program's
files are not changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc

LAYERS = (
    "cli", "dataset", "ingest", "series", "lz", "ctw", "bds",
    "densities", "graphs", "backtest", "synth", "pipeline",
)
# spans whose time is reported under their own name instead of the layer's
SPLIT = {
    "correlation_matrix": "graphs.correlation_s",
    "distance_graph": "graphs.correlation_s",
    "mst": "graphs.mst_s",
    "pmfg": "graphs.pmfg_s",
}
# layers whose self time is reported as pipeline.self_s, the remainder
GLUE = ("cli", "pipeline")

BUSY = tuple(
    f"{layer}.busy_s" for layer in LAYERS if layer not in GLUE and layer != "graphs"
) + ("graphs.correlation_s", "graphs.mst_s", "graphs.pmfg_s")
COUNTS = (
    "ingest.rows", "series.returns", "lz.symbols", "ctw.bits", "ctw.nodes",
    "bds.pairs", "bds.peak_mb", "densities.permutations", "backtest.bars",
    "graphs.pmfg_candidates", "graphs.pmfg_accepted",
)


def _last_rank(args, result) -> int:
    """Rank, in the insertion order, of the last edge the PMFG keeps."""
    order = sorted(args[0].edges, key=lambda e: (e[2], e[0], e[1]))
    rank = {(i, j): k for k, (i, j, _) in enumerate(order, start=1)}
    return max(rank[i, j] for i, j, _ in result.edges)


# function name -> {counter: amount of work read from (args, result)}
COUNTERS = {
    "ingest_csv": {"ingest.rows": lambda a, r: sum(len(s) for s in r.series)
                   + r.skipped_rows + r.duplicate_rows},
    "log_returns": {"series.returns": lambda a, r: len(r)},
    "lz_entropy_rate": {"lz.symbols": lambda a, r: r.sample_size},
    "ctw_log_mixture": {"ctw.bits": lambda a, r: r.n_bits, "ctw.nodes": lambda a, r: r.node_count},
    "bds_statistic": {"bds.pairs": lambda a, r: r.n * (r.n - 1) // 2},
    "density_equality_test": {"densities.permutations": lambda a, r: r.num_permutations},
    "mean_reversion_backtest": {"backtest.bars": lambda a, r: len(a[0])},
    "pmfg": {"graphs.pmfg_candidates": _last_rank, "graphs.pmfg_accepted": lambda a, r: len(r.edges)},
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.self_s: dict[str, float] = {}
        self.counts = {name: 0 for name in COUNTS}
        self._stack: list[list] = []  # [span index, metric, child seconds]

    def wrap(self, layer: str, func):
        metric = SPLIT.get(func.__name__, f"{layer}.busy_s")
        counters = COUNTERS.get(func.__name__, {})
        measure_memory = func.__name__ == "bds_statistic"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append((func.__name__, 0.0, 0.0, parent))
            self._stack.append([index, metric, 0.0])
            if measure_memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.counts["bds.peak_mb"] = max(self.counts["bds.peak_mb"], peak)
                _, _, children = self._stack.pop()
                self.spans[index] = (func.__name__, start, end, parent)
                self.self_s[metric] = self.self_s.get(metric, 0.0) + (end - start) - children
                if self._stack:
                    self._stack[-1][2] += end - start
            for counter, amount in counters.items():
                self.counts[counter] += amount(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each layer's public functions wherever entrokit holds them."""
        modules = {layer: importlib.import_module(f"entrokit.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("entrokit"), *modules.values()]
        for layer, module in modules.items():
            for name, func in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(func)
                        or func.__module__ != module.__name__):
                    continue
                wrapper = self.wrap(layer, func)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is func:
                            setattr(ns, attr, wrapper)

    def metrics(self, wall: float) -> dict[str, float]:
        out = {name: self.self_s.get(name, 0.0) for name in BUSY}
        out["pipeline.self_s"] = wall - sum(out.values())
        out["trace.wall_s"] = wall
        out.update(self.counts)
        return out


def main(argv: list[str]) -> int:
    result_path, commands = argv[0], []
    for arg in argv[1:]:
        if arg == "--":
            commands.append([])
        else:
            commands[-1].append(arg)
    import entrokit.cli

    tracer = Tracer()
    tracer.install()
    exit_codes = []
    start = time.perf_counter()
    for command in commands:
        exit_codes.append(entrokit.cli.main(command))
    wall = time.perf_counter() - start
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_codes": exit_codes, "metrics": tracer.metrics(wall),
                   "spans": tracer.spans}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
