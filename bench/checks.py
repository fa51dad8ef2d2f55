"""Correctness checks on the outputs of each workload.

Every value the program prints is compared with a computation made here,
from the input CSVs, without importing the program: LZ match lengths by a
matching-statistics scan, CTW from the final per-context counts, BDS by
tiled pair counting, correlations with ``np.corrcoef``, the MST with scipy.
Properties the method must have (planarity, containment of the MST, the
CTW redundancy bound, known driving entropy rates) are checked on top.
A failed check raises ``CheckError`` naming the file and the value.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import networkx as nx
import numpy as np
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.special import gammaln

STATES = 4
CTW_DEPTH = 20
BDS_M = 2
BDS_EPS = 1.0
PRINTED = 5e-7 + 1e-9  # half a unit in the 6th printed decimal, plus float slack
RATE_TOLERANCE = 0.15  # bits per symbol, as acceptance criterion 5 uses
DAILY_BITS, INTRADAY_BITS = 1.90, 1.72  # the make-dataset generator's rates

MARKET_FILES = [
    "report.txt", "records.csv", "density_lz.csv", "density_ctw.csv",
    "backtest_summary.csv", "backtest_equity.csv", "backtest_trades.csv",
]


class CheckError(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _near(printed: str, value: float, what: str, tol: float = PRINTED) -> None:
    got = float(printed)
    _require(
        abs(got - value) <= tol + 1e-12 * abs(value),
        f"{what}: printed {printed}, expected {value:.9f}",
    )


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_prices(path: Path) -> dict[str, np.ndarray]:
    """ticker -> closes in timestamp order."""
    book: dict[str, list[tuple[int, float]]] = {}
    for row in read_rows(path):
        book.setdefault(row["ticker"], []).append((int(row["timestamp"]), float(row["close"])))
    return {t: np.array([p for _, p in sorted(rows)]) for t, rows in book.items()}


# ---------------------------------------------------------------- estimators


def quantile_symbols(returns: np.ndarray, states: int = STATES) -> np.ndarray:
    """Ranks by (value, index) cut into near-equal blocks, larger blocks first."""
    n = len(returns)
    base, rem = divmod(n, states)
    sizes = [base + (s < rem) for s in range(states)]
    symbols = np.empty(n, dtype=np.int64)
    symbols[np.argsort(returns, kind="stable")] = np.repeat(np.arange(states), sizes)
    return symbols


def lz_rate(symbols: np.ndarray) -> float:
    """n*log2(n) / sum(Lambda_i) by a matching-statistics scan.

    L_{i+1} >= L_i - 1 (the match at i, less its first symbol, still lies in
    the longer prefix), so each position starts from the previous match and
    only extends it.
    """
    text = bytes(symbols.astype(np.uint8))
    n = len(text)
    total, length = 0, 0
    for i in range(n):
        length = max(length - 1, 0)
        while i + length < n and text.find(text[i : i + length + 1], 0, i) != -1:
            length += 1
        total += length + 1
    return n * math.log2(n) / total


def _kt_bits(zeros: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """log2 of the Krichevsky-Trofimov block probability."""
    ln = gammaln(zeros + 0.5) + gammaln(ones + 0.5) - gammaln(zeros + ones + 1) - 2 * gammaln(0.5)
    return ln / math.log(2.0)


def _symbol_bits(symbols: np.ndarray, states: int = STATES) -> np.ndarray:
    width = states.bit_length() - 1
    shifts = np.arange(width - 1, -1, -1)
    return ((symbols[:, None] >> shifts) & 1).ravel()


def _context_keys(bits: np.ndarray, depth: int) -> np.ndarray:
    """Bit k of key t is the bit k+1 places before t; D copies of bit 0 pad the start."""
    padded = np.concatenate([np.full(depth, bits[0]), bits]).astype(np.int64)
    keys = np.zeros(len(bits), dtype=np.int64)
    for k in range(depth):
        keys |= padded[depth - 1 - k : depth - 1 - k + len(bits)] << k
    return keys


def ctw_counts(symbols: np.ndarray, depth: int = CTW_DEPTH) -> tuple[float, int, list]:
    """CTW mixture from the final (zeros, ones) count of every context.

    Returns (-log2 P_w, node count, per-depth KT code lengths).  A node's
    weighted probability depends only on its own final counts and its
    children's, so the tree is folded from depth D up to the root.
    """
    bits = _symbol_bits(symbols)
    keys, inverse = np.unique(_context_keys(bits, depth), return_inverse=True)
    ones = np.bincount(inverse, weights=bits, minlength=len(keys))
    zeros = np.bincount(inverse, minlength=len(keys)) - ones
    log_pw = _kt_bits(zeros, ones)
    code = [0.0] * (depth + 1)
    code[depth] = -float(log_pw.sum())
    nodes = len(keys)
    for d in range(depth - 1, -1, -1):
        keys, inverse = np.unique(keys & ((1 << d) - 1), return_inverse=True)
        zeros = np.bincount(inverse, weights=zeros)
        ones = np.bincount(inverse, weights=ones)
        log_pe = _kt_bits(zeros, ones)
        code[d] = -float(log_pe.sum())
        log_pw = np.logaddexp2(log_pe, np.bincount(inverse, weights=log_pw)) - 1.0
        nodes += len(keys)
    return -float(log_pw[0]), nodes, code


def ctw_rate(symbols: np.ndarray, depth: int = CTW_DEPTH) -> float:
    return ctw_counts(symbols, depth)[0] / len(symbols)


def ctw_bound(symbols: np.ndarray, depth: int = CTW_DEPTH) -> float:
    """Redundancy bound: best complete tree of depth d <= D, plus its prior cost."""
    _, _, code = ctw_counts(symbols, depth)
    best = min(
        code[d] + 2 ** (d + 1) - 1 - (2**d if d == depth else 0) for d in range(depth + 1)
    )
    return best / len(symbols)


def bds(x: np.ndarray, m: int = BDS_M, multiplier: float = BDS_EPS, block: int = 512) -> tuple[float, float]:
    """BDS statistic and two-sided p-value, from pair counts taken a row block at a time."""
    n = len(x)
    n_emb = n - m + 1
    eps = multiplier * float(np.std(x, ddof=1))
    full = trunc = emb = 0
    degree = np.empty(n, dtype=np.int64)
    for r0 in range(0, n, block):
        r1 = min(r0 + block, n)
        rows = np.abs(x[r0 : min(r1 + m - 1, n), None] - x[None, :]) <= eps
        head = rows[: r1 - r0]
        degree[r0:r1] = head.sum(axis=1) - 1
        full += int(head.sum())
        s1 = min(r1, n_emb) - r0
        if s1 > 0:
            trunc += int(head[:s1, :n_emb].sum())
            joint = rows[:s1, :n_emb].copy()
            for k in range(1, m):
                joint &= rows[k : k + s1, k : k + n_emb]
            emb += int(joint.sum())

    def fraction(total: int, size: int) -> float:
        return ((total - size) // 2) / (size * (size - 1) / 2)

    c_m, c_1, c = fraction(emb, n_emb), fraction(trunc, n_emb), fraction(full, n)
    k = float(np.sum(degree * (degree - 1))) / (n * (n - 1) * (n - 2))
    tail = sum(k ** (m - j) * c ** (2 * j) for j in range(1, m))
    var = 4.0 * (k**m + 2.0 * tail + (m - 1) ** 2 * c ** (2 * m) - m**2 * k * c ** (2 * m - 2))
    stat = math.sqrt(n_emb) * (c_m - c_1**m) / math.sqrt(var)
    return stat, math.erfc(abs(stat) / math.sqrt(2.0))


# ------------------------------------------------------------------ records


def check_records(out: Path, prices: dict[str, dict[str, np.ndarray]]) -> dict:
    """Every row ok, and each printed estimate equal to the one computed here.

    ``prices`` maps cohort label -> ticker -> closes.  Returns
    cohort -> ticker -> the row, for the workload checks that follow.
    """
    rows = read_rows(out / "records.csv")
    expected = {(label, t) for label, book in prices.items() for t in book}
    seen = {(r["sampling"], r["ticker"]) for r in rows}
    _require(seen == expected and len(rows) == len(expected),
             f"records.csv: {len(rows)} rows for {sorted(seen)}, expected {len(expected)}")
    by_cohort: dict[str, dict[str, dict]] = {}
    for row in rows:
        label, ticker = row["sampling"], row["ticker"]
        what = f"records.csv {label}/{ticker}"
        _require(row["status"] == "ok", f"{what}: status {row['status']} {row['error']}")
        closes = prices[label][ticker]
        _require(int(row["n"]) == len(closes), f"{what}: n={row['n']}, expected {len(closes)}")
        returns = np.diff(np.log(closes))
        symbols = quantile_symbols(returns)
        _near(row["lz_entropy"], lz_rate(symbols), f"{what} lz_entropy")
        _near(row["ctw_entropy"], ctw_rate(symbols), f"{what} ctw_entropy")
        stat, p = bds(returns)
        _near(row["bds_statistic"], stat, f"{what} bds_statistic")
        _near(row["bds_p"], p, f"{what} bds_p")
        row["symbols"] = symbols
        by_cohort.setdefault(label, {})[ticker] = row
    return by_cohort


def failed_operations(out: Path) -> int:
    """Rows of records.csv not ok, plus the failures report.txt lists."""
    failed = sum(r["status"] != "ok" for r in read_rows(out / "records.csv"))
    text = (out / "report.txt").read_text(encoding="utf-8")
    return failed + sum(line.startswith("failure: ") for line in text.splitlines())


# ------------------------------------------------------------ market_report


def _graph_edges(path: Path) -> list[tuple[str, str, float]]:
    return [(r["source"], r["target"], float(r["distance"])) for r in read_rows(path)]


def _faces(embedding: nx.PlanarEmbedding) -> int:
    """Count the faces of a rotation system by walking each half-edge once."""
    seen: set[tuple] = set()
    faces = 0
    for u, v in embedding.edges():
        if (u, v) in seen:
            continue
        faces += 1
        a, b = u, v
        while (a, b) not in seen:
            seen.add((a, b))
            a, b = b, embedding[b][a]["cw"]
    return faces


def check_graphs(out: Path, label: str, closes: dict[str, np.ndarray]) -> None:
    tickers = sorted(closes)
    n = len(tickers)
    index = {t: i for i, t in enumerate(tickers)}
    rho = np.corrcoef(np.vstack([np.diff(np.log(closes[t])) for t in tickers]))

    corr_rows = read_rows(out / f"correlation_{label}.csv")
    _require([r["ticker"] for r in corr_rows] == tickers, f"correlation_{label}.csv: ticker order")
    for r in corr_rows:
        i = index[r["ticker"]]
        for t in tickers:
            _near(r[t], rho[i, index[t]], f"correlation_{label}.csv [{r['ticker']}, {t}]")

    dist = np.sqrt(np.maximum(2.0 * (1.0 - rho), 0.0))
    mst_edges = _graph_edges(out / f"graph_{label}_mst_edges.csv")
    tree = nx.Graph((i, j) for i, j, _ in mst_edges)
    _require(len(mst_edges) == n - 1 and tree.number_of_nodes() == n and nx.is_connected(tree),
             f"graph_{label}_mst_edges.csv: {len(mst_edges)} edges do not span {n} nodes")
    for i, j, d in mst_edges:
        _require(abs(d - dist[index[i], index[j]]) <= PRINTED,
                 f"graph_{label}_mst_edges.csv: distance of {i}-{j} is {d}")
    # zero distances would vanish from the sparse input; none occur off the diagonal here
    reference = minimum_spanning_tree(np.triu(dist, 1)).sum()
    _require(abs(sum(d for _, _, d in mst_edges) - reference) <= n * PRINTED,
             f"graph_{label}_mst_edges.csv: total distance differs from the scipy MST {reference:.6f}")

    pmfg_edges = _graph_edges(out / f"graph_{label}_pmfg_edges.csv")
    graph = nx.Graph((i, j) for i, j, _ in pmfg_edges)
    _require(len(pmfg_edges) == 3 * (n - 2) and graph.number_of_edges() == 3 * (n - 2),
             f"graph_{label}_pmfg_edges.csv: {len(pmfg_edges)} edges, expected {3 * (n - 2)}")
    planar, embedding = nx.check_planarity(graph)
    _require(planar, f"graph_{label}_pmfg_edges.csv: not planar")
    embedding.check_structure()
    vertices, edges = graph.number_of_nodes(), graph.number_of_edges()
    _require(vertices == n and nx.is_connected(graph) and vertices - edges + _faces(embedding) == 2,
             f"graph_{label}_pmfg_edges.csv: embedding fails Euler's formula")
    _require(all(graph.has_edge(i, j) for i, j, _ in mst_edges),
             f"graph_{label}_pmfg_edges.csv: misses an MST edge")


def check_market(out: Path, daily: Path, intraday: Path, permutations: int) -> None:
    """Checks for `entrokit report` on the two make-dataset cohorts."""
    prices = {"daily": read_prices(daily), "intraday": read_prices(intraday)}
    expected = list(MARKET_FILES)
    for label in prices:
        expected.append(f"correlation_{label}.csv")
        expected += [f"graph_{label}_{k}{ext}" for k in ("mst", "pmfg") for ext in ("_edges.csv", ".gml")]
    missing = [name for name in expected if not (out / name).is_file()]
    _require(not missing, f"missing outputs: {missing}")

    records = check_records(out, prices)
    means = {
        (label, est): float(np.mean([float(r[f"{est}_entropy"]) for r in rows.values()]))
        for label, rows in records.items()
        for est in ("lz", "ctw")
    }
    for est in ("lz", "ctw"):
        _require(means["intraday", est] < means["daily", est],
                 f"{est}: intraday mean {means['intraday', est]:.4f} not below daily {means['daily', est]:.4f}")
    for label, bits in (("daily", DAILY_BITS), ("intraday", INTRADAY_BITS)):
        _require(abs(means[label, "lz"] - bits) <= RATE_TOLERANCE,
                 f"lz mean {means[label, 'lz']:.4f} of {label} is not within {RATE_TOLERANCE} of {bits}")

    for label, closes in prices.items():
        check_graphs(out, label, closes)

    text = (out / "report.txt").read_text(encoding="utf-8")
    p_values = [line.split("p_value=")[1].split()[0] for line in text.splitlines()
                if line.startswith("equality[") and "p_value=" in line]
    _require(len(p_values) == 2, f"report.txt: {len(p_values)} equality tests, expected 2")
    for p in p_values:
        _require(math.isclose(float(p), 1.0 / (permutations + 1), rel_tol=5e-6),
                 f"report.txt: equality p_value {p}, expected 1/{permutations + 1}")

    summary = read_rows(out / "backtest_summary.csv")
    _require(sorted(r["ticker"] for r in summary) == sorted(prices["daily"]),
             "backtest_summary.csv: tickers differ from the daily cohort")
    for r in summary:
        closes = prices["daily"][r["ticker"]]
        _near(r["benchmark_return_pct"], (closes[-1] / closes[0] - 1.0) * 100.0,
              f"backtest_summary.csv {r['ticker']} benchmark_return_pct")


def market_operations(tickers: int) -> int:
    """Estimations (both cohorts), two graph builds, two equality tests, daily backtests."""
    return 2 * tickers + 2 + 2 + tickers


# ------------------------------------------------------------ long_intraday


def check_rates(estimates: dict[str, float], rates: dict[str, float]) -> None:
    """Each LZ estimate within RATE_TOLERANCE of its driving rate."""
    for ticker, rate in rates.items():
        _require(abs(estimates[ticker] - rate) <= RATE_TOLERANCE,
                 f"{ticker}: lz_entropy {estimates[ticker]} not within {RATE_TOLERANCE} of the rate {rate}")


def check_rising(estimates: dict[str, float], rates: dict[str, float], what: str) -> None:
    values = [estimates[t] for t in sorted(rates, key=rates.get)]
    _require(all(a < b for a, b in zip(values, values[1:])),
             f"{what} does not rise strictly with the driving rate: {values}")


def check_long_intraday(out: Path, data: Path, rates: dict[str, float]) -> None:
    """Checks for `entrokit estimate` on series with known driving rates."""
    records = check_records(out, {"intraday": read_prices(data)})["intraday"]
    _require(sorted(records) == sorted(rates), "records.csv: tickers differ from the input")
    estimates = {est: {t: float(r[f"{est}_entropy"]) for t, r in records.items()} for est in ("lz", "ctw")}
    check_rates(estimates["lz"], rates)
    for est, values in estimates.items():
        check_rising(values, rates, est)
    for ticker, row in records.items():
        bound = ctw_bound(row["symbols"])
        _require(estimates["ctw"][ticker] <= bound + PRINTED,
                 f"{ticker}: ctw_entropy {row['ctw_entropy']} above the redundancy bound {bound:.6f}")
