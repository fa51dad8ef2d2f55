"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL line
per criterion.

Two sub-criteria are stated as bounds derived from the estimator and test
definitions:

* 2b-ordering checks the zero-entropy endpoint exactly.  On n constant
  symbols Lambda_0 = 1 and Lambda_i = min(i, n - i) + 1 for i >= 1 (the match
  is capped by the prefix and by the remaining input), so the LZ estimate is
  n*log2(n) / (n + n^2/4) for even n: 0.0053130 at n = 10000.  On a constant
  bit stream every context node of the CTW tree holds the same counts, so
  each weighting step averages two equal values and the mixture collapses to
  the root Krichevsky-Trofimov block probability: a code length of
  -log2 KT(2n, 0) = 7.9696 bits, 0.00079696 per four-state symbol.  The cap
  Lambda_i <= n - i + 1 bounds sum(Lambda) by about n^2/2, so no estimator of
  this form gets below about 2*log2(n)/n; the ordering the closed forms imply
  is CTW <= LZ.
* 8b bounds the power of the density-equality test on N(0,1) against
  N(delta,1) at n = 91 per group and level 5%.  The integrated squared
  difference statistic, with its pooled bandwidth and grid, is unchanged by
  translating or reflecting both samples, so its power is even in delta and
  cannot exceed that of the most powerful test with those invariances: the
  two-sided two-sample z-test, with power
  Phi(g - z) + Phi(-g - z), g = delta*sqrt(n/2), z = z_{0.975}.
  At delta = 0.1 (g = 0.67) that bound is 0.104, so the test must reject at
  most 0.104 plus three Monte-Carlo standard errors (0.144); a higher rate
  means anti-conservative p-values.  It must also have power: at least 50%
  rejections at delta = 0.5, the smallest shift on a 0.1 grid at which the
  bound reaches 0.9.  The test is omnibus, so against a pure location shift
  it needs roughly twice the sample size of a t-test; its docstring promises
  no more.
"""

import itertools
import math
import re
import time
from statistics import NormalDist

import numpy as np
import pytest

from entrokit.backtest import StrategyParams, mean_reversion_backtest
from entrokit.bds import BdsParams, bds_statistic, entropy_bds_association
from entrokit.ctw import CtwParams, ctw_entropy_rate, ctw_log_mixture, kt_log_probability
from entrokit.dataset import write_synthetic_market
from entrokit.densities import density_equality_test
from entrokit.graphs import WeightedGraph, mst, pmfg
from entrokit.lz import lz76_complexity, lz_entropy_rate, match_lengths
from entrokit.pipeline import RunConfig, run_pipeline
from entrokit.synth import SyntheticSource, generate, markov_entropy_rate, shift_register_chain

from builders import price_series
from test_ctw import brute_force_mixture, enumerate_suffix_sets, prior_weight
from test_graphs import brute_force_mst_weight, random_complete_graph, verify_planar_embedding
from test_lz import brute_force_lambdas


def _report(num, label, passed):
    print(f"\nCRITERION {num}: {'PASS' if passed else 'FAIL'} — {label}", flush=True)
    assert passed, f"criterion {num} ({label})"


def _estimate_means(symbols_fn, seeds, n):
    lz_vals, ctw_vals = [], []
    for seed in seeds:
        symbols = symbols_fn(seed)
        lz_vals.append(lz_entropy_rate(symbols).bits_per_symbol)
        ctw_vals.append(ctw_entropy_rate(symbols, 4).bits_per_symbol)
    return float(np.mean(lz_vals)), float(np.mean(ctw_vals))


def test_criterion_01_lz76_worked_example():
    symbols = [int(c) for c in "101001010010111110"]
    start = time.perf_counter()
    complexity = len(lz76_complexity(symbols))
    elapsed = time.perf_counter() - start
    _report("1", "LZ76 worked example equals 8 in under 1 ms",
            complexity == 8 and elapsed < 1e-3)


def test_criterion_02a_uniform_endpoint():
    start = time.perf_counter()
    uniform = lambda seed: generate(
        SyntheticSource(kind="uniform_iid", alphabet_size=4, seed=seed), 10_000
    )
    lz_mean, ctw_mean = _estimate_means(uniform, range(10), 10_000)
    elapsed = time.perf_counter() - start
    _report("2a", "uniform source endpoint bands (10 seeds, n=10000)",
            1.85 <= lz_mean <= 2.00 and 1.95 <= ctw_mean <= 2.08
            and ctw_mean >= lz_mean and elapsed < 60.0)


ZEROS = np.zeros(10_000, dtype=np.int64)


def test_criterion_02b_zero_endpoint_magnitude():
    lz = lz_entropy_rate(ZEROS).bits_per_symbol
    ctw = ctw_entropy_rate(ZEROS, 4).bits_per_symbol
    _report("2b-magnitude", "all-zeros source: both estimates at most 0.05",
            lz <= 0.05 and ctw <= 0.05)


def test_criterion_02b_zero_endpoint_ordering():
    # Closed forms from the module docstring: sum(Lambda) = n + n^2/4 =
    # 25_010_000 and a CTW code length of -log2 KT(2n, 0) bits, which give
    # CTW 0.00079696 <= LZ 0.0053130 bits per symbol.
    n = len(ZEROS)
    lambda_sum = 1 + sum(min(i, n - i) + 1 for i in range(1, n))
    kt_code_length = -kt_log_probability(2 * n, 0)
    lz = lz_entropy_rate(ZEROS).bits_per_symbol
    ctw = ctw_entropy_rate(ZEROS, 4).bits_per_symbol
    _report("2b-ordering",
            "all-zeros source: exact LZ and CTW closed forms, CTW at most LZ",
            lambda_sum == 25_010_000
            and sum(match_lengths(ZEROS)) == lambda_sum
            and math.isclose(lz, n * math.log2(n) / lambda_sum, rel_tol=1e-12)
            and abs(ctw * n - kt_code_length) <= 1e-9
            and ctw <= lz)


def test_criterion_03_ctw_exactness():
    ok = True
    for depth in (0, 1, 2):
        for n in range(1, 11):
            for bits in itertools.product((0, 1), repeat=n):
                got = ctw_log_mixture(list(bits), CtwParams(depth)).log2_mixture_probability
                if abs(got - brute_force_mixture(list(bits), depth)) > 1e-9:
                    ok = False
    for depth in range(4):
        total = sum(prior_weight(s, depth) for s in enumerate_suffix_sets(depth))
        if abs(total - 1.0) > 1e-12:
            ok = False
    _report("3", "CTW equals brute-force mixture (length<=10, D<=2); prior normalizes", ok)


def test_criterion_04_lz_oracle_equivalence():
    ok = True
    for n in range(1, 13):
        for bits in itertools.product((0, 1), repeat=n):
            if match_lengths(bits) != brute_force_lambdas(bits):
                ok = False
    rng = np.random.default_rng(0)
    for _ in range(1000):
        symbols = rng.integers(0, 4, rng.integers(1, 13)).tolist()
        if match_lengths(symbols) != brute_force_lambdas(symbols):
            ok = False
    _report("4", "match lengths equal quadratic brute force (binary exhaustive, A=4 random)", ok)


def test_criterion_05_markov_oracle():
    targets = (0.25, 0.5, 1.0, 1.5, 2.0)
    lz_means, ctw_means, ok = [], [], True
    for target in targets:
        transition = shift_register_chain(target)
        assert markov_entropy_rate(transition) == pytest.approx(target, abs=1e-9)
        chain = lambda seed: generate(
            SyntheticSource(kind="markov", alphabet_size=4, seed=seed, transition=transition),
            10_000,
        )
        lz_mean, ctw_mean = _estimate_means(chain, range(3), 10_000)
        lz_means.append(lz_mean)
        ctw_means.append(ctw_mean)
        if abs(lz_mean - target) > 0.15 or abs(ctw_mean - target) > 0.15:
            ok = False
    for means in (lz_means, ctw_means):
        if not all(b > a for a, b in zip(means, means[1:])):
            ok = False
    _report("5", "Markov family within 0.15 of analytic rate, strictly increasing", ok)


def test_criterion_06_bds_calibration():
    params = BdsParams(embedding_m=2, epsilon_multiplier=1.0)
    stats = []
    for seed in range(200):
        x = np.random.default_rng(seed).standard_normal(1000)
        stats.append(bds_statistic(x, params).statistic)
    stats = np.array(stats)
    rejection = float(np.mean(np.abs(stats) > 1.96))
    calibrated = (0.02 <= rejection <= 0.10
                  and -0.2 <= stats.mean() <= 0.2
                  and 0.8 <= stats.std(ddof=1) <= 1.25)

    ar_hits = 0
    ar_seeds = 40
    for seed in range(ar_seeds):
        rng = np.random.default_rng(10_000 + seed)
        noise = rng.normal(0, 0.1, 1000)
        x = np.empty(1000)
        x[0] = noise[0]
        for t in range(1, 1000):
            x[t] = 0.95 * x[t - 1] + noise[t]
        if abs(bds_statistic(x, params).statistic) > 5:
            ar_hits += 1
    _report("6", "BDS size/moments calibrated on iid Normal; AR(0.95) rejected",
            calibrated and ar_hits >= 0.95 * ar_seeds)


def test_criterion_07_entropy_bds_association():
    entropies, bds_vals = [], []
    params = BdsParams(embedding_m=2, epsilon_multiplier=0.5)
    for i, target in enumerate(np.linspace(0.25, 2.0, 20)):
        transition = shift_register_chain(float(target))
        symbols = generate(
            SyntheticSource(kind="markov", alphabet_size=4, seed=300 + i, transition=transition),
            10_000,
        )
        entropies.append(lz_entropy_rate(symbols).bits_per_symbol)
        bds_vals.append(bds_statistic(symbols.astype(float), params).statistic)
    rho = entropy_bds_association(entropies, bds_vals)
    _report("7", "Spearman correlation between entropy and |BDS| is negative", rho < 0)


def _rejection_rate(shift, seed_base):
    """Share of 500 seeds where N(0,1) vs N(shift,1), n=91, is rejected at 5%."""
    rejections = 0
    for seed in range(500):
        rng = np.random.default_rng(seed_base + seed)
        result = density_equality_test(
            rng.standard_normal(91), rng.standard_normal(91) + shift,
            num_permutations=199, seed=seed,
        )
        rejections += result.p_value < 0.05
    return rejections / 500


def _shift_power_bound(shift):
    """Level-5% two-sided two-sample z-test power, unit variance, n=91."""
    normal = NormalDist()
    gap = shift * math.sqrt(91 / 2)
    z = normal.inv_cdf(0.975)
    return normal.cdf(gap - z) + normal.cdf(-gap - z)


def test_criterion_08a_density_test_calibration():
    rate = _rejection_rate(0.0, seed_base=40_000)
    _report("8a", "equality-test null rejection rate within [2%, 10%]", 0.02 <= rate <= 0.10)


def test_criterion_08b_density_test_power():
    # See the module docstring for the bound and the choice of shifts.
    bound = _shift_power_bound(0.1)
    ceiling = bound + 3 * math.sqrt(bound * (1 - bound) / 500)
    assert _shift_power_bound(0.4) < 0.9 <= _shift_power_bound(0.5)
    small = _rejection_rate(0.1, seed_base=50_000)
    large = _rejection_rate(0.5, seed_base=50_000)
    _report("8b", f"shift 0.1 rejected at most {ceiling:.3f} (z-test bound + 3 SE); "
                  "shift 0.5 rejected in at least 50% of seeds, n=91",
            small <= ceiling and large >= 0.50)


def test_criterion_09_graphs():
    ok = True
    for n in (5, 6, 7, 8):
        graph = random_complete_graph(n, seed=n)
        tree = mst(graph)
        if len(tree.edges) != n - 1:
            ok = False
        total = sum(d for _, _, d in tree.edges)
        if not math.isclose(total, brute_force_mst_weight(graph), rel_tol=1e-12):
            ok = False
    for n in (10, 37, 100):
        graph = random_complete_graph(n, seed=500 + n)
        filtered = pmfg(graph)
        if len(filtered.edges) != 3 * (n - 2):
            ok = False
        verify_planar_embedding(filtered.edges, filtered.nodes)
        tree_edges = {(i, j) for i, j, _ in mst(graph).edges}
        if not tree_edges <= {(i, j) for i, j, _ in filtered.edges}:
            ok = False
    _report("9", "MST exhaustive-minimum (n<=8); PMFG 3(n-2)/planar/contains MST (n<=100)", ok)


def test_criterion_10_end_to_end_report(tmp_path):
    start = time.perf_counter()
    daily, intraday = write_synthetic_market(tmp_path / "data", n_points=1500, seed=0)
    out = tmp_path / "out"
    report = run_pipeline(
        RunConfig(
            inputs=(daily, intraday), out_dir=out, command="report",
            permutations=200, seed=0, jobs=4,
        )
    )
    elapsed = time.perf_counter() - start
    detects = all(
        float(re.search(r"p_value=(\S+)", report.facts[f"equality[{e}]"])[1]) < 0.05
        for e in ("lz", "ctw")
    )
    expected_files = [
        "report.txt", "records.csv", "density_lz.csv", "density_ctw.csv",
        "backtest_summary.csv", "backtest_equity.csv", "backtest_trades.csv",
    ]
    for label in ("daily", "intraday"):
        expected_files.append(f"correlation_{label}.csv")
        for kind in ("mst", "pmfg"):
            expected_files += [
                f"graph_{label}_{kind}_edges.csv",
                f"graph_{label}_{kind}.gml",
            ]
    files_ok = all((out / name).exists() for name in expected_files)
    _report("10", "bundled 91-ticker report: cohort difference p<0.05, all files, <5 min",
            report.num_failed == 0 and detects and files_ok and elapsed < 300.0)


def test_criterion_11_backtest_accounting():
    ok = True
    constant = mean_reversion_backtest(price_series([100.0] * 30))
    ok &= constant.num_trades == 0 and constant.strategy_return_pct == 0.0

    uptrend = mean_reversion_backtest(price_series(list(100.0 * 2 ** (np.arange(40) / 39.0))))
    ok &= uptrend.strategy_return_pct == 0.0
    ok &= math.isclose(uptrend.benchmark_return_pct, 100.0, rel_tol=1e-9)

    oscillation = price_series([100.0 if t % 2 == 0 else 80.0 for t in range(12)])
    osc = mean_reversion_backtest(oscillation, StrategyParams(window=4, entry_z=-1.0, exit_z=0.0))
    ok &= osc.strategy_return_pct > 0
    ok &= math.isclose(osc.equity(oscillation.prices)[-1], 24414.0625, rel_tol=1e-12)

    rng = np.random.default_rng(7)
    noisy = price_series(list(100.0 * np.exp(np.cumsum(rng.normal(0, 0.03, 300)))))
    replay = mean_reversion_backtest(noisy, StrategyParams(window=10))
    cash, shares = replay.params.initial_capital, 0.0
    for k, bar in enumerate(replay.trade_bars):  # fills alternate buy, sell, ...
        if k % 2 == 0:
            cash, shares = 0.0, cash / noisy.prices[bar]
        else:
            cash, shares = shares * noisy.prices[bar], 0.0
    final = cash + shares * noisy.prices[-1]
    ok &= replay.num_trades > 0
    ok &= math.isclose(final, replay.equity(noisy.prices)[-1], rel_tol=1e-12)
    _report("11", "backtest replay exact; constant/uptrend/oscillation examples", ok)
