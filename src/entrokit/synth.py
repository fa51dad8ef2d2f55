"""Synthetic symbol sources with known entropy rates and convergence harness.

The sources are seeded and fully deterministic so estimator comparisons are
reproducible; the Markov oracle gives the analytic entropy rate both
estimators are judged against.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .ctw import DEFAULT_DEPTH, ctw_entropy_rate
from .lz import lz_entropy_rate

__all__ = [
    "SyntheticSource",
    "ConvergenceCurve",
    "generate",
    "stationary_distribution",
    "markov_entropy_rate",
    "convergence_curve",
    "shift_register_chain",
]

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SyntheticSource:
    kind: str  # "constant", "uniform_iid" or "markov"
    alphabet_size: int
    seed: int = 0
    transition: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "uniform_iid", "markov"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == "markov":
            t = self.transition
            if t is None or t.shape != (self.alphabet_size, self.alphabet_size):
                raise ValueError("markov source needs a square transition matrix")
            if np.any(t < 0) or np.max(np.abs(t.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
                raise ValueError("transition rows must be nonnegative and sum to 1")


@dataclass(frozen=True)
class ConvergenceCurve:
    sizes: tuple[int, ...]
    estimates_lz: tuple[float, ...]
    estimates_ctw: tuple[float, ...]
    true_entropy: float


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible row-stochastic matrix."""
    t = np.asarray(transition, dtype=float)
    k = t.shape[0]
    # irreducibility: every state reaches every other in <= k steps
    reach = (t > 0).astype(float) + np.eye(k)
    power = np.linalg.matrix_power(reach, k)
    if np.any(power == 0):
        raise ValueError("transition matrix is reducible")
    a = np.vstack([t.T - np.eye(k), np.ones(k)])
    b = np.concatenate([np.zeros(k), [1.0]])
    mu, *_ = np.linalg.lstsq(a, b, rcond=None)
    mu = np.clip(mu, 0.0, None)
    return mu / mu.sum()


def markov_entropy_rate(transition: np.ndarray) -> float:
    """H = -sum_i mu_i sum_j P_ij log2 P_ij, in bits."""
    t = np.asarray(transition, dtype=float)
    mu = stationary_distribution(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(t > 0, np.log2(np.where(t > 0, t, 1.0)), 0.0)
    return float(-np.sum(mu[:, None] * t * logs))


def generate(source: SyntheticSource, n: int) -> np.ndarray:
    """Draw n int64 symbols in [0, alphabet_size); deterministic given (source, seed, n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = source.alphabet_size
    if source.kind == "constant":
        return np.zeros(n, dtype=np.int64)
    rng = np.random.default_rng(source.seed)
    if source.kind == "uniform_iid":
        return rng.integers(0, a, size=n)
    # markov: start from the stationary distribution.  Each cumulative row
    # ends at exactly 1.0, above every draw in [0, 1), so rounding in the
    # sums cannot carry a draw past the last state.
    t = np.asarray(source.transition, dtype=float)
    start = np.cumsum(stationary_distribution(t))
    start[-1] = 1.0
    cdf = np.cumsum(t, axis=1)
    cdf[:, -1] = 1.0
    u = rng.random(n)
    state = int(np.searchsorted(start, u[0]))
    # bisect_left on the rows as Python floats is np.searchsorted's "left"
    # side, without a numpy call per symbol
    cdf = cdf.tolist()
    symbols = [state]
    for draw in u[1:].tolist():
        state = bisect_left(cdf[state], draw)
        symbols.append(state)
    return np.array(symbols, dtype=np.int64)


def convergence_curve(
    source: SyntheticSource,
    sizes: list[int],
    trials: int = 10,
    ctw_depth: int = DEFAULT_DEPTH,
) -> ConvergenceCurve:
    """Mean LZ and CTW estimates per sample size, averaged over trials."""
    if any(s < 10 for s in sizes):
        raise ValueError("all sizes must be >= 10")
    if sorted(sizes) != list(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be strictly increasing")
    if source.kind == "constant":
        true_h = 0.0
    elif source.kind == "uniform_iid":
        true_h = math.log2(source.alphabet_size)
    else:
        true_h = markov_entropy_rate(source.transition)
    lz_means, ctw_means = [], []
    for size in sizes:
        lz_vals, ctw_vals = [], []
        for trial in range(trials):
            trial_source = SyntheticSource(
                kind=source.kind,
                alphabet_size=source.alphabet_size,
                seed=source.seed + trial,
                transition=source.transition,
            )
            symbols = generate(trial_source, size)
            lz_vals.append(lz_entropy_rate(symbols).bits_per_symbol)
            ctw = ctw_entropy_rate(symbols, source.alphabet_size, depth_D=ctw_depth)
            ctw_vals.append(ctw.bits_per_symbol)
        lz_means.append(float(np.mean(lz_vals)))
        ctw_means.append(float(np.mean(ctw_vals)))
    return ConvergenceCurve(
        sizes=tuple(sizes),
        estimates_lz=tuple(lz_means),
        estimates_ctw=tuple(ctw_means),
        true_entropy=true_h,
    )


def _cycle_row_entropy(q: float) -> float:
    p = 1.0 - 3.0 * q
    h = 0.0
    for v in (p, q, q, q):
        if v > 0:
            h -= v * math.log2(v)
    return h


def _cycle_q(target_bits: float) -> float:
    """q in (0, 1/4] whose row entropy is ``target_bits``, to one float step.

    The row entropy rises monotonically from 0 to 2 bits on [0, 1/4], so
    bisection keeps h(lo) < target <= h(hi) and stops when lo and hi are
    adjacent floats: their midpoint rounds back to one of them.
    """
    lo, hi = 0.0, 0.25
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return hi
        if _cycle_row_entropy(mid) < target_bits:
            lo = mid
        else:
            hi = mid


def shift_register_chain(target_bits: float) -> np.ndarray:
    """4-state chain with analytic entropy rate ``target_bits``.

    Row i puts mass 1-3q on state (i+1) mod 4 and q on each of the three
    remaining states (including staying put); the
    matrix is doubly stochastic, so the stationary distribution is uniform
    and the entropy rate equals the row entropy.  q is solved by bisection.
    """
    if not 0.0 <= target_bits <= 2.0:
        raise ValueError("target must be in [0, 2] bits")
    if target_bits == 0.0:
        q = 0.0
    elif target_bits == 2.0:
        q = 0.25  # the row entropy is flat at 1/4, so bisection stops short
    else:
        q = _cycle_q(target_bits)
    t = np.full((4, 4), q)
    for i in range(4):
        t[i, (i + 1) % 4] = 1.0 - 3.0 * q
    # renormalize exactly against float error
    t /= t.sum(axis=1, keepdims=True)
    return t
