"""Gaussian-KDE permutation test of density equality for entropy-rate samples.

The equality test smooths both samples with one pooled bandwidth (reference
bands are meaningless if the two curves are smoothed differently), measures
the integrated squared difference between the curves, and calibrates it by
shuffling group labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EqualityTestResult", "density_equality_test"]

GRID_POINTS = 512
DEFAULT_PERMUTATIONS = 1000
# permutations drawn and scored at once: bounds the test's memory, whatever the count
PERMUTATION_BLOCK = 1000

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class EqualityTestResult:
    p_value: float
    statistic: float
    grid: np.ndarray
    density_a: np.ndarray
    density_b: np.ndarray
    reference_band_low: np.ndarray
    reference_band_high: np.ndarray
    num_permutations: int


def _reference_bandwidth(samples: np.ndarray) -> float:
    """Normal-reference rule h = 0.9 * min(sd, IQR/1.34) * n^(-1/5)."""
    n = len(samples)
    sd = float(np.std(samples, ddof=1))
    # np.percentile's linear quartiles, bit for bit, without its import of numpy.ma
    index = (n - 1) * np.array([0.75, 0.25])
    low, ordered = index.astype(int), np.sort(samples)
    t, a, b = index - low, ordered[low], ordered[low + 1]
    q75, q25 = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * n ** (-0.2)


def _kernel_matrix(samples: np.ndarray, grid: np.ndarray, h: float) -> np.ndarray:
    """Row i = Gaussian kernel at samples[i] evaluated on the grid."""
    z = (grid[None, :] - samples[:, None]) / h
    return np.exp(-0.5 * z * z) / (h * _SQRT_2PI)


def density_equality_test(
    a,
    b,
    num_permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> EqualityTestResult:
    """Permutation test of density equality via integrated squared difference.

    The reference band is pooled density +/- 2 pointwise permutation
    standard errors; under the null both sample densities sit inside it.
    """
    xa = np.asarray(list(a), dtype=float)
    xb = np.asarray(list(b), dtype=float)
    if len(xa) < 5 or len(xb) < 5:
        raise ValueError("need at least 5 samples per group")
    if num_permutations < 1:
        raise ValueError("num_permutations must be >= 1")
    pooled = np.concatenate([xa, xb])
    if np.ptp(pooled) == 0:
        raise ValueError("degenerate samples: every value is equal")
    h = _reference_bandwidth(pooled)
    if h <= 0:
        raise ValueError("degenerate samples: zero bandwidth")
    grid = np.linspace(pooled.min() - 3 * h, pooled.max() + 3 * h, GRID_POINTS)
    kern = _kernel_matrix(pooled, grid, h)  # (n_pool, grid)
    na = len(xa)
    n_pool = len(pooled)
    trap = np.convolve(np.diff(grid), [0.5, 0.5])  # the trapezoid rule's weights
    gram = (kern * trap) @ kern.T  # kern diag(trap) kern^T

    rng = np.random.default_rng(seed)
    hits = 0
    pair_counts = np.zeros((n_pool, n_pool))  # permutations labelling both samples a
    for start in range(0, num_permutations, PERMUTATION_BLOCK):
        rows = min(PERMUTATION_BLOCK, num_permutations - start)
        perms = rng.permuted(np.tile(np.arange(n_pool), (rows, 1)), axis=1)
        # row 0 is the observed labelling, rows 1.. the label permutations
        masks = np.zeros((rows + 1, n_pool), dtype=bool)
        masks[0, :na] = True
        np.put_along_axis(masks[1:], perms[:, :na], True, axis=1)
        # fa - fb = weights @ kern, so a labelling's trapezoid ISD is weights @ gram @ weights;
        # one vector-matrix product per row gives each row the same bits in any block
        weights = np.where(masks, 1.0 / na, -1.0 / (n_pool - na))
        stats = np.sum((weights[:, None, :] @ gram)[:, 0, :] * weights, axis=1)
        hits += int(np.sum(stats[1:] >= stats[0]))
        pair_counts += masks[1:].T @ masks[1:].astype(float)
    pooled_density = kern.mean(axis=0)
    # pointwise variance over permutations of fa = mask @ kern / na, from the
    # labels' covariance; the counts are exact, so no block order changes it
    counts = np.diag(pair_counts)
    cov = (num_permutations * pair_counts - np.outer(counts, counts)) / num_permutations**2
    se = np.sqrt(np.maximum(np.sum(cov @ kern * kern, axis=0), 0.0)) / na
    return EqualityTestResult(
        p_value=(1 + hits) / (num_permutations + 1),
        statistic=float(stats[0]),  # row 0, the observed labelling, is the same in every block
        grid=grid,
        density_a=kern[:na].mean(axis=0),
        density_b=kern[na:].mean(axis=0),
        reference_band_low=pooled_density - 2 * se,
        reference_band_high=pooled_density + 2 * se,
        num_permutations=num_permutations,
    )
