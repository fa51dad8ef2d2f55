"""BDS test for departure from iid, built from correlation integrals.

The statistic is V_m = sqrt(N) * (C_m - C_1^m) / sigma_m with
N = n - m + 1, where C_m is the fraction of pairs of m-histories within
epsilon under the max norm and sigma_m is the asymptotic standard
deviation assembled from C = C_1 and the triple statistic K:

    sigma_m^2 = 4 * [ K^m + 2*sum_{j=1}^{m-1} K^{m-j} C^{2j}
                      + (m-1)^2 C^{2m} - m^2 K C^{2m-2} ]

V_m is asymptotically standard Normal under iid.  The test runs on raw
real-valued log returns, not on discretized symbols.

Every count comes from one pass over the upper triangle of the pair
matrix |x_s - x_t| <= epsilon, BLOCK rows at a time (Kanzler 1999): each
tile yields its share of the m-history pairs, the single-point pairs and
every point's neighbour count, from which C_m, C_1, C and K follow as
exact integer ratios.  Time is O(n^2 / 2) comparisons, memory O(BLOCK * n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import ReturnSeries

__all__ = [
    "BdsParams",
    "BdsResult",
    "correlation_integral",
    "bds_statistic",
    "entropy_bds_association",
]

MIN_LENGTH = 50  # asymptotic validity floor
BLOCK = 128  # rows per pair-counting tile: memory is O(BLOCK * n)


@dataclass(frozen=True)
class BdsParams:
    embedding_m: int = 2
    epsilon_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if not 2 <= self.embedding_m <= 10:
            raise ValueError(f"embedding_m must be in [2, 10], got {self.embedding_m}")
        if self.epsilon_multiplier <= 0:
            raise ValueError("epsilon_multiplier must be positive")


@dataclass(frozen=True)
class BdsResult:
    statistic: float
    p_value: float
    c_m: float
    c_1: float
    params: BdsParams
    n: int


def _pair_counts(x: np.ndarray, epsilon: float, m: int) -> tuple[int, int, np.ndarray]:
    """Pair counts of ``|x_s - x_t| <= epsilon``, taken BLOCK rows at a time.

    Returns ``(pairs_m, pairs_1, deg)``: the pairs s < t < N of m-histories
    within epsilon under the max norm, the pairs s < t < N of single points
    within epsilon (both on the N = n - m + 1 embedded indices), and each
    point's number of neighbours within epsilon among all n points, itself
    excluded.  Only the upper triangle is compared; a tile holds rows
    [a, b + m - 1) against columns [a, n).
    """
    n = len(x)
    n_emb = n - m + 1
    pairs_m = pairs_1 = 0
    deg = np.zeros(n, dtype=np.int64)
    for a in range(0, n, BLOCK):
        b = min(a + BLOCK, n)
        rows = b - a
        diff = x[a : b + m - 1, None] - x[None, a:]
        tile = np.abs(diff, out=diff) <= epsilon
        head = tile[:rows]
        deg[a:b] += np.count_nonzero(head, axis=1)
        deg[b:] += np.count_nonzero(head[:, rows:], axis=0)
        emb_rows = min(b, n_emb) - a
        if emb_rows <= 0:
            continue
        near_1 = tile[:emb_rows, : n_emb - a]
        near_m = near_1.copy()
        for k in range(1, m):
            near_m &= tile[k : k + emb_rows, k : k + n_emb - a]
        # the square left of the rectangle holds each pair twice, plus the diagonal
        pairs_1 += (np.count_nonzero(near_1[:, :emb_rows]) - emb_rows) // 2
        pairs_1 += np.count_nonzero(near_1[:, emb_rows:])
        pairs_m += (np.count_nonzero(near_m[:, :emb_rows]) - emb_rows) // 2
        pairs_m += np.count_nonzero(near_m[:, emb_rows:])
    deg -= 1
    return pairs_m, pairs_1, deg


def correlation_integral(values: ReturnSeries | np.ndarray, m: int, epsilon: float) -> float:
    """C_{m}(eps): fraction of m-history pairs within eps under the max norm."""
    x = values.as_array() if isinstance(values, ReturnSeries) else np.asarray(values, float)
    if m < 1:
        raise ValueError("m must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if len(x) < m + 1:
        raise ValueError(f"need at least {m + 1} observations, got {len(x)}")
    n_emb = len(x) - m + 1
    pairs_m, _, _ = _pair_counts(x, epsilon, m)
    return pairs_m / (n_emb * (n_emb - 1) / 2)


def bds_statistic(values: ReturnSeries | np.ndarray, params: BdsParams = BdsParams()) -> BdsResult:
    """BDS statistic with epsilon = epsilon_multiplier * sample std."""
    x = values.as_array() if isinstance(values, ReturnSeries) else np.asarray(values, float)
    n = len(x)
    m = params.embedding_m
    if n < MIN_LENGTH:
        raise ValueError(f"need at least {MIN_LENGTH} observations, got {n}")
    sd = float(np.std(x, ddof=1))
    if sd == 0.0:
        raise ValueError("zero-variance series")
    epsilon = params.epsilon_multiplier * sd

    pairs_m, pairs_1, deg = _pair_counts(x, epsilon, m)
    n_emb = n - m + 1
    emb_pairs = n_emb * (n_emb - 1) / 2
    c_m = pairs_m / emb_pairs
    # C_1 on the same effective sample as the m-histories (Kanzler's truncation)
    c_1 = pairs_1 / emb_pairs
    c = (int(deg.sum()) // 2) / (n * (n - 1) / 2)
    # K: average over ordered triples of chained pair indicators
    k = float(np.sum(deg * (deg - 1))) / (n * (n - 1) * (n - 2))

    tail = sum(k ** (m - j) * c ** (2 * j) for j in range(1, m))
    var = 4.0 * (
        k**m + 2.0 * tail + (m - 1) ** 2 * c ** (2 * m) - m**2 * k * c ** (2 * m - 2)
    )
    if var <= 0:
        raise ValueError("degenerate series: nonpositive BDS variance estimate")
    statistic = np.sqrt(n_emb) * (c_m - c_1**m) / np.sqrt(var)
    p_value = math.erfc(abs(statistic) / math.sqrt(2.0))  # two-sided Normal tail
    return BdsResult(
        statistic=float(statistic),
        p_value=p_value,
        c_m=float(c_m),
        c_1=float(c_1),
        params=params,
        n=n,
    )


def entropy_bds_association(entropies, bds_stats) -> float:
    """Spearman rank correlation between entropy estimates and |BDS| values.

    Ties get their average rank, as in ``scipy.stats.spearmanr``; rho is the
    Pearson correlation of the two rank vectors.
    """
    h = np.asarray(list(entropies), dtype=float)
    b = np.abs(np.asarray(list(bds_stats), dtype=float))
    if len(h) != len(b):
        raise ValueError(f"length mismatch: {len(h)} vs {len(b)}")
    if len(h) < 3:
        raise ValueError("need at least 3 pairs")
    if np.ptp(h) == 0 or np.ptp(b) == 0:
        raise ValueError("rank correlation undefined for constant input")
    ranks = []
    for v in (h, b):
        ordered = np.sort(v)
        low, high = np.searchsorted(ordered, v, "left"), np.searchsorted(ordered, v, "right")
        ranks.append((low + high + 1) / 2)
    return float(np.corrcoef(ranks[0], ranks[1])[0, 1])
