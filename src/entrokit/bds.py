"""BDS test for departure from iid, built from correlation integrals.

The statistic is V_m = sqrt(N) * (C_m - C_1^m) / sigma_m with
N = n - m + 1, where C_m is the fraction of pairs of m-histories within
epsilon under the max norm and sigma_m is the asymptotic standard
deviation assembled from C = C_1 and the triple statistic K:

    sigma_m^2 = 4 * [ K^m + 2*sum_{j=1}^{m-1} K^{m-j} C^{2j}
                      + (m-1)^2 C^{2m} - m^2 K C^{2m-2} ]

V_m is asymptotically standard Normal under iid.  The test runs on raw
real-valued log returns, not on discretized symbols.
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


def _indicator_matrix(x: np.ndarray, epsilon: float) -> np.ndarray:
    return np.abs(x[:, None] - x[None, :]) <= epsilon


def _embedded_indicators(ind: np.ndarray, m: int) -> np.ndarray:
    """AND of the m diagonally shifted pair indicators: shape (N, N)."""
    out = ind
    for k in range(1, m):
        out = out[:-1, :-1] & ind[k:, k:]
    return out


def _pair_fraction(ind: np.ndarray) -> float:
    n = ind.shape[0]
    if n < 2:
        raise ValueError("need at least 2 embedded vectors")
    pairs = (int(ind.sum()) - n) // 2  # drop the diagonal, count s < t once
    return pairs / (n * (n - 1) / 2)


def correlation_integral(values: ReturnSeries | np.ndarray, m: int, epsilon: float) -> float:
    """C_{m}(eps): fraction of m-history pairs within eps under the max norm."""
    x = values.as_array() if isinstance(values, ReturnSeries) else np.asarray(values, float)
    if m < 1:
        raise ValueError("m must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if len(x) < m + 1:
        raise ValueError(f"need at least {m + 1} observations, got {len(x)}")
    ind = _indicator_matrix(x, epsilon)
    return _pair_fraction(_embedded_indicators(ind, m))


def _triple_k(ind: np.ndarray) -> float:
    """Average over ordered triples of chained pair indicators."""
    n = ind.shape[0]
    deg = ind.sum(axis=1) - 1  # neighbors, excluding self
    paths = float(np.sum(deg * (deg - 1)))  # ordered 2-paths through each center
    return paths / (n * (n - 1) * (n - 2))


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

    ind = _indicator_matrix(x, epsilon)
    n_emb = n - m + 1
    c_m = _pair_fraction(_embedded_indicators(ind, m))
    # C_1 on the same effective sample as the m-histories (Kanzler's truncation)
    c_1 = _pair_fraction(ind[:n_emb, :n_emb])
    c = _pair_fraction(ind)
    k = _triple_k(ind)

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
    """Spearman rank correlation between entropy estimates and |BDS| values."""
    from scipy import stats  # deferred: importing scipy.stats dominates start-up
    h = np.asarray(list(entropies), dtype=float)
    b = np.abs(np.asarray(list(bds_stats), dtype=float))
    if len(h) != len(b):
        raise ValueError(f"length mismatch: {len(h)} vs {len(b)}")
    if len(h) < 3:
        raise ValueError("need at least 3 pairs")
    if np.ptp(h) == 0 or np.ptp(b) == 0:
        raise ValueError("rank correlation undefined for constant input")
    rho = stats.spearmanr(h, b).statistic
    return float(rho)
