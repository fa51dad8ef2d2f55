"""BDS test for departure from iid, built from correlation integrals.

The statistic is V_m = sqrt(N) * (C_m - C_1^m) / sigma_m with
N = n - m + 1, where C_m is the fraction of pairs of m-histories within
epsilon under the max norm and sigma_m is the asymptotic standard
deviation assembled from C = C_1 and the triple statistic K:

    sigma_m^2 = 4 * [ K^m + 2*sum_{j=1}^{m-1} K^{m-j} C^{2j}
                      + (m-1)^2 C^{2m} - m^2 K C^{2m-2} ]

V_m is asymptotically standard Normal under iid.  The test runs on raw
real-valued log returns, not on discretized symbols.

Every count is an exact integer, so C_m, C_1, C and K follow as exact
integer ratios and every count path gives bit-identical floats.

One stable sort gives every neighbourhood (Kanzler 1999): the points within
epsilon of x_s form one run [lo_s, hi_s) of sorted positions, found with the
same float test as the pair matrix.  The run widths are the neighbour counts
behind C and K, and the embedded points in each run give the single-point
pairs behind C_1, in O(n log n) time at every m.  The m-history pairs behind
C_m are counted one of three ways:

- m = 1: they are the single-point pairs.
- m = 2 (the default): a pair of 2-histories is a point (rank x_t,
  rank x_{t+1}) inside the rectangle [lo_s, hi_s) x [lo_{s+1}, hi_{s+1}),
  and all n rectangles are counted offline by descending a wavelet matrix
  over the successor ranks.  Time is O(n log n), memory O(n).
- m >= 3: tiles (LeBaron 1997).  One pass over the upper triangle of the
  pair matrix |x_s - x_t| <= epsilon, BLOCK embedded rows at a time, ANDs
  the m shifted indicators.  Time is O(n^2 / 2) comparisons, memory
  O(BLOCK * n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BdsParams",
    "BdsResult",
    "correlation_integral",
    "bds_statistic",
    "entropy_bds_association",
]

MIN_LENGTH = 50  # asymptotic validity floor
BLOCK = 128  # rows per pair-counting tile: memory is O(BLOCK * n)
QUERY_CHUNK = 1 << 16  # rank-path queries moved down each level at a time


@dataclass(frozen=True)
class BdsParams:
    embedding_m: int = 2
    epsilon_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if not 2 <= self.embedding_m <= 10:
            raise ValueError(f"embedding_m must be in [2, 10], got {self.embedding_m}")
        if not (math.isfinite(self.epsilon_multiplier) and self.epsilon_multiplier > 0):
            raise ValueError(
                f"epsilon_multiplier must be finite and positive, got {self.epsilon_multiplier}"
            )


@dataclass(frozen=True)
class BdsResult:
    statistic: float
    p_value: float
    c_m: float
    c_1: float
    params: BdsParams
    n: int


def _bisect(test, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest j in [a, b] with ``test(j)``, element-wise.

    ``test`` is monotone (false, then true) on each interval and holds at b.
    """
    while np.any(a < b):
        mid = (a + b) // 2
        hit = test(mid) | (a >= b)  # a finished interval stays where it is
        b = np.where(hit, mid, b)
        a = np.where(hit, a, mid + 1)
    return a


def _neighbour_ranges(
    x: np.ndarray, v: np.ndarray, rank: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per point s, the run [lo_s, hi_s) of sorted positions j with
    ``abs(x_s - v_j) <= epsilon``, the float test of the pair matrix.

    fl(x_s - v_j) is monotone in v_j because rounding is monotone, so the run
    is contiguous and holds rank_s.  The shifted bounds x_s -+ epsilon may
    miss the test by an ulp; the points whose edge disagrees are bisected.
    """
    n = len(v)
    # sentinels: sorted position -1 and n fail the test for every finite x_s
    padded = np.concatenate(([-np.inf], v, [np.inf]))

    def near(xs, j):
        return np.abs(xs - padded[j + 1]) <= epsilon

    lo = np.searchsorted(v, x - epsilon, "left")
    hi = np.searchsorted(v, x + epsilon, "right")
    # lo_s is the first j in [0, rank_s] that passes
    bad = np.flatnonzero(~near(x, lo) | near(x, lo - 1))
    if len(bad):
        xs = x[bad]
        lo[bad] = _bisect(lambda j: near(xs, j), np.zeros_like(bad), rank[bad])
    # hi_s is the first j in (rank_s, n] that fails
    bad = np.flatnonzero(~near(x, hi - 1) | near(x, hi))
    if len(bad):
        xs = x[bad]
        hi[bad] = _bisect(lambda j: ~near(xs, j), rank[bad] + 1, np.full_like(bad, n))
    return lo, hi


def _count_in_boxes(
    y: np.ndarray, lo: np.ndarray, hi: np.ndarray, c_lo: np.ndarray, c_hi: np.ndarray
) -> int:
    """Sum over queries q of #{i in [lo_q, hi_q) : c_lo_q <= y_i < c_hi_q}.

    A wavelet matrix over y, built and descended one bit level at a time so
    that only the current level is held: each level is a stable 0/1
    partition of y by that bit with a prefix count of its zeros, and each
    query range moves into the zeros or the ones by gathers alone.  The
    queries go down QUERY_CHUNK at a time, which bounds the temporaries.
    """
    caps = np.stack((c_hi, c_lo))
    # [cap, start/end, query]: the range each cap's descent has reached
    ranges = np.stack((np.stack((lo, hi)), np.stack((lo, hi))))
    below = np.zeros(2, dtype=np.int64)  # counts below c_hi and below c_lo
    zeros_before = np.zeros(len(y) + 1, dtype=np.intp)
    cur = y
    for level in reversed(range(int(y.max()).bit_length())):
        bit = 1 << level
        ones = (cur & bit).astype(bool)
        zeros = ~ones
        np.add.accumulate(zeros, dtype=np.intp, out=zeros_before[1:])
        n_zeros = zeros_before[-1]
        for a in range(0, len(lo), QUERY_CHUNK):
            part = ranges[:, :, a : a + QUERY_CHUNK]
            z = zeros_before[part]
            up = (caps[:, a : a + QUERY_CHUNK] & bit).astype(bool)
            # where the cap has a one, every zero in the range is below it
            below += ((z[:, 1] - z[:, 0]) * up).sum(axis=1)
            part[...] = np.where(up[:, None], part + (n_zeros - z), z)
        cur = np.concatenate((cur[zeros], cur[ones]))
    return int(below[0] - below[1])


def _history_pairs(x: np.ndarray, epsilon: float, m: int) -> int:
    """Pairs s < t < N = n - m + 1 of m-histories within epsilon under the max norm.

    One pass over the upper triangle of the pair matrix ``|x_s - x_t| <=
    epsilon``, BLOCK embedded rows at a time (LeBaron 1997): a tile holds rows
    [a, a + BLOCK + m - 1) against columns [a, n), and a pair of m-histories
    is the AND of its m diagonally shifted indicators.
    """
    n_emb = len(x) - m + 1
    pairs = 0
    for a in range(0, n_emb, BLOCK):
        rows = min(BLOCK, n_emb - a)
        cols = n_emb - a
        diff = x[a : a + rows + m - 1, None] - x[None, a:]
        tile = np.abs(diff, out=diff) <= epsilon
        near = tile[:rows, :cols] & tile[1 : 1 + rows, 1 : 1 + cols]
        for k in range(2, m):
            near &= tile[k : k + rows, k : k + cols]
        # the square left of the rectangle holds each pair twice, plus the diagonal
        pairs += (np.count_nonzero(near[:, :rows]) - rows) // 2
        pairs += np.count_nonzero(near[:, rows:])
    return int(pairs)


def _counts(x: np.ndarray, epsilon: float, m: int) -> tuple[int, int, np.ndarray]:
    """``(pairs_m, pairs_1, deg)`` of ``|x_s - x_t| <= epsilon``.

    The pairs s < t < N = n - m + 1 of m-histories within epsilon under the
    max norm, the pairs s < t < N of single points within epsilon, and each
    point's number of neighbours within epsilon among all n points, itself
    excluded.  One sort gives every point's run of neighbours; the m-history
    pairs come from the runs at m <= 2 and from the tiles at m >= 3.
    """
    n = len(x)
    n_emb = n - m + 1
    order = np.argsort(x, kind="stable")
    v = x[order]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    lo, hi = _neighbour_ranges(x, v, rank, epsilon)
    deg = (hi - lo).astype(np.int64) - 1
    # embedded[j]: the points s < N at sorted positions [0, j); each s's run holds s itself
    embedded = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(order < n_emb, out=embedded[1:])
    pairs_1 = (int((embedded[hi[:n_emb]] - embedded[lo[:n_emb]]).sum()) - n_emb) // 2
    if m == 1:
        return pairs_1, pairs_1, deg
    if m > 2:
        return _history_pairs(x, epsilon, m), pairs_1, deg
    # pairs s < t of 2-histories are the t whose rank lies in [lo_s, hi_s) and whose
    # successor's rank lies in [lo_{s+1}, hi_{s+1}): summed over s < N this counts
    # each pair twice and each s once with itself
    succ = np.full(n, n, dtype=np.intp)  # n (no rank) for the last point
    succ[rank[:-1]] = rank[1:]
    in_boxes = _count_in_boxes(succ, lo[:-1], hi[:-1], lo[1:], hi[1:])
    return (in_boxes - n_emb) // 2, pairs_1, deg


def _require_finite(x: np.ndarray) -> None:
    # a NaN fails every pair test and an inf makes the sample sd non-finite
    if not np.all(np.isfinite(x)):
        raise ValueError("series holds NaN or infinite values")


def correlation_integral(values: np.ndarray, m: int, epsilon: float) -> float:
    """C_{m}(eps): fraction of m-history pairs within eps under the max norm."""
    x = np.asarray(values, float)
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    if len(x) < m + 1:
        raise ValueError(f"need at least {m + 1} observations, got {len(x)}")
    _require_finite(x)
    n_emb = len(x) - m + 1
    pairs_m, _, _ = _counts(x, epsilon, m)
    return pairs_m / (n_emb * (n_emb - 1) / 2)


def bds_statistic(values: np.ndarray, params: BdsParams = BdsParams()) -> BdsResult:
    """BDS statistic with epsilon = epsilon_multiplier * sample std.

    On bare returns the only constant series it can tell is one of equal
    values: returns that differ only by rounding (a price path growing at a
    fixed rate) give a rounding-sized epsilon and a confident rejection.  How
    large that rounding is depends on the log prices, which the caller holds;
    the pipeline fails such series before they reach BDS.
    """
    x = np.asarray(values, float)
    n = len(x)
    m = params.embedding_m
    if n < MIN_LENGTH:
        raise ValueError(f"need at least {MIN_LENGTH} observations, got {n}")
    _require_finite(x)
    if np.ptp(x) == 0:  # np.std of equal values can round to a tiny nonzero
        raise ValueError("zero-variance series")
    sd = float(np.std(x, ddof=1))
    epsilon = params.epsilon_multiplier * sd
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon = {params.epsilon_multiplier} * {sd} is not finite")

    pairs_m, pairs_1, deg = _counts(x, epsilon, m)
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
