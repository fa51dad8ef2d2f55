import itertools
import math
import tracemalloc

import numpy as np
import pytest

from entrokit.bds import (
    BLOCK,
    BdsParams,
    _pair_counts,
    bds_statistic,
    correlation_integral,
    entropy_bds_association,
)


def brute_force_correlation_integral(x, m, epsilon):
    n = len(x)
    vectors = [x[i : i + m] for i in range(n - m + 1)]
    count = 0
    pairs = 0
    for s, t in itertools.combinations(range(len(vectors)), 2):
        pairs += 1
        if max(abs(a - b) for a, b in zip(vectors[s], vectors[t])) <= epsilon:
            count += 1
    return count / pairs


# n = 2*BLOCK + m - 1 fills two tiles with m-histories and leaves a third with none
TWO_TILES = "2*BLOCK+m-1"
SIZES = [BLOCK - 1, BLOCK, BLOCK + 1, TWO_TILES, 1000]


def _size(n, m):
    return 2 * BLOCK + m - 1 if n == TWO_TILES else n


def matrix_counts(x, epsilon, m):
    """Second oracle: the pair counts read off full n x n indicator matrices.

    Returns (pairs_m, pairs_1, deg) as ``_pair_counts`` does: m-history and
    single-point pairs s < t < N = n - m + 1, and neighbours among all n.
    """
    ind = np.abs(x[:, None] - x[None, :]) <= epsilon
    n_emb = len(x) - m + 1
    emb = ind
    for k in range(1, m):  # AND of the m diagonally shifted indicators
        emb = emb[:-1, :-1] & ind[k:, k:]
    pairs_m = (int(emb.sum()) - n_emb) // 2  # drop the diagonal, count s < t once
    pairs_1 = (int(ind[:n_emb, :n_emb].sum()) - n_emb) // 2
    return pairs_m, pairs_1, ind.sum(axis=1) - 1


def matrix_bds(x, params):
    """(statistic, p_value, c_m, c_1) from the full matrices, term by term."""
    n, m = len(x), params.embedding_m
    epsilon = params.epsilon_multiplier * float(np.std(x, ddof=1))
    pairs_m, pairs_1, deg = matrix_counts(x, epsilon, m)
    n_emb = n - m + 1
    c_m = pairs_m / (n_emb * (n_emb - 1) / 2)
    c_1 = pairs_1 / (n_emb * (n_emb - 1) / 2)
    c = (int(deg.sum()) // 2) / (n * (n - 1) / 2)
    k = float(np.sum(deg * (deg - 1))) / (n * (n - 1) * (n - 2))
    tail = sum(k ** (m - j) * c ** (2 * j) for j in range(1, m))
    var = 4.0 * (k**m + 2.0 * tail + (m - 1) ** 2 * c ** (2 * m) - m**2 * k * c ** (2 * m - 2))
    statistic = float(np.sqrt(n_emb) * (c_m - c_1**m) / np.sqrt(var))
    return statistic, math.erfc(abs(statistic) / math.sqrt(2.0)), c_m, c_1


class TestCorrelationIntegral:
    def test_constant_series(self):
        x = np.zeros(20)
        assert correlation_integral(x, 2, 0.5) == 1.0

    def test_two_level_series(self):
        assert correlation_integral(np.array([0.0, 10.0, 0.0, 10.0]), 1, 1.0) == pytest.approx(1 / 3)

    def test_epsilon_larger_than_range(self):
        x = np.random.default_rng(0).normal(size=30)
        assert correlation_integral(x, 1, np.ptp(x) + 1) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for n in (20, 50, 200):
            x = rng.standard_normal(n)
            for m in (1, 2, 3):
                eps = 0.7 * x.std()
                assert correlation_integral(x, m, eps) == pytest.approx(
                    brute_force_correlation_integral(list(x), m, eps), abs=1e-12
                )

    def test_monotone_in_epsilon(self):
        x = np.random.default_rng(2).standard_normal(80)
        values = [correlation_integral(x, 2, e) for e in (0.2, 0.5, 1.0, 2.0)]
        assert values == sorted(values)

    def test_nonincreasing_in_m(self):
        x = np.random.default_rng(3).standard_normal(80)
        values = [correlation_integral(x, m, 1.0) for m in (1, 2, 3, 4)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", SIZES)
    def test_tiled_counts_match_matrices(self, n):
        rng = np.random.default_rng(11)
        for m in range(2, 11):
            size = _size(n, m)
            # integers put many pairs exactly at epsilon; one decimal gives ties
            inputs = [
                (rng.integers(-4, 5, size).astype(float), 2.0),
                (np.round(rng.standard_normal(size), 1), 0.5),
                (rng.standard_normal(size), 0.7),
            ]
            for x, eps in inputs:
                pairs_m, pairs_1, deg = _pair_counts(x, eps, m)
                ref_m, ref_1, ref_deg = matrix_counts(x, eps, m)
                assert (pairs_m, pairs_1) == (ref_m, ref_1)
                np.testing.assert_array_equal(deg, ref_deg)
                n_emb = size - m + 1
                assert correlation_integral(x, m, eps) == ref_m / (n_emb * (n_emb - 1) / 2)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            correlation_integral(np.arange(10.0), 2, 0.0)


class TestBdsStatistic:
    def test_periodic_series_rejects(self):
        x = np.array([1.0, 2.0] * 50)
        result = bds_statistic(x, BdsParams(2, 1.0))
        assert abs(result.statistic) > 5
        # the correlation integrals behind it match the brute force exactly
        eps = x.std(ddof=1)
        assert result.c_m == pytest.approx(
            brute_force_correlation_integral(list(x), 2, eps), abs=1e-12
        )

    def test_ar_process_rejects(self):
        rng = np.random.default_rng(8)
        e = rng.standard_normal(1000) * 0.1
        x = np.empty(1000)
        x[0] = e[0]
        for i in range(1, 1000):
            x[i] = 0.95 * x[i - 1] + e[i]
        assert abs(bds_statistic(x).statistic) > 5

    def test_iid_mostly_accepts(self):
        stats = [
            bds_statistic(np.random.default_rng(100 + s).standard_normal(500)).statistic
            for s in range(30)
        ]
        assert np.mean(np.abs(stats) < 1.96) > 0.8

    def test_affine_invariance(self):
        x = np.random.default_rng(5).standard_normal(300)
        a = bds_statistic(x, BdsParams(2, 1.0)).statistic
        b = bds_statistic(3.5 * x - 2.0, BdsParams(2, 1.0)).statistic
        assert a == pytest.approx(b, abs=1e-10)

    def test_p_value_consistent_with_normal_tail(self):
        from scipy import stats as sps

        res = bds_statistic(np.random.default_rng(6).standard_normal(200))
        assert res.p_value == pytest.approx(2 * sps.norm.sf(abs(res.statistic)))

    @pytest.mark.parametrize("n", SIZES)
    def test_bit_identical_to_matrices(self, n):
        rng = np.random.default_rng(12)
        for m in range(2, 11):
            size = _size(n, m)
            for x in (np.round(rng.standard_normal(size), 1), rng.standard_normal(size)):
                for multiplier in (0.5, 1.0, 2.0):
                    params = BdsParams(m, multiplier)
                    res = bds_statistic(x, params)
                    assert (res.statistic, res.p_value, res.c_m, res.c_1) == matrix_bds(x, params)

    def test_memory_is_linear_in_n(self):
        x = np.random.default_rng(13).standard_normal(5000)
        tracemalloc.start()
        try:
            bds_statistic(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20  # one n x n float matrix alone is 200 MB

    def test_too_short(self):
        with pytest.raises(ValueError):
            bds_statistic(np.arange(20.0))

    def test_zero_variance(self):
        with pytest.raises(ValueError):
            bds_statistic(np.ones(100))


class TestEntropyBdsAssociation:
    def test_perfect_monotone_decreasing(self):
        h = [1.0, 2.0, 3.0, 4.0]
        b = [8.0, 6.0, 4.0, 2.0]
        assert entropy_bds_association(h, b) == pytest.approx(-1.0)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            entropy_bds_association([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            entropy_bds_association([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_matches_scipy_spearman(self):
        from scipy import stats as sps

        rng = np.random.default_rng(14)
        for trial in range(300):
            k = int(rng.integers(3, 60))
            # integer draws give heavy ties on one side, both or neither
            h = rng.integers(0, 4, k).astype(float) if trial % 2 else rng.standard_normal(k)
            b = rng.integers(-3, 4, k).astype(float) if trial % 3 else rng.standard_normal(k)
            if np.ptp(h) == 0 or np.ptp(np.abs(b)) == 0:
                continue
            expected = sps.spearmanr(h, np.abs(b)).statistic
            assert entropy_bds_association(h, b) == pytest.approx(expected, abs=1e-12)

    def test_uses_absolute_bds(self):
        h = [1.0, 2.0, 3.0, 4.0]
        b = [-8.0, 6.0, -4.0, 2.0]  # |b| is monotone decreasing
        assert entropy_bds_association(h, b) == pytest.approx(-1.0)
