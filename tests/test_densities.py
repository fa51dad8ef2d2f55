import numpy as np
import pytest

from entrokit import densities
from entrokit.densities import (
    GRID_POINTS,
    _kernel_matrix,
    _reference_bandwidth,
    density_equality_test,
)


def looped_equality_test(xa, xb, num_permutations, seed):
    """Reference: one masked mean per permutation, as (p, statistic, fa, fb, se)."""
    pooled = np.concatenate([xa, xb])
    h = _reference_bandwidth(pooled)
    grid = np.linspace(pooled.min() - 3 * h, pooled.max() + 3 * h, GRID_POINTS)
    kern = _kernel_matrix(pooled, grid, h)

    def stat(mask):
        fa, fb = kern[mask].mean(axis=0), kern[~mask].mean(axis=0)
        return float(np.trapezoid((fa - fb) ** 2, grid)), fa, fb

    observed_mask = np.arange(len(pooled)) < len(xa)
    observed, fa, fb = stat(observed_mask)
    rng = np.random.default_rng(seed)
    stats, densities = [], []
    for _ in range(num_permutations):
        mask = np.zeros(len(pooled), dtype=bool)
        mask[rng.permutation(len(pooled))[: len(xa)]] = True
        s, da, _ = stat(mask)
        stats.append(s)
        densities.append(da)
    p = (1 + sum(s >= observed for s in stats)) / (num_permutations + 1)
    return p, observed, fa, fb, np.std(densities, axis=0)


def matrix_equality_test(xa, xb, num_permutations, seed):
    """Reference: every labelling's two density curves, and the ISD by the trapezoid rule.

    Returns (p, statistic, fa, fb, se) like ``looped_equality_test``.
    """
    pooled = np.concatenate([xa, xb])
    h = _reference_bandwidth(pooled)
    grid = np.linspace(pooled.min() - 3 * h, pooled.max() + 3 * h, GRID_POINTS)
    kern = _kernel_matrix(pooled, grid, h)
    na, n_pool = len(xa), len(pooled)
    rng = np.random.default_rng(seed)
    masks = np.zeros((num_permutations + 1, n_pool), dtype=bool)
    masks[0, :na] = True
    for row in masks[1:]:
        row[rng.permutation(n_pool)[:na]] = True
    fa = masks @ kern / na
    fb = ~masks @ kern / (n_pool - na)
    stats = np.trapezoid((fa - fb) ** 2, grid, axis=1)
    p = (1 + int(np.sum(stats[1:] >= stats[0]))) / (num_permutations + 1)
    return p, float(stats[0]), fa[0], fb[0], fa[1:].std(axis=0)


def percentile_bandwidth(samples):
    """Reference: the normal-reference rule with ``np.percentile``'s quartiles."""
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = float(q75 - q25)
    sd = float(np.std(samples, ddof=1))
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * len(samples) ** (-0.2)


class TestReferenceBandwidth:
    def test_matches_percentile(self):
        """Bit for bit on 10 to 400 samples: rounded ones (ties, a zero IQR) and heavy-tailed
        ones (the IQR below the sd) among them."""
        rng = np.random.default_rng(0)
        branches = set()
        for i in range(600):
            n = int(rng.integers(10, 401))
            x = rng.standard_t(1 + i % 10, n) * rng.uniform(0.01, 2)
            if i % 3 == 0:
                x = np.round(x, 2)
            expected = percentile_bandwidth(x)
            assert _reference_bandwidth(x) == expected, (i, n)
            branches.add(expected == 0.9 * float(np.std(x, ddof=1)) * n ** (-0.2))
        assert branches == {True, False}


class TestDensityEqualityTest:
    def test_identical_samples(self):
        x = np.random.default_rng(3).standard_normal(60)
        result = density_equality_test(x, x, num_permutations=99, seed=0)
        assert result.statistic == pytest.approx(0.0, abs=1e-15)
        assert result.p_value == 1.0

    def test_disjoint_support_rejects(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(200)
        b = rng.standard_normal(200) + 5.0
        result = density_equality_test(a, b, num_permutations=199, seed=0)
        assert result.p_value < 0.01

    def test_statistic_symmetric(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal(50), rng.normal(1, 1, 50)
        r1 = density_equality_test(a, b, num_permutations=49, seed=1)
        r2 = density_equality_test(b, a, num_permutations=49, seed=1)
        assert r1.statistic == pytest.approx(r2.statistic)

    def test_band_ordering(self):
        rng = np.random.default_rng(6)
        result = density_equality_test(
            rng.standard_normal(80), rng.standard_normal(80), num_permutations=99, seed=2
        )
        assert np.all(result.reference_band_low <= result.reference_band_high)

    def test_null_densities_inside_band(self):
        rng = np.random.default_rng(7)
        result = density_equality_test(
            rng.standard_normal(150), rng.standard_normal(150), num_permutations=199, seed=3
        )
        inside_a = np.mean(
            (result.density_a >= result.reference_band_low)
            & (result.density_a <= result.reference_band_high)
        )
        assert inside_a > 0.9

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal(40), rng.standard_normal(40)
        r1 = density_equality_test(a, b, num_permutations=99, seed=5)
        r2 = density_equality_test(a, b, num_permutations=99, seed=5)
        assert r1.p_value == r2.p_value

    def test_null_uniform_p_values(self):
        # quick calibration: fraction below alpha stays near alpha
        rejections = {0.05: 0, 0.10: 0}
        seeds = 120
        for s in range(seeds):
            rng = np.random.default_rng(9000 + s)
            result = density_equality_test(
                rng.standard_normal(60), rng.standard_normal(60),
                num_permutations=99, seed=s,
            )
            for alpha in rejections:
                rejections[alpha] += result.p_value < alpha
        for alpha, count in rejections.items():
            assert abs(count / seeds - alpha) <= 0.05

    @pytest.mark.parametrize("shift", [0.0, 0.1, 0.5])
    def test_matches_permutation_loop(self, shift):
        rng = np.random.default_rng(7)
        for _ in range(5):
            xa, xb = rng.normal(0, 1, 91), rng.normal(shift, 1, 91)
            res = density_equality_test(xa, xb, num_permutations=199, seed=3)
            p, observed, fa, fb, se = looped_equality_test(xa, xb, 199, 3)
            assert res.p_value == p
            assert res.statistic == pytest.approx(observed, rel=1e-12)
            np.testing.assert_allclose(res.density_a, fa, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(res.density_b, fb, rtol=1e-12, atol=1e-15)
            band = (res.reference_band_high - res.reference_band_low) / 4
            np.testing.assert_allclose(band, se, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("case", range(30))
    def test_matches_density_matrices(self, case):
        rng = np.random.default_rng(500 + case)
        na = int(rng.integers(5, 60))
        nb = na if case % 3 == 0 else int(rng.integers(5, 60))
        xa, xb = rng.normal(0, 1, na), rng.normal(rng.uniform(0, 1), 1, nb)
        if case % 5 == 0:  # ties in the pooled sample
            xa, xb = np.round(xa, 1), np.round(xb, 1)
        res = density_equality_test(xa, xb, num_permutations=199, seed=case)
        p, observed, fa, fb, se = matrix_equality_test(xa, xb, 199, case)
        assert res.p_value == p
        assert res.statistic == pytest.approx(observed, rel=1e-12)
        np.testing.assert_allclose(res.density_a, fa, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(res.density_b, fb, rtol=1e-12, atol=1e-15)
        band = (res.reference_band_high - res.reference_band_low) / 4
        np.testing.assert_allclose(band, se, rtol=1e-9, atol=1e-14)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            density_equality_test([1.0, 2.0], [3.0, 4.0])

    def test_no_permutations_rejected(self):
        a, b = np.arange(6.0), np.arange(6.0) + 0.5
        with pytest.raises(ValueError, match="num_permutations must be >= 1"):
            density_equality_test(a, b, num_permutations=0)

    def test_subnormal_spread_rejected(self):
        # the values differ, but their standard deviation underflows to 0
        with pytest.raises(ValueError, match="zero bandwidth"):
            density_equality_test([0.0] * 5, [0.0] * 4 + [5e-324])

    @pytest.mark.parametrize("value", [2.0, 0.1, 1.934675])
    def test_equal_values_rejected(self, value):
        # 0.1 and 1.934675 leave a rounding-sized sd, so a bandwidth above 0
        with pytest.raises(ValueError, match="every value is equal"):
            density_equality_test([value] * 6, [value] * 6)

    @pytest.mark.parametrize("case", range(6))
    def test_blocks_match_one_block(self, case, monkeypatch):
        """Permutations scored in blocks of 4 (3 blocks and 1 row) and in one block agree."""
        rng = np.random.default_rng(800 + case)
        na, nb = (5, 5) if case % 2 else (int(rng.integers(5, 40)), int(rng.integers(5, 40)))
        xa, xb = rng.normal(0, 1, na), rng.normal(rng.uniform(0, 1), 1, nb)
        if case % 3 == 0:  # ties in the pooled sample
            xa, xb = np.round(xa, 1), np.round(xb, 1)
        whole = density_equality_test(xa, xb, num_permutations=13, seed=case)
        monkeypatch.setattr(densities, "PERMUTATION_BLOCK", 4)
        blocked = density_equality_test(xa, xb, num_permutations=13, seed=case)
        assert blocked.p_value == whole.p_value
        assert blocked.statistic == whole.statistic
        np.testing.assert_allclose(blocked.reference_band_low, whole.reference_band_low, rtol=0, atol=1e-12)
        np.testing.assert_allclose(blocked.reference_band_high, whole.reference_band_high, rtol=0, atol=1e-12)
