import math

import numpy as np
import pytest

from entrokit.synth import (
    SyntheticSource,
    convergence_curve,
    generate,
    markov_entropy_rate,
    shift_register_chain,
    stationary_distribution,
)


def loop_generate(source, n):
    """Oracle: the Markov chain stepped by one ``np.searchsorted`` per symbol."""
    rng = np.random.default_rng(source.seed)
    t = np.asarray(source.transition, dtype=float)
    cdf = np.cumsum(t, axis=1)
    u = rng.random(n)
    state = int(np.searchsorted(np.cumsum(stationary_distribution(t)), u[0]))
    symbols = [state]
    for i in range(1, n):
        state = int(np.searchsorted(cdf[state], u[i]))
        symbols.append(state)
    return np.array(symbols, dtype=np.int64)


def _sticky(k, stay):
    t = np.full((k, k), (1.0 - stay) / (k - 1))
    np.fill_diagonal(t, stay)
    return t


class TestGenerate:
    def test_constant(self):
        symbols = generate(SyntheticSource(kind="constant", alphabet_size=4), 5)
        assert symbols.dtype == np.int64
        assert symbols.tolist() == [0, 0, 0, 0, 0]

    def test_uniform_frequencies(self):
        symbols = generate(
            SyntheticSource(kind="uniform_iid", alphabet_size=4, seed=123), 1_000_000
        )
        assert symbols.dtype == np.int64
        counts = np.bincount(symbols, minlength=4) / len(symbols)
        assert np.all(np.abs(counts - 0.25) < 0.002)

    def test_sticky_chain_has_long_runs(self):
        t = np.full((4, 4), 0.01 / 3)
        np.fill_diagonal(t, 0.99)
        symbols = generate(
            SyntheticSource(kind="markov", alphabet_size=4, seed=5, transition=t), 2000
        )
        same = np.mean(symbols[1:] == symbols[:-1])
        assert same > 0.9

    def test_seed_determinism(self):
        src = SyntheticSource(kind="uniform_iid", alphabet_size=4, seed=77)
        assert np.array_equal(generate(src, 500), generate(src, 500))

    @pytest.mark.parametrize(
        "transition",
        [
            shift_register_chain(0.0),
            shift_register_chain(1.72),
            shift_register_chain(1.9),
            shift_register_chain(2.0),
            _sticky(2, 0.9),
            _sticky(8, 0.3),
            np.array([[0.2, 0.3, 0.5], [0.6, 0.0, 0.4], [0.1, 0.1, 0.8]]),
        ],
    )
    def test_markov_matches_searchsorted_loop(self, transition):
        for seed in (0, 1, 2, 41, 7_000_090):
            for n in (1, 2, 749, 3000):
                source = SyntheticSource(
                    kind="markov", alphabet_size=len(transition), seed=seed, transition=transition
                )
                got, want = generate(source, n), loop_generate(source, n)
                assert got.dtype == want.dtype == np.int64
                assert np.array_equal(got, want)
                assert 0 <= got.min() and got.max() < len(transition)

    def test_invalid_transition(self):
        bad = np.array([[0.5, 0.6], [0.5, 0.5]])
        with pytest.raises(ValueError):
            SyntheticSource(kind="markov", alphabet_size=2, transition=bad)
        for transition in (None, np.full((2, 4), 0.25)):
            with pytest.raises(ValueError, match="needs a square transition matrix"):
                SyntheticSource(kind="markov", alphabet_size=2, transition=transition)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown source kind 'walk'"):
            SyntheticSource(kind="walk", alphabet_size=4)

    def test_no_symbols_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            generate(SyntheticSource(kind="uniform_iid", alphabet_size=4), 0)


class TestMarkovEntropyRate:
    def test_uniform_transition(self):
        t = np.full((4, 4), 0.25)
        assert markov_entropy_rate(t) == pytest.approx(2.0)

    def test_permutation_matrix(self):
        t = np.eye(4)[[1, 2, 3, 0]]
        assert markov_entropy_rate(t) == pytest.approx(0.0)

    def test_binary_symmetric_chain(self):
        t = np.array([[0.9, 0.1], [0.1, 0.9]])
        h = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))
        assert markov_entropy_rate(t) == pytest.approx(h, abs=1e-9)
        assert h == pytest.approx(0.4690, abs=1e-4)

    def test_reducible_rejected(self):
        t = np.eye(4)
        with pytest.raises(ValueError, match="reducible"):
            markov_entropy_rate(t)

    def test_stationary_distribution_fixed_point(self):
        t = shift_register_chain(1.2)
        mu = stationary_distribution(t)
        assert np.allclose(mu @ t, mu, atol=1e-12)
        assert np.allclose(mu, 0.25, atol=1e-9)  # doubly stochastic


def _row_entropy(q):
    p = 1.0 - 3.0 * q
    return -sum(v * math.log2(v) for v in (p, q, q, q) if v > 0)


TARGETS = [1e-9, 1e-6, 0.01, 0.25, 0.5, 0.8, 1.0, 1.2, 1.5, 1.72, 1.9, 1.99, 2 - 1e-6, 2 - 1e-9]


class TestShiftRegisterChain:
    @pytest.mark.parametrize("target", TARGETS + [0.0, 2.0])
    def test_hits_target(self, target):
        t = shift_register_chain(target)
        assert markov_entropy_rate(t) == pytest.approx(target, abs=1e-12)

    @pytest.mark.parametrize("target", TARGETS + np.linspace(0.005, 1.995, 100).tolist())
    def test_root_matches_brentq(self, target):
        from scipy.optimize import brentq

        root = brentq(lambda v: _row_entropy(v) - target, 1e-15, 0.25)
        assert abs(shift_register_chain(target)[0, 0] - root) <= 1e-12

    def test_endpoints(self):
        assert np.array_equal(shift_register_chain(0.0), np.roll(np.eye(4), 1, axis=1))
        assert np.array_equal(shift_register_chain(2.0), np.full((4, 4), 0.25))

    @pytest.mark.parametrize("target", [-1e-9, 2 + 1e-9, float("nan"), float("inf")])
    def test_out_of_range_rejected(self, target):
        with pytest.raises(ValueError):
            shift_register_chain(target)

    def test_rows_stochastic(self):
        t = shift_register_chain(0.8)
        assert np.allclose(t.sum(axis=1), 1.0, atol=1e-12)


class TestConvergenceCurve:
    def test_constant_source_decreasing(self):
        curve = convergence_curve(
            SyntheticSource(kind="constant", alphabet_size=4),
            [100, 1000, 10000],
            trials=2,
            ctw_depth=10,
        )
        assert curve.true_entropy == 0.0
        assert list(curve.estimates_lz) == sorted(curve.estimates_lz, reverse=True)
        assert list(curve.estimates_ctw) == sorted(curve.estimates_ctw, reverse=True)

    def test_uniform_ctw_above_lz(self):
        curve = convergence_curve(
            SyntheticSource(kind="uniform_iid", alphabet_size=4, seed=0),
            [4000],
            trials=3,
            ctw_depth=16,
        )
        assert curve.true_entropy == 2.0
        assert curve.estimates_ctw[0] >= curve.estimates_lz[0]

    def test_markov_true_entropy(self):
        transition = shift_register_chain(1.5)
        curve = convergence_curve(
            SyntheticSource(kind="markov", alphabet_size=4, seed=3, transition=transition),
            [200, 2000],
            trials=2,
            ctw_depth=8,
        )
        assert curve.true_entropy == markov_entropy_rate(transition)
        assert curve.sizes == (200, 2000)
        assert all(0 < h < 2.2 for h in curve.estimates_lz + curve.estimates_ctw)

    def test_invalid_sizes(self):
        src = SyntheticSource(kind="constant", alphabet_size=4)
        with pytest.raises(ValueError):
            convergence_curve(src, [5, 100], trials=1)
        with pytest.raises(ValueError):
            convergence_curve(src, [100, 100], trials=1)
