import itertools
import math

import numpy as np
import pytest

from entrokit import ctw as ctw_module
from entrokit.ctw import (
    CtwParams,
    CtwResult,
    ctw_entropy_rate,
    ctw_log_mixture,
    kt_log_probability,
    symbols_to_bits,
)


def kt_value(a, b):
    return 2.0 ** kt_log_probability(a, b)


def enumerate_suffix_sets(depth):
    """All suffix sets of depth <= ``depth``; leaves as most-recent-first strings."""
    if depth == 0:
        return [("",)]
    smaller = enumerate_suffix_sets(depth - 1)
    sets = [("",)]
    for s0 in smaller:
        for s1 in smaller:
            sets.append(tuple("0" + s for s in s0) + tuple("1" + s for s in s1))
    return sets


def prior_weight(suffix_set, depth):
    shorter = sum(1 for s in suffix_set if len(s) < depth)
    return 2.0 ** (-(len(suffix_set) + shorter - 1))


def brute_force_mixture(bits, depth):
    """Direct evaluation of the suffix-set mixture with analytic KT integrals."""
    contexts = []
    history = [bits[0]] * depth
    for bit in bits:
        contexts.append("".join(str(b) for b in history))
        if depth > 0:
            history = [bit] + history[:-1]
    total = 0.0
    for suffix_set in enumerate_suffix_sets(depth):
        prob = prior_weight(suffix_set, depth)
        for leaf in suffix_set:
            a = b = 0
            for bit, ctx in zip(bits, contexts):
                if ctx.startswith(leaf):
                    if bit == 0:
                        a += 1
                    else:
                        b += 1
            prob *= kt_value(a, b)
        total += prob
    return math.log2(total)


def _log2_avg(x, y):
    """log2((2^x + 2^y) / 2), numerically stable."""
    if x < y:
        x, y = y, x
    return x - 1.0 + math.log1p(2.0 ** (y - x)) / math.log(2.0)


class _Node:
    __slots__ = ("a", "b", "log_pe", "log_pw", "children")

    def __init__(self):
        self.a = 0
        self.b = 0
        self.log_pe = 0.0
        self.log_pw = 0.0
        self.children = [None, None]


def sequential_mixture(bits, depth):
    """Second oracle: the bit-by-bit CTW tree update, as (log2 P_w, node count).

    Each bit updates the KT estimate of every node on its context path and
    re-weights that path bottom-up; the first bit pads the context.
    """
    root = _Node()
    node_count = 1
    history = [bits[0]] * depth  # most recent first
    for bit in bits:
        path = [root]
        node = root
        for c in history:
            if node.children[c] is None:
                node.children[c] = _Node()
                node_count += 1
            node = node.children[c]
            path.append(node)
        for node in path:
            count = node.a if bit == 0 else node.b
            node.log_pe += math.log2((count + 0.5) / (node.a + node.b + 1.0))
            if bit == 0:
                node.a += 1
            else:
                node.b += 1
        path[-1].log_pw = path[-1].log_pe
        for node in reversed(path[:-1]):
            child_sum = sum(c.log_pw for c in node.children if c is not None)
            node.log_pw = _log2_avg(node.log_pe, child_sum)
        if depth > 0:
            history = [bit] + history[:-1]
    return root.log_pw, node_count


def unique_fold(bits, depth):
    """Third oracle: the per-depth ``np.unique`` fold of the final context counts.

    Bit k of a context key is the bit k+1 places before (most recent
    least significant); each shallower depth masks the keys, re-finds its
    nodes with ``np.unique`` and sums the children with ``np.bincount``.
    """
    n = len(bits)
    bit_array = np.asarray(bits, dtype=np.int64)
    lg_half = np.array([math.lgamma(k + 0.5) for k in range(n + 1)])
    lg_int = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])

    def kt(zeros, ones):
        ln = lg_half[zeros] + lg_half[ones] - lg_int[zeros + ones] - 2.0 * math.lgamma(0.5)
        return ln / math.log(2.0)

    padded = np.concatenate([np.full(depth, bit_array[0]), bit_array])
    keys = np.zeros(n, dtype=np.int64)
    for k in range(depth):
        keys |= padded[depth - 1 - k : depth - 1 - k + n] << k
    keys, inverse = np.unique(keys, return_inverse=True)
    ones = np.bincount(inverse, weights=bit_array).astype(np.int64)
    zeros = np.bincount(inverse) - ones
    log_pw = kt(zeros, ones)
    node_count = len(keys)
    for d in range(depth - 1, -1, -1):
        keys, inverse = np.unique(keys & ((1 << d) - 1), return_inverse=True)
        zeros = np.bincount(inverse, weights=zeros).astype(np.int64)
        ones = np.bincount(inverse, weights=ones).astype(np.int64)
        children = np.bincount(inverse, weights=log_pw)
        log_pw = np.logaddexp2(kt(zeros, ones), children) - 1.0
        node_count += len(keys)
    return CtwResult(float(log_pw[0]), n, node_count)


def _random_symbols(alphabet, n, seed):
    return tuple(int(s) for s in np.random.default_rng(seed).integers(0, alphabet, n))


DEGENERATE = {
    "all_zeros": (4, (0,) * 2000),
    "four_cycle": (4, (0, 1, 2, 3) * 500),
    "single_symbol": (2, (1,)),
}


class TestSymbolsToBits:
    def test_four_state_expansion(self):
        bits = symbols_to_bits((0, 1, 2, 3), 4)
        assert bits.dtype == np.int64
        assert bits.tolist() == [0, 0, 0, 1, 1, 0, 1, 1]

    def test_binary_passthrough(self):
        assert symbols_to_bits((1,), 2).tolist() == [1]

    def test_msb_first(self):
        assert symbols_to_bits((3, 0), 4).tolist() == [1, 1, 0, 0]

    def test_non_power_of_two_rejected(self):
        for alphabet in (1, 3):
            for estimate in (symbols_to_bits, ctw_entropy_rate):
                with pytest.raises(ValueError, match="re-discretize"):
                    estimate(np.zeros(4, dtype=np.int64), alphabet)

    def test_symbols_validated(self):
        # the only check of [0, A): quantile_discretize and generate return plain arrays
        bad = {
            "outside": [np.array([0, 4, 1]), np.array([0, -1, 3])],
            "1-D": [np.zeros((2, 2), dtype=np.int64)],
            "integers": [np.array([0.0, 1.5, 2.0])],
        }
        for message, inputs in bad.items():
            for symbols in inputs:
                for estimate in (symbols_to_bits, ctw_entropy_rate):
                    with pytest.raises(ValueError, match=message):
                        estimate(symbols, 4)


class TestKtProbability:
    def test_first_bit(self):
        assert kt_log_probability(1, 0) == pytest.approx(-1.0)

    def test_two_zeros(self):
        assert kt_log_probability(2, 0) == pytest.approx(math.log2(3 / 8))

    def test_one_each(self):
        assert kt_log_probability(1, 1) == pytest.approx(math.log2(1 / 8))

    def test_matches_sequential_product(self):
        # replay the (a + 1/2) / (a + b + 1) updates directly
        for a_total, b_total in [(3, 2), (0, 5), (7, 1)]:
            prob = 1.0
            a = b = 0
            for _ in range(a_total):
                prob *= (a + 0.5) / (a + b + 1)
                a += 1
            for _ in range(b_total):
                prob *= (b + 0.5) / (a + b + 1)
                b += 1
            assert kt_log_probability(a_total, b_total) == pytest.approx(math.log2(prob))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            kt_log_probability(-1, 0)


class TestCtwMixture:
    def test_single_zero_depth_zero(self):
        res = ctw_log_mixture([0], CtwParams(0))
        assert res.log2_mixture_probability == pytest.approx(-1.0)
        assert -res.log2_mixture_probability / res.n_bits == pytest.approx(1.0)

    def test_two_zeros_depth_zero(self):
        res = ctw_log_mixture([0, 0], CtwParams(0))
        assert res.log2_mixture_probability == pytest.approx(math.log2(3 / 8))
        assert -res.log2_mixture_probability / res.n_bits == pytest.approx(0.70752, abs=1e-5)

    def test_two_zeros_depth_one_enumeration(self):
        res = ctw_log_mixture([0, 0], CtwParams(1))
        assert res.log2_mixture_probability == pytest.approx(
            brute_force_mixture([0, 0], 1), abs=1e-9
        )

    def test_prior_normalizes(self):
        for depth in range(4):
            total = sum(prior_weight(s, depth) for s in enumerate_suffix_sets(depth))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_enumeration_short_strings(self):
        for depth in (0, 1, 2):
            for n in range(1, 7):
                for bits in itertools.product((0, 1), repeat=n):
                    res = ctw_log_mixture(list(bits), CtwParams(depth))
                    expected = brute_force_mixture(list(bits), depth)
                    assert res.log2_mixture_probability == pytest.approx(
                        expected, abs=1e-9
                    ), (bits, depth)

    def test_sequential_coherence(self):
        for bits in [[0, 1, 1], [1, 0, 0, 1], [0] * 6]:
            base = 2.0 ** ctw_log_mixture(bits, CtwParams(2)).log2_mixture_probability
            ext0 = 2.0 ** ctw_log_mixture(bits + [0], CtwParams(2)).log2_mixture_probability
            ext1 = 2.0 ** ctw_log_mixture(bits + [1], CtwParams(2)).log2_mixture_probability
            assert ext0 + ext1 == pytest.approx(base, abs=1e-9)

    def test_complement_invariance(self):
        bits = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1]
        flipped = [1 - b for b in bits]
        a = ctw_log_mixture(bits, CtwParams(3)).log2_mixture_probability
        b = ctw_log_mixture(flipped, CtwParams(3)).log2_mixture_probability
        assert a == pytest.approx(b, abs=1e-12)

    def test_node_count_linear(self):
        bits = [0, 1] * 500
        res = ctw_log_mixture(bits, CtwParams(8))
        assert res.node_count <= len(bits) * 8 + 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ctw_log_mixture([], CtwParams(2))


class TestCtwEntropyRate:
    def test_single_bit_symbolwise(self):
        est = ctw_entropy_rate((0, 0), 2, depth_D=0)
        assert est.sample_size == 2
        assert est.bits_per_symbol == pytest.approx(-math.log2(3 / 8) / 2)

    def test_entropy_scaling_four_state(self):
        symbols = (0, 1, 2, 3, 0, 1, 2, 3)
        est = ctw_entropy_rate(symbols, 4, depth_D=4)
        assert est.sample_size == 8
        bits = symbols_to_bits(symbols, 4)
        res = ctw_log_mixture(bits, CtwParams(4))
        assert est.bits_per_symbol == -res.log2_mixture_probability / res.n_bits * 2

    def test_too_short(self):
        with pytest.raises(ValueError):
            ctw_entropy_rate((0,), 2)


class TestAgainstSequentialTree:
    """The count-based fold against the bit-by-bit tree update at n ~ 2,000."""

    @staticmethod
    def _compare(alphabet, symbols, depth):
        bits = symbols_to_bits(symbols, alphabet)
        res = ctw_log_mixture(bits, CtwParams(depth))
        log_p, node_count = sequential_mixture(bits.tolist(), depth)
        assert res.node_count == node_count
        assert res.n_bits == len(bits)
        assert res.log2_mixture_probability == pytest.approx(log_p, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("depth", [0, 1, 20, 48])
    @pytest.mark.parametrize("alphabet", [2, 4])
    def test_random(self, alphabet, depth):
        for seed in (11, 12):
            self._compare(alphabet, _random_symbols(alphabet, 2000, seed), depth)

    @pytest.mark.parametrize("depth", [0, 1, 20, 48])
    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate(self, name, depth):
        self._compare(*DEGENERATE[name], depth)

    def test_biased_markov_source(self):
        # a skewed source makes the leaf counts, not just the tree shape, matter
        rng = np.random.default_rng(13)
        state, symbols = 0, []
        for u in rng.random(2000):
            state = state if u < 0.8 else (state + 1) % 4
            symbols.append(state)
        self._compare(4, symbols, 20)


def _bit_source(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "biased":
        return (rng.random(n) < 0.2).astype(np.int64)
    if kind == "uniform":
        return rng.integers(0, 2, n)
    if kind == "zeros":
        return np.zeros(n, dtype=np.int64)
    return np.resize(np.array([0, 0, 1, 0, 1, 1, 1], dtype=np.int64), n)  # cyclic


class TestAgainstUniqueFold:
    """The one-sort fold equals the per-depth ``np.unique`` fold in every field."""

    @pytest.mark.parametrize("depth", [0, 1, 2, 20, 48])
    @pytest.mark.parametrize("n", [1, 2, 3, 1498, 10_000])
    @pytest.mark.parametrize("kind", ["biased", "uniform", "zeros", "cyclic"])
    def test_equal(self, kind, n, depth):
        for seed in (1, 2):
            bits = _bit_source(kind, n, seed)
            assert ctw_log_mixture(bits, CtwParams(depth)) == unique_fold(bits, depth)

    def test_lgamma_tables_grow(self, monkeypatch):
        # start from empty tables: a longer input after a shorter one grows them
        monkeypatch.setattr(ctw_module, "_lg_half", np.empty(0))
        monkeypatch.setattr(ctw_module, "_lg_int", np.empty(0))
        for n in (5, 3, 40, 2_000, 7):
            bits = _bit_source("biased", n, n)
            assert ctw_log_mixture(bits, CtwParams(4)) == unique_fold(bits, 4)
        assert 2_001 <= len(ctw_module._lg_half) == len(ctw_module._lg_int)
