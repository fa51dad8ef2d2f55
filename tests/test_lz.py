import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entrokit.lz import lz76_complexity, lz_entropy_rate, match_lengths


def seq_from_string(s):
    return [int(c) for c in s]


def brute_force_lambdas(symbols):
    """Quadratic scan: shortest prefix of the tail absent from the prefix."""
    n = len(symbols)
    out = []
    for i in range(n):
        prefix = symbols[:i]
        length = 0
        while length < n - i:
            candidate = symbols[i : i + length + 1]
            found = any(
                prefix[j : j + length + 1] == candidate for j in range(i - length)
            )
            if not found:
                break
            length += 1
        out.append(length + 1)
    return out


def bisection_lambdas(symbols):
    """Second oracle: longest match by bisection over ``str.find`` on the prefix."""
    text = "".join(chr(48 + s) for s in symbols)
    n = len(text)
    out = []
    for i in range(n):
        # containment in text[:i] is monotone in the match length
        lo, hi = 0, n - i
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if text.find(text[i : i + mid], 0, i) != -1:
                lo = mid
            else:
                hi = mid - 1
        out.append(lo + 1)
    return out


def dict_automaton_lambdas(symbols):
    """Third oracle: the same online suffix automaton with one transition dict per state."""
    n = len(symbols)
    length, link, trans = [0], [-1], [{}]
    last = 0
    v, match = 0, 0
    out = []
    for i in range(n):
        if i:
            c = symbols[i - 1]
            cur = len(length)
            length.append(length[last] + 1)
            link.append(0)
            trans.append({})
            p = last
            while p != -1 and c not in trans[p]:
                trans[p][c] = cur
                p = link[p]
            if p != -1:
                q = trans[p][c]
                if length[p] + 1 == length[q]:
                    link[cur] = q
                else:
                    clone = len(length)
                    length.append(length[p] + 1)
                    link.append(link[q])
                    trans.append(dict(trans[q]))
                    while p != -1 and trans[p].get(c) == q:
                        trans[p][c] = clone
                        p = link[p]
                    link[q] = link[cur] = clone
            last = cur
            match = max(match - 1, 0)
            while v and match <= length[link[v]]:
                v = link[v]
        while i + match < n and symbols[i + match] in trans[v]:
            v = trans[v][symbols[i + match]]
            match += 1
        out.append(match + 1)
    return out


def assert_oracles_agree(symbols):
    got = match_lengths(symbols)
    assert got == dict_automaton_lambdas(symbols)
    assert got == bisection_lambdas(symbols)


class TestLz76:
    def test_paper_worked_example(self):
        assert len(lz76_complexity(seq_from_string("101001010010111110"))) == 8

    def test_single_symbol(self):
        assert len(lz76_complexity(seq_from_string("0"))) == 1

    def test_double_zero(self):
        assert len(lz76_complexity(seq_from_string("00"))) == 2

    def test_phrases_tile_input(self):
        phrases = lz76_complexity(seq_from_string("101001010010111110"))
        covered = sum(length for _, length in phrases)
        assert covered == 18
        starts = [s for s, _ in phrases]
        assert starts == sorted(starts)

    def test_empty_rejected(self):
        for estimator in (lz76_complexity, match_lengths):
            with pytest.raises(ValueError, match="empty sequence"):
                estimator(np.array([], dtype=np.int64))
            with pytest.raises(ValueError, match="1-D"):
                estimator(np.zeros((2, 3), dtype=np.int64))


class TestMatchLengths:
    def test_all_zeros(self):
        assert match_lengths(seq_from_string("0000")) == [1, 2, 3, 2]

    def test_two_fresh_symbols(self):
        assert match_lengths(seq_from_string("01")) == [1, 1]

    def test_alternating(self):
        assert match_lengths(seq_from_string("0101")) == [1, 1, 3, 2]

    def test_cap_rule_bound(self):
        for s in ("0000000", "0101101", "1111110"):
            lambdas = match_lengths(seq_from_string(s))
            n = len(s)
            for i, lam in enumerate(lambdas, start=1):
                assert 1 <= lam <= n - i + 2

    def test_matches_brute_force_binary(self):
        for n in range(1, 11):
            for bits in itertools.product((0, 1), repeat=n):
                expected = brute_force_lambdas(bits)
                assert match_lengths(bits) == expected
                assert dict_automaton_lambdas(bits) == expected

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
    def test_matches_brute_force_quaternary(self, symbols):
        expected = brute_force_lambdas(symbols)
        assert match_lengths(symbols) == expected
        assert dict_automaton_lambdas(symbols) == expected

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=12))
    def test_matches_brute_force_octal(self, symbols):
        expected = brute_force_lambdas(symbols)
        assert match_lengths(symbols) == expected
        assert dict_automaton_lambdas(symbols) == expected


class TestAgainstBisection:
    """Suffix-automaton match lengths against the dict automaton and the str.find bisection at n ~ 2,000."""

    @pytest.mark.parametrize("alphabet", [2, 4])
    def test_random(self, alphabet):
        for seed in (21, 22, 23):
            rng = np.random.default_rng(seed)
            symbols = tuple(int(s) for s in rng.integers(0, alphabet, 2000))
            assert_oracles_agree(symbols)

    @pytest.mark.parametrize(
        "symbols",
        [(0,) * 2000, (0, 1, 2, 3) * 500, (1,), (2,)],
        ids=["all_zeros", "four_cycle", "single_symbol_binary", "single_symbol_quaternary"],
    )
    def test_degenerate(self, symbols):
        assert_oracles_agree(symbols)

    def test_repetitive_with_noise(self):
        # long repeats broken by rare substitutions exercise state splits
        rng = np.random.default_rng(24)
        symbols = [(0, 1, 2, 3, 3, 2)[i % 6] for i in range(2000)]
        for i in rng.choice(2000, 40, replace=False):
            symbols[i] = int(rng.integers(0, 4))
        assert_oracles_agree(symbols)


def _oracle_inputs(alphabet):
    rng = np.random.default_rng(30 + alphabet)
    return {
        "all_zeros": (0,) * 1500,
        "cycle": tuple(range(alphabet)) * (1500 // alphabet),
        "squares_period": tuple((i * i) % alphabet for i in range(2 * alphabet)) * 100,
        "random": tuple(int(s) for s in rng.integers(0, alphabet, 1500)),
        "rare_symbol": tuple(int(s) for s in (rng.random(1500) < 0.02) * (alphabet - 1)),
    }


class TestAgainstDictAutomaton:
    """Flat-table match lengths against the per-state-dict automaton and the bisection."""

    @pytest.mark.parametrize("alphabet", [2, 4, 8])
    @pytest.mark.parametrize(
        "kind", ["all_zeros", "cycle", "squares_period", "random", "rare_symbol"]
    )
    def test_grid(self, alphabet, kind):
        assert_oracles_agree(_oracle_inputs(alphabet)[kind])


class TestLzEntropyRate:
    def test_all_zeros_exact(self):
        est = lz_entropy_rate(seq_from_string("0000"))
        assert est.bits_per_symbol == pytest.approx(4 * 2 / 8)
        assert est.sample_size == 4

    def test_determinism(self):
        seq = seq_from_string("011010011011")
        assert lz_entropy_rate(seq) == lz_entropy_rate(seq)

    def test_constant_strictly_decreasing(self):
        # the frozen Lambda values make n=4..7 non-monotone (e.g. 1.0 at n=4
        # but ~1.055 at n=5); the decrease is strict from n=7 on
        values = [
            lz_entropy_rate((0,) * n).bits_per_symbol
            for n in range(7, 60)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_relabeling_invariance(self):
        # LZ numbers the labels itself, so any four distinct labels give the same result
        base = (0, 2, 1, 3, 0, 1, 2, 2, 3, 0, 1)
        expected = brute_force_lambdas(base)
        for labels in [
            (3, 0, 2, 1),  # a permutation of the same four symbols
            (-7, -1, -3, -2),  # negative
            (10**9, 10**9 + 3, 999_999_998, 10**9 - 5),  # near 1e9
            (0.5, -2.25, 1e300, 3.0),  # float
        ]:
            relabeled = np.array([labels[s] for s in base])
            assert match_lengths(relabeled) == match_lengths(base) == expected
            assert lz76_complexity(relabeled) == lz76_complexity(base)
            rate = lz_entropy_rate(relabeled).bits_per_symbol
            assert rate == lz_entropy_rate(base).bits_per_symbol

    def test_too_short(self):
        with pytest.raises(ValueError):
            lz_entropy_rate(seq_from_string("0"))
