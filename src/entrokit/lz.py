"""Lempel-Ziv complexity and the match-length entropy-rate estimator.

Two distinct quantities live here:

* ``lz76_complexity`` counts distinct phrases in a left-to-right
  incremental parse (each phrase is the shortest word not seen as an
  earlier phrase).
* ``lz_entropy_rate`` is the match-length estimator
  n*log2(n) / sum(Lambda_i) of Kontoyiannis, Algoet, Suhov & Wyner (IEEE
  Trans. IT 44(3), 1998), where Lambda_i is the length of the shortest
  substring starting at position i that does not occur anywhere inside the
  prefix before i.  The match lengths are matching statistics over an
  online suffix automaton of that prefix (Blumer et al., TCS 40, 1985):
  L_{i+1} >= L_i - 1, so each position resumes from the previous match,
  and the whole scan takes O(n) amortised steps for a fixed alphabet.

Both depend only on which positions hold equal symbols, so both take any
1-D sequence of labels and number the distinct labels themselves.
"""

from __future__ import annotations

import math

import numpy as np

from .series import EntropyEstimate

__all__ = ["lz76_complexity", "match_lengths", "lz_entropy_rate"]


def _codes(symbols) -> tuple[list[int], int]:
    """``symbols`` numbered 0..k-1 in sorted label order, and k."""
    arr = np.asarray(symbols)
    if arr.ndim != 1:
        raise ValueError(f"symbols must be 1-D, got shape {arr.shape}")
    if not len(arr):
        raise ValueError("empty sequence")
    labels, codes = np.unique(arr, return_inverse=True)
    return codes.tolist(), len(labels)


def lz76_complexity(symbols) -> list[tuple[int, int]]:
    """The phrases, as (start index, length), of a left-to-right incremental parse.

    Each phrase is grown one symbol at a time until it differs from every
    previously recorded phrase.  A final phrase that repeats an earlier one
    (because the input ended) still counts as one phrase.  The LZ76
    complexity is the number of phrases.
    """
    syms, _ = _codes(symbols)
    n = len(syms)
    seen: set[tuple[int, ...]] = set()
    phrases: list[tuple[int, int]] = []
    start = 0
    while start < n:
        length = 1
        while tuple(syms[start : start + length]) in seen and start + length < n:
            length += 1
        phrase = tuple(syms[start : start + length])
        seen.add(phrase)
        phrases.append((start, length))
        start += length
    return phrases


def match_lengths(symbols) -> list[int]:
    """Shortest-unseen-substring lengths Lambda_i for every position.

    Lambda_i = L_i + 1 where L_i is the length of the longest prefix of
    symbols[i:] occurring (entirely) inside symbols[:i].  When every
    substring that fits in the remaining input has been seen, this evaluates
    to (remaining length) + 1, i.e. longest match plus one as if one more
    symbol were available.
    """
    syms, alphabet = _codes(symbols)
    n = len(syms)
    # Suffix automaton of syms[:i] in flat lists sized for 2n + 1 states (it has at most
    # 2n - 1): length[s] and link[s] are state s's longest string and suffix link, and
    # trans[s * alphabet + c] its edge on symbol c, -1 for none; 2n * alphabet entries,
    # one row stride per distinct label (at most the 4 or 8 states of every caller),
    # and no object per state for the GC to walk
    size = 2 * n + 1
    length, link, trans = [0] * size, [-1] * size, [-1] * (size * alphabet)
    states, last = 1, 0
    v, match = 0, 0  # state holding syms[i : i + match]
    lambdas = [1]  # nothing precedes position 0
    for i in range(1, n):
        c = syms[i - 1]
        p, last, states = last, states, states + 1  # a new state for all of syms[:i]
        length[last] = length[p] + 1
        while p != -1 and trans[k := p * alphabet + c] == -1:
            trans[k] = last
            p = link[p]
        if p == -1:
            link[last] = 0
        elif length[p] + 1 == length[q := trans[k]]:
            link[last] = q
        else:
            clone, states = states, states + 1
            length[clone], link[clone] = length[p] + 1, link[q]
            base, src = clone * alphabet, q * alphabet
            trans[base : base + alphabet] = trans[src : src + alphabet]
            while p != -1 and trans[k := p * alphabet + c] == q:
                trans[k] = clone
                p = link[p]
            link[q] = link[last] = clone
        # L_i >= L_{i-1} - 1; a clone may now hold the shorter match
        if match:
            match -= 1
            while v and match <= length[link[v]]:
                v = link[v]
        j = i + match
        while j < n and (nxt := trans[v * alphabet + syms[j]]) != -1:
            v = nxt
            j += 1
        match = j - i
        lambdas.append(match + 1)
    return lambdas


def lz_entropy_rate(symbols) -> EntropyEstimate:
    """Match-length estimate n*log2(n) / sum(Lambda_i), in bits per symbol."""
    n = len(symbols)
    if n < 2:
        raise ValueError("need at least 2 symbols")
    estimate = n * math.log2(n) / sum(match_lengths(symbols))
    return EntropyEstimate(bits_per_symbol=estimate, sample_size=n)
