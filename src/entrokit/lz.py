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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .series import EntropyEstimate, SymbolSequence

__all__ = ["LzParse", "MatchLengths", "lz76_complexity", "match_lengths", "lz_entropy_rate"]


@dataclass(frozen=True)
class LzParse:
    phrases: tuple[tuple[int, int], ...]  # (start index, length)
    complexity: int


@dataclass(frozen=True)
class MatchLengths:
    lambdas: tuple[int, ...]
    n: int


def lz76_complexity(seq: SymbolSequence) -> LzParse:
    """Count distinct phrases in a left-to-right incremental parse.

    Each phrase is grown one symbol at a time until it differs from every
    previously recorded phrase.  A final phrase that repeats an earlier one
    (because the input ended) still counts as one phrase.
    """
    syms = seq.symbols.tolist()
    n = len(syms)
    if n == 0:
        raise ValueError("empty sequence")
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
    return LzParse(phrases=tuple(phrases), complexity=len(phrases))


def match_lengths(seq: SymbolSequence) -> MatchLengths:
    """Shortest-unseen-substring lengths Lambda_i for every position.

    Lambda_i = L_i + 1 where L_i is the length of the longest prefix of
    seq[i:] occurring (entirely) inside seq[:i].  When every substring that
    fits in the remaining input has been seen, this evaluates to
    (remaining length) + 1, i.e. longest match plus one as if one more
    symbol were available.
    """
    syms, alphabet = seq.symbols.tolist(), seq.alphabet_size
    n = len(syms)
    if not n:
        raise ValueError("empty sequence")
    # Suffix automaton of syms[:i] in flat lists sized for 2n + 1 states (it has at most
    # 2n - 1): length[s] and link[s] are state s's longest string and suffix link, and
    # trans[s * alphabet + c] its edge on symbol c, -1 for none; 2n * alphabet entries
    # (alphabet is 2, 4 or 8 in every caller), and no object per state for the GC to walk
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
    return MatchLengths(lambdas=tuple(lambdas), n=n)


def lz_entropy_rate(seq: SymbolSequence) -> EntropyEstimate:
    """Match-length estimate n*log2(n) / sum(Lambda_i), in bits per symbol."""
    n = len(seq)
    if n < 2:
        raise ValueError("need at least 2 symbols")
    ml = match_lengths(seq)
    estimate = n * math.log2(n) / sum(ml.lambdas)
    return EntropyEstimate(
        bits_per_symbol=estimate,
        estimator="lz",
        sample_size=n,
    )
