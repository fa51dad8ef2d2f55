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
  online suffix automaton of that prefix: L_{i+1} >= L_i - 1, so each
  position resumes from the previous match, and the whole scan takes O(n)
  amortised steps for a fixed alphabet.
"""

from __future__ import annotations

import gc
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

    The cyclic garbage collector is paused during the scan: the automaton's
    dicts hold no cycles, and a full collection would walk them all.
    """
    syms = seq.symbols.tolist()
    if not syms:
        raise ValueError("empty sequence")
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _match_lengths(syms)
    finally:
        if enabled:
            gc.enable()


def _match_lengths(syms: list[int]) -> MatchLengths:
    n = len(syms)
    # suffix automaton of syms[:i]: per state the longest length, suffix link, transitions
    length, link, trans = [0], [-1], [{}]
    last = 0
    v, match = 0, 0  # state holding syms[i : i + match]
    lambdas: list[int] = []
    for i in range(n):
        if i:
            c = syms[i - 1]
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
            # L_i >= L_{i-1} - 1; a clone may now hold the shorter match
            match = max(match - 1, 0)
            while v and match <= length[link[v]]:
                v = link[v]
        while i + match < n and syms[i + match] in trans[v]:
            v = trans[v][syms[i + match]]
            match += 1
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
        params={"alphabet_size": seq.alphabet_size},
    )
