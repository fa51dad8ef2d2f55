"""Binary Context Tree Weighting probability assignment and entropy rate.

The tree mixes, exactly, the Bayesian posterior over every binary
suffix-set source of depth <= D, with Krichevsky-Trofimov
(Dirichlet(1/2,1/2)) estimators at the leaves (Willems, Shtarkov &
Tjalkens, IEEE Trans. IT 41(3), 1995).  A node's weighted probability
depends only on its own final (zeros, ones) counts and on its children's
weighted probabilities, so the mixture is computed from the final
per-context counts, folded from depth D up to the root.  That costs one
O(n log n) sort plus O(n*D) numpy work and O(n) memory, not a per-bit tree
walk.  All probabilities are kept in the log2 domain; products over tens
of thousands of bits underflow any linear-domain representation.

Multi-symbol sequences are handled by fixed-width binary expansion (MSB
first) and the per-bit entropy is scaled back to bits per symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import EntropyEstimate

__all__ = [
    "CtwParams",
    "CtwResult",
    "symbols_to_bits",
    "kt_log_probability",
    "ctw_log_mixture",
    "ctw_entropy_rate",
    "DEFAULT_DEPTH",
]

DEFAULT_DEPTH = 20  # bits; 10 four-state symbols of context

_LN2 = math.log(2.0)
_LGAMMA_HALF = math.lgamma(0.5)


@dataclass(frozen=True)
class CtwParams:
    depth_D: int

    def __post_init__(self) -> None:
        if self.depth_D < 0 or self.depth_D > 48:
            raise ValueError(f"depth_D must be in [0, 48], got {self.depth_D}")


@dataclass(frozen=True)
class CtwResult:
    log2_mixture_probability: float
    n_bits: int
    node_count: int


def symbols_to_bits(symbols, alphabet_size: int) -> np.ndarray:
    """Expand 1-D integer symbols in [0, A) to log2 A bits each, MSB first, as int64.

    The one check of the symbols' range; A = ``alphabet_size`` is a power of two >= 2.
    """
    a = alphabet_size
    if a < 2 or a & (a - 1) != 0:
        raise ValueError(
            f"alphabet size {a} is not a power of two >= 2; re-discretize into a "
            "power-of-two number of states before CTW estimation"
        )
    arr = np.asarray(symbols)
    if arr.ndim != 1:
        raise ValueError(f"symbols must be 1-D, got shape {arr.shape}")
    if len(arr) and arr.dtype.kind not in "iu":
        raise ValueError(f"symbols must be integers, got dtype {arr.dtype}")
    outside = (arr < 0) | (arr >= a)
    if outside.any():
        raise ValueError(f"symbol {arr[outside][0]} outside [0, {a})")
    shifts = np.arange(a.bit_length() - 2, -1, -1)
    return ((arr.astype(np.int64, copy=False)[:, None] >> shifts) & 1).ravel()


def kt_log_probability(count_zero: int, count_one: int) -> float:
    """log2 of the KT block probability for (a zeros, b ones).

    Closed form of the sequential product of (c + 1/2)/(a + b + 1) updates:
    Gamma(a+1/2)Gamma(b+1/2) / (pi * Gamma(a+b+1)).
    """
    if count_zero < 0 or count_one < 0:
        raise ValueError("counts must be nonnegative")
    if count_zero == 0 and count_one == 0:
        return 0.0
    ln = (
        math.lgamma(count_zero + 0.5)
        + math.lgamma(count_one + 0.5)
        - math.lgamma(count_zero + count_one + 1)
        - 2.0 * _LGAMMA_HALF
    )
    return ln / _LN2


def _context_keys(bits: np.ndarray, depth: int) -> np.ndarray:
    """Bit depth-1-k of key t is the bit k+1 places before t; D copies of bits[0] pad the start.

    The most recent bit is the most significant, so ``key >> (depth - d)`` is
    the depth-d context and sorting the keys sorts every depth's contexts.
    """
    n = len(bits)
    padded = np.concatenate([np.full(depth, bits[0]), bits])
    keys = np.zeros(n, dtype=np.int64)
    for j in range(depth):
        keys |= padded[j : j + n] << j
    return keys


_lg_half = np.empty(0)  # math.lgamma(k + 0.5) for k = 0, 1, ...
_lg_int = np.empty(0)  # math.lgamma(k + 1.0)


def _lgamma_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The lgamma tables over at least 0..n, built once and grown by doubling."""
    global _lg_half, _lg_int
    have = len(_lg_half)
    if have <= n:
        ks = range(have, max(n + 1, 2 * have))
        _lg_half = np.concatenate([_lg_half, [math.lgamma(k + 0.5) for k in ks]])
        _lg_int = np.concatenate([_lg_int, [math.lgamma(k + 1.0) for k in ks]])
        _lg_half.flags.writeable = _lg_int.flags.writeable = False
    return _lg_half, _lg_int


def ctw_log_mixture(bits: np.ndarray | list[int], params: CtwParams) -> CtwResult:
    """Exact log2 mixture probability of ``bits`` (0/1 values) under the depth-D prior.

    The D bits of context before the first input bit are taken as copies of
    the first input bit, so all n bits contribute to the estimate (no
    burn-in discard) and complementing the input leaves the probability
    unchanged.

    One sort of ``(key << 1) | bit`` puts every leaf context's bits in one
    run.  Dropping the oldest context bit (``key >> 1``) keeps that order,
    so a shallower depth's nodes are runs of adjacent deeper nodes: two
    neighbours share a node once every bit in which their keys differ is
    dropped, the bit length of their XOR.  Each depth finds its runs with
    one comparison on those lengths and sums them with ``np.add.reduceat``;
    a depth where no two nodes merge keeps its counts and KT values.  A
    parent has at most two children and float addition commutes, so every
    sum is the one any child order gives.
    """
    n = len(bits)
    if n == 0:
        raise ValueError("empty bit sequence")
    depth = params.depth_D
    bit_array = np.asarray(bits, dtype=np.int64)
    lg_half, lg_int = _lgamma_tables(n)

    def kt(zeros: np.ndarray, ones: np.ndarray) -> np.ndarray:
        ln = lg_half[zeros] + lg_half[ones] - lg_int[zeros + ones] - 2.0 * _LGAMMA_HALF
        return ln / _LN2

    codes = np.sort((_context_keys(bit_array, depth) << 1) | bit_array)
    keys = codes >> 1
    starts = np.flatnonzero(np.diff(keys, prepend=-1))  # the leaves' runs
    ones = np.add.reduceat(codes & 1, starts)
    zeros = np.diff(starts, append=n) - ones
    log_pe = kt(zeros, ones)
    log_pw = log_pe  # leaves: P_w = P_e
    # gaps[i]: the context bits to drop before nodes i and i+1 share a node;
    # frexp's exponent is the bit length, exact for keys below 2**53
    gaps = np.frexp(np.bitwise_xor(keys[starts[1:]], keys[starts[:-1]]))[1]
    merging = set(gaps.tolist())
    node_count = len(starts)
    for drop in range(1, depth + 1):
        if drop in merging:
            kept = gaps > drop
            starts = np.flatnonzero(np.concatenate(([True], kept)))
            gaps = gaps[kept]
            zeros = np.add.reduceat(zeros, starts)
            ones = np.add.reduceat(ones, starts)
            log_pw = np.add.reduceat(log_pw, starts)
            log_pe = kt(zeros, ones)
        log_pw = np.logaddexp2(log_pe, log_pw) - 1.0
        node_count += len(log_pw)
    return CtwResult(log2_mixture_probability=float(log_pw[0]), n_bits=n, node_count=node_count)


def ctw_entropy_rate(symbols, alphabet_size: int, depth_D: int = DEFAULT_DEPTH) -> EntropyEstimate:
    """CTW entropy-rate estimate in bits per symbol of ``symbols`` in [0, alphabet_size)."""
    bits = symbols_to_bits(symbols, alphabet_size)
    width = alphabet_size.bit_length() - 1
    n = len(bits) // width
    if n < 2:
        raise ValueError("need at least 2 symbols")
    result = ctw_log_mixture(bits, CtwParams(depth_D=depth_D))
    return EntropyEstimate(
        bits_per_symbol=-result.log2_mixture_probability / result.n_bits * width,
        sample_size=n,
    )
