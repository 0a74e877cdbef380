"""Small shared helpers: safe binomial coefficients, colex (un)ranking of
r-sets, and the 64-bit seed-mixing chain used to derive independent
per-replicate random streams."""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1


def comb0(m: int, k: int) -> int:
    """binom(m, k), with binom(m, k) = 0 whenever k < 0 or m < k.

    The zero convention makes the r = 2 edge cases of the drift formulas
    degenerate correctly, e.g. binom(n - t - 1, 0) = 1 and binom(., -1) = 0.
    """
    if k < 0 or m < 0 or m < k:
        return 0
    return math.comb(m, k)


def comb_float(m, k: int):
    """Vectorized binom(m, k) as float64 for fixed small k >= 0.

    `m` may be an ndarray.  Computed as a falling-factorial product; entries
    with m < k come out as 0.  Relative error is O(k * eps), which is
    immaterial since the result always multiplies a probability.
    """
    m = np.asarray(m, dtype=np.float64)
    if k < 0:
        return np.zeros_like(m)
    out = np.ones_like(m)
    for j in range(k):
        out = out * (m - j)
    out /= math.factorial(k)
    return np.where(m >= k, out, 0.0)


def colex_rank(rset) -> int:
    """Rank of a sorted r-set within the colexicographic order of all r-sets."""
    return sum(comb0(a, i + 1) for i, a in enumerate(sorted(rset)))


def colex_unrank(rank: int, r: int) -> tuple:
    """Inverse of colex_rank: the r-set of nonnegative ints with this rank."""
    out = []
    hi = rank + r  # binom(rank + r, r) > rank
    for i in range(r, 1, -1):
        # the largest a with binom(a, i) <= rank, by bisection: binom(lo, i) <= rank < binom(hi, i)
        lo = i - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if math.comb(mid, i) <= rank else (lo, mid)
        out.append(lo)
        rank -= math.comb(lo, i)
        hi = lo  # the next coordinate is smaller
    out.append(rank)  # binom(a, 1) = a
    return tuple(reversed(out))


def splitmix64(x: int) -> int:
    """One splitmix64 avalanche round; a standard 64-bit mixing finalizer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, *indices: int) -> int:
    """Derive an independent 64-bit stream seed from a master seed and a
    tuple of indices (cell index, replicate index, ...).

    Each index feeds one avalanche round, so streams for distinct index
    tuples are decorrelated without any coordination between workers.
    """
    h = splitmix64(master_seed & _MASK64)
    for ix in indices:
        h = splitmix64(h ^ ((ix + 1) & _MASK64))
    return h
