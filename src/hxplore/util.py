"""Small shared helpers: safe binomial coefficients, colex (un)ranking of
r-sets, the 64-bit seed-mixing chain used to derive independent
per-replicate random streams, and the one place that seeds a generator."""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash constants (pool of 4 uint32 words) and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SEED_BLOCK = 1024  # seeds hashed per numpy pass


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
        # the largest a with binom(a, i) <= rank: by an integer square root at i = 2, else by
        # bisection with binom(lo, i) <= rank < binom(hi, i)
        lo = (1 + math.isqrt(8 * rank + 1)) // 2 if i == 2 else i - 1
        while i > 2 and hi - lo > 1:
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
    tuples are decorrelated without any coordination between workers.  The
    last index may be a uint64 array, which gives the array of their seeds.
    """
    h = splitmix64(master_seed & _MASK64)
    for ix in indices:
        h = splitmix64(h ^ ((ix + 1) & _MASK64))
    return h


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^k mod 2^32 for k < count: the successive hash constants
    of numpy's SeedSequence."""
    return np.array([init * pow(mult, k, 1 << 32) % (1 << 32) for k in range(count)], dtype=np.uint32)


def _pcg64_states(seeds: np.ndarray):
    """Yield (state, inc) of PCG64 seeded with SeedSequence(seed), for each
    seed of a uint64 array.  SeedSequence hashes the seed's two uint32 words
    and two zero words into a pool of 4, mixes every word into every other
    and hashes the pool out to 8 words, all in uint32 arithmetic, here
    vectorised over the seeds.  PCG64 reads those as initstate and initseq
    and takes inc = 2 initseq + 1 and two LCG steps around adding initstate
    (O'Neill 2014)."""
    a = _hash_consts(_INIT_A, _MULT_A, 17)

    def hashmix(x, k):  # the k-th hashmix call: xor a[k], multiply by a[k + 1]
        x = (x ^ a[k]) * a[k + 1]
        return x ^ (x >> 16)

    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds  # the low word, by truncation
    pool[1] = seeds >> 32
    x = (pool ^ a[:4, None]) * a[1:5, None]  # hashmix calls 0 to 3, one per word
    pool = x ^ (x >> 16)
    k = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                x = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src], k)
                pool[dst] = x ^ (x >> 16)
                k += 1
    b = _hash_consts(_INIT_B, _MULT_B, 9)
    x = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ b[:8, None]) * b[1:, None]
    words = (x ^ (x >> 16)).astype(np.uint64)
    # the uint64 words, low half first: initstate = (hi_s, lo_s), initseq = (hi_i, lo_i)
    for hi_s, lo_s, hi_i, lo_i in zip(*(words[0::2] | words[1::2] << 32).tolist()):
        inc = (hi_i << 65 | lo_i << 1 | 1) & _MASK128
        yield ((inc + (hi_s << 64 | lo_s)) * _PCG64_MULT + inc) & _MASK128, inc


def seeded_generators(seeds):
    """Yield a numpy Generator for each seed of a list or array in turn, in
    the state that np.random.default_rng(seed) starts in, and so with the
    same stream.  The first is default_rng(seeds[0]) itself, for any
    nonnegative int; each later one, for a seed below 2^64, is that same
    object with its PCG64 state set to the seed's, computed _SEED_BLOCK
    seeds at a time.  So a yielded generator is valid only until the next
    one is drawn."""
    if not len(seeds):
        return
    rest = np.asarray(seeds[1:], dtype=np.uint64)
    rng = np.random.default_rng(int(seeds[0]))
    bitgen = rng.bit_generator
    state = bitgen.state  # has_uint32 = uinteger = 0, as at the start of every stream
    yield rng
    for lo in range(0, rest.size, _SEED_BLOCK):
        for s, inc in _pcg64_states(rest[lo:lo + _SEED_BLOCK]):
            state["state"] = {"state": s, "inc": inc}
            bitgen.state = state
            yield rng
