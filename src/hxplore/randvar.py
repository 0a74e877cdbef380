"""Exact binomial variate generation for the regimes the exploration needs:
huge trial counts N (up to ~1e18) with Np = O(1).

Naive q = 1 - p powering is catastrophically lossy there (1 - p rounds to
1.0 below p ~ 1e-16), so the probability of zero successes is seeded in log
space as exp(N log1p(-p)) and the CDF is accumulated by the exact pmf ratio
recursion.  For Np <= 30 the inversion starts at k = 0; above that it starts
at the mode and expands outward, which keeps the expected number of terms
at O(sqrt(Np)) and never leaves double precision.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["sample_binomial", "sample_binomial_array", "INVERSION_MEAN_CUTOFF"]

INVERSION_MEAN_CUTOFF = 30.0
_MAX_TERMS = 4000
_SHORT_ARRAY = 64  # sample_binomial_array walks arrays up to this long entry by entry


def _log_pmf(n, k: int, logp: float, logq: float) -> float:
    return (
        math.lgamma(n + 1.0)
        - math.lgamma(k + 1.0)
        - math.lgamma(n - k + 1.0)
        + k * logp
        + (n - k) * logq
    )


def _sample_small_mean(u: float, n, p: float) -> int:
    """Sequential CDF inversion from k = 0; exact for Np <= 30."""
    return _invert_from_zero(u, n, math.exp(n * math.log1p(-p)), p / (1.0 - p))


def _invert_from_zero(u: float, n, pmf: float, pq: float) -> int:
    """CDF inversion from k = 0, given P(0) = pmf and the odds pq = p / (1 - p)."""
    cum = pmf
    k = 0
    while u >= cum and k < _MAX_TERMS:
        nxt = pmf * ((n - k) / (k + 1.0) * pq)
        if nxt <= 0.0:
            break  # support exhausted; u sat in the last representable sliver
        pmf = nxt
        cum += pmf
        k += 1
    return k


def _sample_mode_centered(u: float, n, p: float) -> int:
    """Exact inversion enumerating k outward from the mode.

    The enumeration order (mode, mode+1, mode-1, mode+2, ...) is fixed, so
    this is still plain CDF inversion, just over a reordered support.
    """
    logp = math.log(p)
    logq = math.log1p(-p)
    mode = int(math.floor((n + 1) * p))
    mode = min(max(mode, 0), int(min(n, 2**62)))
    pmf_mode = math.exp(_log_pmf(n, mode, logp, logq))
    acc = pmf_mode
    if u < acc:
        return mode
    up_k, up_pmf = mode, pmf_mode
    dn_k, dn_pmf = mode, pmf_mode
    pq = p / (1.0 - p)
    qp = (1.0 - p) / p
    for _ in range(_MAX_TERMS):
        moved = False
        if up_k < n:
            up_pmf *= (n - up_k) / (up_k + 1.0) * pq
            up_k += 1
            acc += up_pmf
            moved = True
            if u < acc:
                return up_k
        if dn_k > 0:
            dn_pmf *= dn_k / (n - dn_k + 1.0) * qp
            dn_k -= 1
            acc += dn_pmf
            moved = True
            if u < acc:
                return dn_k
        if not moved:
            break
    # u beyond the representable CDF mass (probability ~ 2^-53): clamp to the
    # farthest enumerated upper value.
    return up_k


def sample_binomial(rng: np.random.Generator, n_trials, p: float) -> int:
    """One exact Binomial(n_trials, p) draw.

    n_trials may be an int or a float (counts above 2^53 lose exact
    integrality but the log-space pmf remains accurate to double precision).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if n_trials < 0:
        raise ValueError(f"n_trials must be nonnegative, got {n_trials}")
    if n_trials == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return int(n_trials)
    u = rng.random()
    mean = n_trials * p
    if mean <= INVERSION_MEAN_CUTOFF and n_trials * math.log1p(-p) > -700.0:
        return _sample_small_mean(u, n_trials, p)
    return _sample_mode_centered(u, n_trials, p)


def sample_binomial_array(rng: np.random.Generator, trials, p: float) -> np.ndarray:
    """Vectorized exact binomial draws, one per entry of `trials`.

    All entries with trials*p <= 30 run through a compressed vectorized
    inversion (one pmf-ratio update per support point, applied only to the
    still-unresolved lanes); larger-mean entries fall back to the scalar
    mode-centered path, which reuses the entry's own uniform.  Arrays of at
    most _SHORT_ARRAY entries skip the lane bookkeeping and run the same float
    operations entry by entry.  Consumes exactly len(trials) uniforms from
    `rng`, in one call.
    """
    trials = np.asarray(trials, dtype=np.float64)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must lie in [0, 1), got {p}")
    out = np.zeros(trials.shape[0], dtype=np.int64)
    if p == 0.0 or trials.shape[0] == 0:
        rng.random(trials.shape[0])  # keep stream consumption uniform
        return out
    u = rng.random(trials.shape[0])
    big = trials * p > INVERSION_MEAN_CUTOFF
    logq = math.log1p(-p)
    pq = p / (1.0 - p)
    if trials.shape[0] <= _SHORT_ARRAY:
        # np.exp is elementwise: one call over all entries gives each small entry's P(0)
        return np.array([_sample_mode_centered(ui, c, p) if b else _invert_from_zero(ui, c, pmf, pq)
                         for ui, c, b, pmf in zip(u.tolist(), trials.tolist(), big.tolist(),
                                                  np.exp(trials * logq).tolist())],
                        dtype=np.int64)

    small_idx = np.nonzero(~big)[0]
    c = trials[small_idx]
    pmf = np.exp(c * logq)
    cum = pmf.copy()
    uu = u[small_idx]
    k = 0
    while small_idx.size and k < _MAX_TERMS:
        step = pmf * ((c - k) / (k + 1.0) * pq)
        unresolved = (uu >= cum) & (step > 0.0)
        if not unresolved.any():
            break
        small_idx = small_idx[unresolved]
        c = c[unresolved]
        cum = cum[unresolved]
        uu = uu[unresolved]
        pmf = step[unresolved]
        cum = cum + pmf
        k += 1
        out[small_idx] = k

    for i in np.nonzero(big)[0]:
        out[i] = _sample_mode_centered(u[i], trials[i], p)
    return out
