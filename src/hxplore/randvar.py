"""Exact binomial variate generation for the regimes the exploration needs:
huge trial counts N (up to ~1e18) with Np = O(1).

Naive q = 1 - p powering is catastrophically lossy there (1 - p rounds to
1.0 below p ~ 1e-16), so the probability of zero successes is seeded in log
space as exp(N log1p(-p)) and the CDF is accumulated by the exact pmf ratio
recursion.  For Np <= 30 the inversion starts at k = 0; above that it starts
at the mode and expands outward, which keeps the expected number of terms
at O(sqrt(Np)) and never leaves double precision.

Array draws come in two steps.  binomial_table(trials, p) depends on the
trial counts and p alone: per entry, the first CDF values of the walk from
k = 0, as inversion thresholds, enough that fewer than one entry is expected
to pass them all at any mean up to the cutoff.  sample_binomial_table(rng,
table) reads one uniform per entry and counts the thresholds it reaches; an
entry that passes all of them, or any entry of a short array, takes the
scalar walk from k = 0.  A caller that draws from the same trial counts many
times (each run of a Monte Carlo cell draws its edge counts from the same
chunks) builds the table once and keeps it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "sample_binomial",
    "sample_binomial_array",
    "BinomialTable",
    "binomial_table",
    "sample_binomial_table",
    "INVERSION_MEAN_CUTOFF",
]

INVERSION_MEAN_CUTOFF = 30.0
_MAX_TERMS = 4000
_SHORT_ARRAY = 64  # tables of arrays up to this long keep P(0) alone and are read entry by entry
_TABLE_ROWS = 64  # thresholds per entry at most; mean 29 at 4,096 entries takes 51


def _log_pmf(n, k: int, logp: float, logq: float) -> float:
    return (
        math.lgamma(n + 1.0)
        - math.lgamma(k + 1.0)
        - math.lgamma(n - k + 1.0)
        + k * logp
        + (n - k) * logq
    )


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
    log_q0 = n_trials * math.log1p(-p)  # log P(0)
    if n_trials * p <= INVERSION_MEAN_CUTOFF and log_q0 > -700.0:
        return _invert_from_zero(u, n_trials, math.exp(log_q0), p / (1.0 - p))
    return _sample_mode_centered(u, n_trials, p)


class BinomialTable(NamedTuple):
    """The inversion thresholds of Binomial(trials[i], p), one column per entry.

    Row k of `cum` holds cum_k = P(0) + ... + P(k) where the pmf recursion
    takes a positive step to k + 1, and +inf where the support ends, so a
    draw is the number of leading rows whose threshold its uniform reaches.
    Arrays of at most _SHORT_ARRAY entries keep row 0, which is P(0), alone;
    longer ones, the rows of _table_rows.  Entries above INVERSION_MEAN_CUTOFF
    (indices `big`) read 0 here and take the mode-centred path instead."""

    trials: np.ndarray
    p: float
    cum: np.ndarray
    big: np.ndarray


def _table_rows(mean: float, entries: int) -> int:
    """The fewest table rows, at most _TABLE_ROWS, that fewer than one of
    `entries` draws is expected to pass.  The Poisson(mean) tail, with
    `mean` the largest mean below the cutoff, bounds each entry's binomial
    tail; the cap binds only from about 10^7 entries at the cutoff mean."""
    term = math.exp(-mean)
    tail = 1.0
    for k in range(1, _TABLE_ROWS):
        tail -= term  # P(X >= k)
        if entries * tail < 1.0:
            return k
        term *= mean / k
    return _TABLE_ROWS


def binomial_table(trials, p: float) -> BinomialTable:
    """The BinomialTable of `trials` at p, built with the float operations of
    the CDF walk: P(0) = exp(c log1p(-p)), then step = pmf * ((c - k) /
    (k + 1) * p / (1 - p)) and cum += step.  The rows are built over every
    entry at once; only the entries whose support ends inside the table are
    then walked again to place their +inf."""
    trials = np.asarray(trials, dtype=np.float64)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must lie in [0, 1), got {p}")
    logq = math.log1p(-p)
    pq = p / (1.0 - p)
    mean = trials * p
    big_mask = mean > INVERSION_MEAN_CUTOFF
    big = np.flatnonzero(big_mask)
    c = np.where(big_mask, 0.0, trials) if big.size else trials
    if trials.shape[0] <= _SHORT_ARRAY:
        return BinomialTable(trials, p, np.exp(c * logq)[None, :], big)
    rows = _table_rows(float(c.max()) * p, trials.shape[0])
    cum = np.empty((rows, trials.shape[0]))
    np.exp(c * logq, out=cum[0])
    pmf = cum[0].copy()
    ratio = np.empty_like(pmf)
    for k in range(rows):
        np.subtract(c, k, out=ratio)
        ratio /= k + 1.0
        ratio *= pq
        pmf *= ratio  # the step to k + 1
        if k + 1 < rows:
            np.add(cum[k], pmf, out=cum[k + 1])
    # the entries with a step to some k <= rows that is not positive: with
    # c >= rows no ratio is, and a step that underflows to 0 stays 0 to the end
    ends = np.flatnonzero((c < rows) | ~(pmf > 0.0))
    if ends.size:
        ce = c[ends]
        pmf = cum[0, ends]
        live = np.ones(ends.size, dtype=bool)
        for k in range(rows):
            pmf = pmf * ((ce - k) / (k + 1.0) * pq)
            live &= pmf > 0.0
            cum[k, ends[~live]] = np.inf
    return BinomialTable(trials, p, cum, big)


def sample_binomial_table(rng: np.random.Generator, table: BinomialTable) -> np.ndarray:
    """One exact draw per entry of the table, from exactly len(table.trials)
    uniforms of `rng`, read in one call.  A draw counts the leading rows of
    `cum` that its uniform reaches, row by row until none does; entries that
    pass every row, and every entry of a short table, take the scalar CDF
    walk from k = 0.  Entries above the cutoff take the mode-centred path
    with their own uniform."""
    trials, p, cum, big = table
    u = rng.random(trials.shape[0])
    pq = p / (1.0 - p)
    if trials.shape[0] <= _SHORT_ARRAY:
        out = np.array([_invert_from_zero(ui, ci, pi, pq) for ui, ci, pi in
                        zip(u.tolist(), trials.tolist(), cum[0].tolist())], dtype=np.int64)
    else:
        out = (u >= cum[0]).astype(np.int64)
        for row in cum[1:]:
            hit = u >= row
            if not hit.any():
                break
            out += hit
        for i in np.flatnonzero(out == cum.shape[0]).tolist():
            out[i] = _invert_from_zero(u[i].item(), trials[i].item(), cum[0, i].item(), pq)
    for i in big.tolist():
        out[i] = _sample_mode_centered(u[i], trials[i], p)
    return out


def sample_binomial_array(rng: np.random.Generator, trials, p: float) -> np.ndarray:
    """Vectorized exact binomial draws, one per entry of `trials`: the
    lookup of binomial_table(trials, p) by sample_binomial_table.  Consumes
    exactly len(trials) uniforms from `rng`, in one call."""
    return sample_binomial_table(rng, binomial_table(trials, p))
