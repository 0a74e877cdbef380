"""Statistical utilities for the Monte Carlo layer: standard normal CDF,
Kolmogorov-Smirnov distance, Pearson chi-square goodness of fit with its
closed-form tail at integer degrees of freedom, Wilson score intervals, and
the exact moments of integer pairs.

All of it is self-contained (math + numpy); nothing here depends on the
simulation modules.
"""

from __future__ import annotations

import math
from operator import index, mul
from typing import NamedTuple

import numpy as np

__all__ = [
    "normal_cdf",
    "ks_distance",
    "chi_square_sf",
    "chi_square_gof",
    "wilson_interval",
    "PairMoments",
    "pair_moments",
]

_SQRT2 = math.sqrt(2.0)
_Z95 = 1.959963984540054
_MIN_EXPECTED = 5.0  # chi_square_gof merges categories until each bin expects this many


def normal_cdf(x: float) -> float:
    """Standard normal distribution function via the complementary error
    function, Phi(x) = erfc(-x / sqrt 2) / 2; accurate to ~1e-15."""
    return 0.5 * math.erfc(-x / _SQRT2)


def ks_distance(samples) -> float:
    """Kolmogorov-Smirnov distance between the empirical law of `samples`
    and the standard normal law."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = xs.shape[0]
    if n == 0:
        raise ValueError("need at least one sample")
    f = np.array([normal_cdf(float(x)) for x in xs])
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(np.max(np.maximum(i / n - f, f - (i - 1.0) / n)))


def chi_square_sf(stat: float, dof: int) -> float:
    """Upper tail probability of the chi-square distribution at an integer
    dof, as a finite sum (Abramowitz & Stegun, section 26.4).  With
    y = stat / 2 and h = (dof mod 2) / 2, it is the sum of
    y^k e^-y / Gamma(k + 1) over k = h, h + 1, ... below dof / 2, plus
    erfc(sqrt y) when dof is odd."""
    if not isinstance(dof, (int, np.integer)) or dof < 1:
        raise ValueError(f"dof must be an integer >= 1, got {dof!r}")
    if not 0.0 <= stat < math.inf:
        raise ValueError(f"stat must be finite and >= 0, got {stat!r}")
    y = 0.5 * stat
    if y == 0.0:
        return 1.0
    log_y = math.log(y)
    h = 0.5 * (dof % 2)
    total = math.erfc(math.sqrt(y)) if h else 0.0
    for k in range(dof // 2):
        total += math.exp((h + k) * log_y - y - math.lgamma(h + k + 1.0))
    return total


def chi_square_gof(observed: dict, probs: dict):
    """Pearson chi-square of observed category counts against exact category
    probabilities.

    Categories are merged greedily in sorted-key order until each bin's
    expected count reaches _MIN_EXPECTED (the trailing bin is folded into
    its neighbor if it ends short); any probability mass absent from
    `observed` still contributes to the expectation.  Returns
    (stat, dof, p_value).
    """
    keys = sorted(probs)
    total = sum(observed.values())
    if total <= 0:
        raise ValueError("need a positive number of observations")
    bins = []
    acc_o, acc_e = 0.0, 0.0
    for key in keys:
        acc_o += observed.get(key, 0)
        acc_e += probs[key] * total
        if acc_e >= _MIN_EXPECTED:
            bins.append((acc_o, acc_e))
            acc_o, acc_e = 0.0, 0.0
    if acc_e > 0.0 or acc_o > 0.0:
        if bins:
            o, e = bins[-1]
            bins[-1] = (o + acc_o, e + acc_e)
        else:
            bins.append((acc_o, acc_e))
    stray = total - sum(o for o, _ in bins)
    if stray:
        raise ValueError(f"{stray} observations fall outside the reference support")
    if len(bins) < 2:
        raise ValueError("fewer than two usable bins; enlarge the sample")
    stat = sum((o - e) ** 2 / e for o, e in bins)
    dof = len(bins) - 1
    return stat, dof, chi_square_sf(stat, dof)


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


class PairMoments(NamedTuple):
    """Sample means, variances (ddof 1), covariance and correlation of pairs (x, y)."""

    mean_x: float
    var_x: float | None
    mean_y: float
    var_y: float | None
    cov: float | None
    corr: float | None


def pair_moments(xs, ys) -> PairMoments:
    """The moments of the integer pairs (xs[i], ys[i]) from their exact sums in Python
    ints.  Each mean, variance and covariance is one int / int division, so it is
    correctly rounded: var x = (R sum x^2 - (sum x)^2) / (R (R - 1)).  corr is
    c / sqrt(a b) over those numerators, within 2 ulps.  The variances and cov are
    None below 2 pairs, and corr also when a coordinate is constant."""
    xs, ys = list(map(index, xs)), list(map(index, ys))  # Python ints: the sums are exact
    R = len(xs)
    if R == 0 or len(ys) != R:
        raise ValueError(f"need as many ys as xs, at least one, got {R} and {len(ys)}")
    sx, sy = sum(xs), sum(ys)
    if R < 2:
        return PairMoments(sx / R, None, sy / R, None, None, None)
    a = R * sum(map(mul, xs, xs)) - sx * sx
    b = R * sum(map(mul, ys, ys)) - sy * sy
    c = R * sum(map(mul, xs, ys)) - sx * sy
    d = R * (R - 1)
    return PairMoments(sx / R, a / d, sy / R, b / d, c / d, c / math.sqrt(a * b) if a and b else None)
