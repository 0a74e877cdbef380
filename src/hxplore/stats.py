"""Statistical utilities for the Monte Carlo layer: standard normal CDF,
Kolmogorov-Smirnov distance, Pearson chi-square goodness of fit with its
closed-form tail at integer degrees of freedom, Wilson score intervals, and
streaming bivariate moments.

All of it is self-contained (math + numpy); nothing here depends on the
simulation modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "normal_cdf",
    "ks_distance",
    "chi_square_sf",
    "chi_square_gof",
    "wilson_interval",
    "BivariateMoments",
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


@dataclass
class BivariateMoments:
    """Streaming bivariate moments: means, M2s, and the cross co-moment."""

    count: int = 0
    mean_x: float = 0.0
    mean_y: float = 0.0
    m2x: float = 0.0
    m2y: float = 0.0
    cxy: float = 0.0

    def add(self, x: float, y: float) -> None:
        self.count += 1
        dx = x - self.mean_x
        dy = y - self.mean_y
        self.mean_x += dx / self.count
        self.mean_y += dy / self.count
        self.m2x += dx * (x - self.mean_x)
        self.m2y += dy * (y - self.mean_y)
        self.cxy += dx * (y - self.mean_y)

    @property
    def var_x(self):
        return None if self.count < 2 else self.m2x / (self.count - 1)

    @property
    def var_y(self):
        return None if self.count < 2 else self.m2y / (self.count - 1)

    @property
    def cov(self):
        return None if self.count < 2 else self.cxy / (self.count - 1)

    @property
    def corr(self):
        if self.count < 2 or self.m2x <= 0.0 or self.m2y <= 0.0:
            return None
        return self.cxy / math.sqrt(self.m2x * self.m2y)
