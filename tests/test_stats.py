import math
from statistics import NormalDist

import numpy as np
import pytest

from hxplore.stats import (
    BivariateMoments,
    chi_square_gof,
    chi_square_sf,
    gamma_q,
    ks_distance,
    normal_cdf,
    wilson_interval,
)

# reference values computed once by 40-digit arbitrary-precision evaluation
_NORMAL_CDF_REFERENCE = [
    (-8.0, 6.220960574271784e-16),
    (-5.5, 1.8989562465887718e-08),
    (-4.0, 3.1671241833119924e-05),
    (-3.25, 0.000577025042390767),
    (-2.5, 0.006209665325776135),
    (-2.0, 0.02275013194817921),
    (-1.5, 0.06680720126885807),
    (-1.0, 0.15865525393145705),
    (-0.75, 0.2266273523768682),
    (-0.5, 0.3085375387259869),
    (-0.25, 0.4012936743170763),
    (0.0, 0.5),
    (0.125, 0.5497382248301129),
    (0.5, 0.6914624612740131),
    (1.0, 0.8413447460685429),
    (1.75, 0.9599408431361829),
    (2.5, 0.9937903346742238),
    (3.5, 0.9997673709209645),
    (5.0, 0.9999997133484281),
    (7.5, 0.9999999999999681),
]

_GAMMA_Q_REFERENCE = [
    (0.5, 0.2, 0.5270892568655381),
    (0.5, 3.0, 0.01430587843542964),
    (1.0, 1.0, 0.36787944117144233),
    (2.5, 0.7, 0.924313272801667),
    (2.5, 6.0, 0.03478778050624185),
    (5.0, 2.0, 0.9473469826562888),
    (5.0, 11.0, 0.015104600652178418),
    (10.0, 25.0, 0.00022147663824878357),
    (0.05, 0.001, 0.27282077094707735),
    (7.5, 7.5, 0.45141721122572526),
]


def test_normal_cdf_reference_values():
    for x, want in _NORMAL_CDF_REFERENCE:
        assert abs(normal_cdf(x) - want) <= 1e-13 * max(1.0, abs(want))


def test_gamma_q_reference_values():
    for a, x, want in _GAMMA_Q_REFERENCE:
        assert abs(gamma_q(a, x) - want) <= 1e-12 * max(1.0, want) + 1e-15
    assert gamma_q(3.0, 0.0) == 1.0


def test_chi_square_sf_against_known():
    # chi2 sf(x; 2) = exp(-x/2)
    for x in (0.1, 1.0, 5.0, 20.0):
        assert abs(chi_square_sf(x, 2) - math.exp(-x / 2)) < 1e-12


def test_ks_distance_extremes():
    # samples from the quantile function itself are close to uniform on Phi
    inv_cdf = NormalDist().inv_cdf
    qs = [inv_cdf((i + 0.5) / 1000) for i in range(1000)]
    assert ks_distance(qs) < 0.001
    assert abs(ks_distance([0.0] * 100) - 0.5) < 1e-12


def test_chi_square_gof_calibration():
    rng = np.random.default_rng(7)
    probs = {0: 0.5, 1: 0.3, 2: 0.2}
    pvals = []
    for _ in range(200):
        draws = rng.choice(3, size=500, p=[0.5, 0.3, 0.2])
        counts = {int(k): int(v) for k, v in zip(*np.unique(draws, return_counts=True))}
        _, _, pv = chi_square_gof(counts, probs)
        pvals.append(pv)
    # under the null, p-values are roughly uniform
    assert 0.02 <= np.mean(np.asarray(pvals) < 0.1) <= 0.25


def test_chi_square_gof_detects_bias():
    counts = {0: 400, 1: 100}
    _, _, pv = chi_square_gof(counts, {0: 0.5, 1: 0.5})
    assert pv < 1e-6


def test_chi_square_gof_rejects_stray_mass():
    with pytest.raises(ValueError):
        chi_square_gof({0: 10, 5: 10}, {0: 0.5, 1: 0.5})


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo <= 1e-12 and hi > 0.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(5, 0)


def test_wilson_interval_coverage():
    # the 95% interval covers the truth in >= 93% of 1000 synthetic trials
    rng = np.random.default_rng(11)
    for q in (0.01, 0.1):
        hits = 0
        for _ in range(1000):
            k = rng.binomial(500, q)
            lo, hi = wilson_interval(int(k), 500)
            hits += lo <= q <= hi
        assert hits >= 930


def test_bivariate_moments_match_numpy():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=1000)
    ys = rng.normal(size=1000) + 0.3 * xs
    bm = BivariateMoments()
    for x, y in zip(xs, ys):
        bm.add(float(x), float(y))
    assert abs(bm.var_x - xs.var(ddof=1)) < 1e-10
    assert abs(bm.var_y - ys.var(ddof=1)) < 1e-10
    want_cov = float(np.cov(xs, ys, ddof=1)[0, 1])
    assert abs(bm.cov - want_cov) < 1e-10
    want_corr = float(np.corrcoef(xs, ys)[0, 1])
    assert abs(bm.corr - want_corr) < 1e-10


def test_moments_single_observation():
    m = BivariateMoments()
    m.add(4.2, -1.0)
    assert (m.mean_x, m.mean_y) == (4.2, -1.0)
    assert m.var_x is None and m.var_y is None and m.cov is None and m.corr is None
