import math
from statistics import NormalDist

import numpy as np
import pytest

from hxplore.stats import (
    chi_square_gof,
    chi_square_sf,
    ks_distance,
    normal_cdf,
    pair_moments,
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

# (stat, dof, upper tail): the rows of an earlier reference table for the
# regularized upper incomplete gamma Q(a, x) with 2a an integer, read as
# chi-square tails at stat = 2x and dof = 2a
_CHI_SQUARE_SF_AS_GAMMA_Q = [
    (0.4, 1, 0.5270892568655381),
    (6.0, 1, 0.01430587843542964),
    (2.0, 2, 0.36787944117144233),
    (1.4, 5, 0.924313272801667),
    (12.0, 5, 0.03478778050624185),
    (4.0, 10, 0.9473469826562888),
    (22.0, 10, 0.015104600652178418),
    (50.0, 20, 0.00022147663824878357),
    (15.0, 15, 0.45141721122572526),
]

# (dof, stat, upper tail to 40 digits), computed once by 60-digit
# arbitrary-precision evaluation; the tails at stat 1500 and dof 1, 2 and 3
# lie below the smallest double and read 0.0
_CHI_SQUARE_SF_REFERENCE = [
    (1, 1e-06, "9.992021155721778748308193551113461174630e-1"),
    (1, 0.5, "4.795001221869534623172533461080354712635e-1"),
    (1, 7.3, "6.895461063618972216526109268062383723473e-3"),
    (1, 40.0, "2.539628589470864970653362077014451130605e-10"),
    (1, 250.0, "2.596807039340185856931805706078370993061e-56"),
    (1, 1500.0, "3.915109884715374720125345377778645358486e-328"),
    (2, 1e-06, "9.999995000001249999791666692708330729167e-1"),
    (2, 0.5, "7.788007830714048682451702669783206472968e-1"),
    (2, 7.3, "2.599112877875534358064103955738822080183e-2"),
    (2, 40.0, "2.061153622438557827965940380155820976376e-9"),
    (2, 250.0, "5.166420632837860980252718607357557864276e-55"),
    (2, 1500.0, "1.901684963475006439995456236734016375233e-326"),
    (3, 1e-06, "9.999999997340385595208200470564994040598e-1"),
    (3, 0.5, "9.188914116546758593641153235202644204448e-1"),
    (3, 7.3, "6.292623645904316155298671262328559430794e-2"),
    (3, 40.0, "1.065509033425586081504872344301095164561e-8"),
    (3, 250.0, "6.543750030967993599276075128292641970260e-54"),
    (3, 1500.0, "5.880489844011167661121319430684870115646e-325"),
    (7, 1e-06, "9.999999999999999999999924011023760524904e-1"),
    (7, 0.5, "9.994464813904249654893733527125063944614e-1"),
    (7, 7.3, "3.983264579760523589210398843076517328665e-1"),
    (7, 40.0, "1.258790387371308778973055191680151735551e-6"),
    (7, 250.0, "2.770711708247298289160299362786369024837e-50"),
    (7, 1200.0, "7.061924746633293711532547607146528776850e-255"),
    (8, 1e-06, "9.999999999999999999999999973958343749998e-1"),
    (8, 0.5, "9.998666303494859376168462021362293727013e-1"),
    (8, 7.3, "5.046378000679686195288225271413511269544e-1"),
    (8, 40.0, "3.203719780476998383935059997555531070947e-6"),
    (8, 250.0, "1.722791179945691230567751378330379673716e-49"),
    (8, 1200.0, "9.589294017602432092593404194856131116053e-254"),
    (20, 1e-06, "1.000000000000000000000000000000000000000"),
    (20, 0.5, "9.999999999997905751460002638883974585011e-1"),
    (20, 7.3, "9.955787882774722800532587499514585528788e-1"),
    (20, 40.0, "4.995412308307587166189271786748858788314e-3"),
    (20, 250.0, "1.142309352316371498093040365712961185917e-41"),
    (20, 1500.0, "3.982564943176597205689702882870562781232e-306"),
    (41, 1e-06, "1.000000000000000000000000000000000000000"),
    (41, 0.5, "9.999999999999999999999999999999676686384e-1"),
    (41, 7.3, "9.999999990511394730235426243912492013575e-1"),
    (41, 40.0, "5.149516203003768132790497393080219390815e-1"),
    (41, 250.0, "8.769064303180207349657093667871934389083e-32"),
    (41, 1500.0, "4.181796217011157602819090884190080711905e-288"),
    (200, 1e-06, "1.000000000000000000000000000000000000000"),
    (200, 40.0, "9.999999999999999999999999999999999996511e-1"),
    (200, 150.0, "9.966475585018130081102592075028274197724e-1"),
    (200, 200.0, "4.867012017208513351426857434359708365291e-1"),
    (200, 250.0, "9.379131668826096107215512888457097059712e-3"),
    (200, 1500.0, "1.003642829061433888208805824145080686759e-197"),
]


def test_normal_cdf_reference_values():
    for x, want in _NORMAL_CDF_REFERENCE:
        assert abs(normal_cdf(x) - want) <= 1e-13 * max(1.0, abs(want))


def test_chi_square_sf_reference_values():
    for stat, dof, want in _CHI_SQUARE_SF_AS_GAMMA_Q:
        assert abs(chi_square_sf(stat, dof) - want) <= 1e-12 * want
    for dof, stat, digits in _CHI_SQUARE_SF_REFERENCE:
        want = float(digits)
        # a tail that underflows must read 0.0, not NaN
        assert abs(chi_square_sf(stat, dof) - want) <= 1e-12 * want, (dof, stat)
        assert chi_square_sf(0.0, dof) == 1.0


def test_chi_square_sf_rejects_bad_input():
    for dof in (0, -1, 2.5):
        with pytest.raises(ValueError):
            chi_square_sf(1.0, dof)
    for stat in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            chi_square_sf(stat, 3)


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


def test_pair_moments_keep_a_spread_that_floats_lose():
    # near 2**62 a float's ulp is 1024, so float() maps all three values to 2**62
    base = 2**62
    xs, ys = [base, base + 1, base + 2], [5, 3, 1]
    assert len({float(x) for x in xs}) == 1
    m = pair_moments(xs, ys)
    assert (m.mean_x, m.var_x, m.mean_y, m.var_y, m.cov, m.corr) == (float(base + 1), 1.0, 3.0,
                                                                      4.0, -2.0, -1.0)


def test_pair_moments_none_rules():
    assert pair_moments([4], [-1]) == (4.0, None, -1.0, None, None, None)
    m = pair_moments([2, 2, 2], [1, 5, 6])
    assert (m.var_x, m.cov, m.corr) == (0.0, 0.0, None) and m.var_y == 7.0
    with pytest.raises(ValueError):
        pair_moments([], [])
    with pytest.raises(ValueError):
        pair_moments([1, 2], [1])
    with pytest.raises(TypeError):
        pair_moments([1.5, 2.0], [1, 2])  # integers only, whose sums are exact
