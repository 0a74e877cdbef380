import math
from decimal import Decimal

import numpy as np
import pytest

from hxplore.theory import (
    clt_targets,
    derived_constants,
    drift_sequences,
    dual_lambda,
    g_eval,
    h_eval,
    integrate_h,
    lambda_from_p,
    p_from_lambda,
    rho_r,
    rho_star,
    solve_rho,
)

GRID = [(r, lam) for r in (2, 3, 4, 7) for lam in (1.05, 1.2, 1.5, 2.0)]


def test_lambda_from_p_inverts_p_from_lambda():
    for n, r, lam in ((300_000, 3, 1.15), (20_000, 2, 0.7), (40, 10, 3.0)):
        assert abs(lambda_from_p(n, r, p_from_lambda(n, r, lam)) - lam) <= 1e-14 * lam


def test_solve_rho_known_value():
    # bisection value cross-checked by substituting into 1 - rho = e^(-2 rho)
    rho = solve_rho(2.0)
    assert abs(rho - 0.79681213002002) < 1e-12
    assert abs(1.0 - rho - math.exp(-2.0 * rho)) < 1e-14


def test_solve_rho_rejects_subcritical():
    for lam in (1.0, 0.9, 0.2):
        with pytest.raises(ValueError):
            solve_rho(lam)


def test_solve_rho_degenerate_limit():
    # rho -> 0 as lambda -> 1+: at lambda = 1 + 1e-6 the root is near 2e-6
    rho = solve_rho(1.0 + 1e-6)
    assert 1e-6 < rho < 4e-6
    assert abs(rho / 2e-6 - 1.0) < 0.01


# solve_rho's bits on a grid of lambda in (1, 36.3], where its bracket closes below 1
RHO_BITS = (
    (1.0000001, "0x1.ad7f25eb71c08p-23"),
    (1.001, "0x1.05cb7d62f1c4dp-9"),
    (1.05, "0x1.7fcd7f5cda0a6p-4"),
    (1.15, "0x1.fdf4c9d9b72aap-3"),
    (1.2, "0x1.413a22a286f9bp-2"),
    (1.5, "0x1.2a6649ac4368dp-1"),
    (2.0, "0x1.97f7c26efbf2bp-1"),
    (3.0, "0x1.e186912f46296p-1"),
    (5.0, "0x1.fc6d7d927f92cp-1"),
    (10.0, "0x1.fffa0bf066835p-1"),
    (20.0, "0x1.ffffffee4b79ap-1"),
    (30.0, "0x1.ffffffffffcb5p-1"),
    (36.0, "0x1.ffffffffffffep-1"),
    (36.3, "0x1.ffffffffffffep-1"),
)


@pytest.mark.parametrize("lam,bits", RHO_BITS)
def test_solve_rho_keeps_its_bits_where_the_bracket_closes(lam, bits):
    assert solve_rho(lam).hex() == bits


@pytest.mark.parametrize("lam", [36.4, 40.0, 700.0])
def test_solve_rho_up_to_its_guard(lam):
    # the root lies within an ulp or two of 1 here, where the bracket's top rounds to a zero of f
    rho = solve_rho(lam)
    assert 0.0 < rho <= 1.0
    assert abs(1.0 - rho - math.exp(-lam * rho)) <= 2.0**-52


def test_fixed_point_residuals_on_grid():
    for r, lam in GRID:
        c = derived_constants(r, lam)
        assert abs(1.0 - c.rho_lambda - math.exp(-lam * c.rho_lambda)) < 1e-12
        assert abs(c.lambda_star * math.exp(-c.lambda_star) - lam * math.exp(-lam)) < 1e-12
        assert 0.0 < c.lambda_star < 1.0
        assert abs((1.0 - c.rho_r) ** (r - 1) - (1.0 - c.rho_lambda)) < 1e-10
        assert c.rho_star > 0.0


def test_dual_lambda_examples():
    assert abs(dual_lambda(2.0) - 0.40637573995996) < 1e-10
    # symmetric about 1 to first order
    las = dual_lambda(1.0 + 1e-6)
    assert abs(las - (1.0 - 1e-6)) < 1e-9
    las15 = dual_lambda(1.5)
    assert las15 < 1.0
    assert abs(las15 * math.exp(-las15) - 1.5 * math.exp(-1.5)) < 1e-12


# lambda, then lambda*, rho_r at r = 3 and rho_r at r = 10 to 25 digits, from 50-digit mpmath:
# lambda* = -W0(-lambda e^-lambda) and rho_r = -expm1(log(lambda* / lambda) / (r - 1))
REFERENCE = (
    (1 + 1e-9, "0.9999999989999999179262958", "1.000000081907037528578639e-9", "2.222222405102058847563236e-10"),
    (1 + 1e-8, "0.9999999900000001274413751", "9.999999855891958692579197e-9", "2.222222198840188153573431e-9"),
    (1 + 1e-6, "0.9999990000006667484887508", "9.99999166585122387404396e-7", "2.222221234385763371668153e-7"),
    (1.0001, "0.9999000066662222658241912", "9.999166738881297586372889e-5", "2.222123463556621246367786e-5"),
    (1.05, "0.9516130710734533336351195", "0.04800306569448535085233603", "0.01087234512465871130082858"),
    (1.2, "0.8235620027505387586842288", "0.171566738379739894993747", "0.04096378751479816113204977"),
    (2.0, "0.4063757399599599076769581", "0.549236347982692870455558", "0.1622783237330383881075563"),
    (5.0, "0.03488576825572369630124087", "0.9164706419805303468280631", "0.4240182824086054552646769"),
    (10.0, "0.000454205553464826900933564", "0.9932605226206713409510022", "0.6707903982969550819384891"),
    (20.0, "4.122307414811296375409126e-8", "0.9999546000693017528033616", "0.8916319762817415629634167"),
    (30.0, "2.80728689065993324116121e-12", "0.9999996940976794977448338", "0.9643260066527364749362436"),
    (36.5, "5.135045250428462069148259e-15", "0.9999999881388798486561397", "0.982674147964124904955355"),
    (40.0, "1.699341702116635886907916e-16", "0.999999997938846377561442", "0.9882563715429786363615983"),
    (100.0, "3.720075976020835962959696e-42", "0.9999999999999999999998071", "0.999985054661475218554441"),
    (300.0, "1.544460066723604134346459e-128", "1.0", "0.9999999999999966617622046"),
    (700.0, "6.901773580631839599693761e-302", "1.0", "1.0"),
)


def _ulps(x, ref):
    return float(abs(Decimal(x) - Decimal(ref)) / Decimal(math.ulp(float(ref))))


@pytest.mark.parametrize("lam,lam_star,rho3,rho10", REFERENCE, ids=[repr(row[0]) for row in REFERENCE])
def test_closed_forms_match_the_reference(lam, lam_star, rho3, rho10):
    las = dual_lambda(lam)
    assert 0.0 < las < 1.0
    assert _ulps(las, lam_star) <= (2.0 if lam <= 3.0 else 16.0)
    if lam >= 1.05:  # below, rho_r inherits solve_rho's error, which grows like 1/eps
        assert _ulps(rho_r(3, lam), rho3) <= 6.0
        assert _ulps(rho_r(10, lam), rho10) <= 6.0


def test_duality_sandwich():
    # 1 - 1.5 eps <= lambda* <= 1 - 0.3 eps on (1, 2]
    for eps in np.geomspace(1e-4, 1.0, 25):
        las = dual_lambda(1.0 + eps)
        assert 1.0 - 1.5 * eps <= las <= 1.0 - 0.3 * eps


def test_rho_r_reduces_to_rho_for_graphs():
    for lam in (1.05, 1.3, 2.0):
        assert abs(rho_r(2, lam) - solve_rho(lam)) < 1e-14


def test_rho_r_value():
    # direct evaluation, cross-checked through (1 - rho_r)^2 = 1 - rho_lambda
    rr = rho_r(3, 2.0)
    assert abs(rr - (1.0 - math.sqrt(1.0 - 0.79681213002002))) < 1e-12
    assert abs(rr - 0.549236) < 2e-5


def test_rho_star_values():
    rho = solve_rho(2.0)
    want = (2.0 / 2.0) * (1.0 - (1.0 - rho) ** 2) - rho
    assert abs(rho_star(2, 2.0) - want) < 1e-14
    assert abs(rho_star(2, 2.0) - 0.161903) < 2e-5


def test_series_asymptotics_limits():
    # leading-order ratios approach 1 as eps -> 0
    for r in (2, 3, 5):
        eps = 1e-4
        lam = 1.0 + eps
        assert abs(solve_rho(lam) / (2 * eps) - 1.0) < 0.01
        assert abs(rho_r(r, lam) / (2 * eps / (r - 1)) - 1.0) < 0.01
        assert abs(rho_star(r, lam) / (2.0 / 3.0 * eps**3 / (r - 1) ** 2) - 1.0) < 0.05


def test_series_remainder_scaling():
    # |rho - (2 eps - 8/3 eps^2)| shrinks cubically under eps halving
    errs = [abs(solve_rho(1 + e) - (2 * e - 8 / 3 * e * e)) for e in (0.2, 0.1, 0.05)]
    for a, b in zip(errs[1:], errs[:-1]):
        assert 0.08 <= a / b <= 0.18


def test_g_properties():
    # derivatives by central differences of g_eval; concavity makes rho_r the unique root in (0, 1]
    h = 1e-6

    def slope(r, lam, tau):
        return (g_eval(r, lam, tau + h) - g_eval(r, lam, tau - h)) / (2.0 * h)

    grid = np.linspace(0.0, 1.0, 1001)
    for r, lam in GRID:
        assert abs(g_eval(r, lam, 0.0)) < 1e-15
        assert abs(slope(r, lam, 0.0) - (lam - 1.0)) < 1e-8
        rho = rho_r(r, lam)
        assert abs(g_eval(r, lam, rho)) < 1e-10
        assert abs(slope(r, lam, rho) + (1.0 - dual_lambda(lam))) < 1e-8
        g = g_eval(r, lam, grid)
        assert np.all(g[:-2] - 2.0 * g[1:-1] + g[2:] <= 1e-13)


def test_g_sign_structure():
    # g > 0 on (0, c2 eps], g(rho - tau) > 0, g(rho + tau) < 0
    c2 = 0.1
    for r in (2, 3, 5):
        for lam in (1.05, 1.5, 2.0):
            eps = lam - 1.0
            rho = rho_r(r, lam)
            taus = np.linspace(c2 * eps / 50, c2 * eps, 50)
            assert np.all(g_eval(r, lam, taus) > 0)
            assert np.all(g_eval(r, lam, rho - taus) > 0)
            assert np.all(g_eval(r, lam, rho + taus) < 0)


def test_h_reduces_and_vanishes():
    taus = np.linspace(0, 1, 101)
    assert np.allclose(h_eval(2, 1.7, taus), 1.7 * g_eval(2, 1.7, taus))
    assert abs(h_eval(3, 1.3, rho_r(3, 1.3))) < 1e-10


def test_quadrature_identity():
    for r in (2, 3, 4, 7):
        for lam in (1.05, 1.2, 1.5, 2.0):
            rho = rho_r(r, lam)
            assert abs(integrate_h(r, lam, 0.0, rho) - rho_star(r, lam)) < 1e-9


def test_rho_star_equals_quadrature_example():
    assert abs(integrate_h(3, 1.3, 0.0, rho_r(3, 1.3)) - rho_star(3, 1.3)) < 1e-9


def test_drift_sequences_basics():
    n, r, lam = 500, 3, 1.2
    p = p_from_lambda(n, r, lam)
    t1 = int(rho_r(r, lam) * n)
    seq = drift_sequences(n, r, p, t1)
    assert seq.beta[0] == 1.0
    assert seq.x[0] == 0.0
    assert np.all(np.diff(seq.beta) <= 0.0)
    # alpha_t = p binom(n - t - 1, r - 2) > 0, so beta strictly decreases, up to t = n - r + 1
    assert np.all(np.diff(seq.beta)[: n - r + 1] < 0.0)
    assert np.all((seq.beta > 0.0) & (seq.beta <= 1.0))
    assert seq.gamma[t1] == 0.0
    assert np.allclose(seq.x, n - np.arange(n + 1) - n * seq.beta)


def test_drift_sequences_rejects_large_alpha():
    with pytest.raises(ValueError):
        drift_sequences(10, 3, 0.2, 5)


def test_drift_matches_g_envelope():
    # sup_t |x_t - n g(t/n)| stays within the frozen envelope of 5
    n, r, lam = 100_000, 3, 1.2
    p = p_from_lambda(n, r, lam)
    t1 = int(rho_r(r, lam) * n)
    seq = drift_sequences(n, r, p, t1)
    tt = np.arange(n + 1) / n
    assert np.max(np.abs(seq.x - n * g_eval(r, lam, tt))) <= 5.0
    # gamma_t = (t1 - t)/n + O(eps^2), frozen envelope 10 eps^2
    eps = lam - 1.0
    ideal = (t1 - np.arange(t1 + 1)) / n
    assert np.max(np.abs(seq.gamma[1:] - ideal[1:])) <= 10.0 * eps * eps


def test_clt_targets():
    t = clt_targets(300_000, 3, 0.15)
    assert abs(t.corr - math.sqrt(3.0 / 5.0)) < 1e-15
    assert abs(t.sd_L1 - 2000.0) < 1e-9
    assert abs(t.mean_L1 - rho_r(3, 1.15) * 300_000) < 1e-9
    assert abs(t.sd_N1 - math.sqrt(10.0 / 3.0) / 2.0 * math.sqrt(0.15**3 * 300_000)) < 1e-12
    # r = 2 drops the (r-1)^-1 factor
    t2 = clt_targets(1000, 2, 0.2)
    assert abs(t2.sd_N1 - math.sqrt(10.0 / 3.0) * math.sqrt(0.2**3 * 1000)) < 1e-12
    with pytest.raises(ValueError):
        clt_targets(1000, 3, 0.0)
