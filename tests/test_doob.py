import math

import numpy as np
import pytest

from hxplore.doob import approx_gap, conditional_moments, decompose, duality_diagnostic
from hxplore.explore import ExplorationConfig, explore, run_exploration
from hxplore.oracle import enumerate_step
from hxplore.theory import drift_sequences, dual_lambda, p_from_lambda, rho_r
from hxplore.util import comb0
from test_explore import _sample_step


def test_moments_match_step_enumeration_fresh():
    law = enumerate_step(8, 3, 0.1, explored=[], active=[])
    mom = law.moments()
    cm = conditional_moments(8, 3, 0.1, t=1, active_excl=0, unseen_excl=7)
    assert abs(mom["mean_eta"] - cm.mean_eta) < 1e-10
    assert abs(mom["var_eta"] - cm.var_eta) < 1e-10
    assert abs(mom["mean_xi"] - cm.mean_xi) < 1e-10
    assert abs(mom["var_xi"] - cm.var_xi) < 1e-10
    assert abs(mom["cov_xi_eta"] - cm.cov_xi_eta) < 1e-10


def test_moments_match_step_enumeration_with_active():
    law = enumerate_step(8, 3, 0.1, explored=[0, 1], active=[2, 5])
    mom = law.moments()
    cm = conditional_moments(8, 3, 0.1, t=3, active_excl=1, unseen_excl=4)
    for key, val in (("mean_eta", cm.mean_eta), ("var_eta", cm.var_eta),
                     ("mean_xi", cm.mean_xi), ("var_xi", cm.var_xi),
                     ("cov_xi_eta", cm.cov_xi_eta)):
        assert abs(mom[key] - val) < 1e-10, key


def test_no_active_vertices_zero_xi_moments():
    cm = conditional_moments(50, 4, 0.001, t=5, active_excl=0, unseen_excl=45)
    assert cm.mean_xi == 0.0 and cm.var_xi == 0.0 and cm.cov_xi_eta == 0.0


def test_graph_case_pairs_are_independent():
    # r = 2: c2 = binom(., -1) = 0 makes pi2 = pi1^2 exactly, so the
    # covariance vanishes
    cm = conditional_moments(40, 2, 0.03, t=6, active_excl=5, unseen_excl=29)
    assert abs(cm.pi2 - cm.pi1**2) < 1e-15
    assert abs(cm.cov_xi_eta) < 1e-12


def test_moment_invariants():
    cm = conditional_moments(30, 3, 0.01, t=4, active_excl=6, unseen_excl=20)
    assert cm.var_eta >= 0 and cm.var_xi >= 0
    assert cm.pi2 <= cm.pi1 <= 1.0
    assert abs(cm.cov_xi_eta) <= math.sqrt(cm.var_eta * cm.var_xi) + 1e-15


def test_partition_contract_enforced():
    with pytest.raises(ValueError):
        conditional_moments(30, 3, 0.01, t=4, active_excl=6, unseen_excl=19)


def test_decompose_telescopes_to_x():
    n, r, lam = 3000, 3, 1.2
    p = p_from_lambda(n, r, lam)
    tr = explore(ExplorationConfig(n=n, r=r, p=p, seed=2))
    t1 = int(rho_r(r, lam) * n)
    seq = drift_sequences(n, r, p, t1)
    dt = decompose(tr, seq)
    assert np.abs(np.cumsum(dt.D + dt.Delta) - tr.X).max() < 1e-6
    # Shat telescopes the hat increments
    gam = seq.gamma[1 : t1 + 1]
    assert np.allclose(dt.Shat, np.cumsum(gam * dt.Delta[:t1] + dt.DeltaStar[:t1]))
    # S_t = sum beta^-1 Delta and Xtilde = x + beta S
    assert np.allclose(dt.S, np.cumsum(dt.Delta / seq.beta[1 : tr.n_steps + 1]))
    assert np.allclose(dt.Xtilde, seq.x[1 : tr.n_steps + 1] + seq.beta[1 : tr.n_steps + 1] * dt.S)


def test_decompose_parameter_mismatch():
    n, r, lam = 500, 3, 1.2
    p = p_from_lambda(n, r, lam)
    tr = explore(ExplorationConfig(n=n, r=r, p=p, seed=2))
    seq = drift_sequences(n, r, p * 1.0000001, 50)
    with pytest.raises(ValueError):
        decompose(tr, seq)


def test_decompose_requires_full_record():
    cfg = ExplorationConfig(n=200, r=3, p=p_from_lambda(200, 3, 1.1), seed=3)
    res = run_exploration(cfg, record="none")
    seq = drift_sequences(200, 3, cfg.p, 10)
    with pytest.raises(ValueError):
        decompose(res, seq)


def test_martingale_increments_mean_zero():
    # empirical mean of Delta_t at fixed small t over many runs is 0 within 3 SE
    n, r, lam = 60, 3, 1.2
    p = p_from_lambda(n, r, lam)
    seq = drift_sequences(n, r, p, 10)
    sums = np.zeros(5)
    R = 4000
    for seed in range(R):
        res = run_exploration(ExplorationConfig(n=n, r=r, p=p, seed=7_000_000 + seed),
                              record="full")
        dt = decompose(res, seq, t1=0)
        sums += dt.Delta[:5]
    means = sums / R
    cm_sd = math.sqrt(conditional_moments(n, r, p, 1, 0, n - 1).var_eta / R)
    assert np.all(np.abs(means) < 4 * cm_sd)


def test_zeta_mean_bounded_by_pair_count():
    # E[zeta_1] <= binom(n-1, r-1)(r-1) binom(n-2, r-2) p^2 + 3 SE
    n, r, p = 30, 3, 0.01
    rng = np.random.default_rng(99)
    zs = []
    for _ in range(60_000):
        _, _, _, zeta = _sample_step(rng, n, r, p, t=1, active_excl=0)
        zs.append(zeta)
    zs = np.asarray(zs, dtype=float)
    bound = comb0(n - 1, r - 1) * (r - 1) * comb0(n - 2, r - 2) * p * p
    se = zs.std() / math.sqrt(zs.size)
    assert zs.mean() <= bound + 3 * se


def test_approx_gap_finite_and_small():
    n, r, lam = 20_000, 3, 1.2
    p = p_from_lambda(n, r, lam)
    t1 = int(rho_r(r, lam) * n)
    seq = drift_sequences(n, r, p, t1)
    for seed in range(3):
        res = run_exploration(ExplorationConfig(n=n, r=r, p=p, seed=seed), record="full")
        dt = decompose(res, seq)
        gap = approx_gap(res, dt)
        assert 0.0 <= gap <= 10.0


def test_duality_diagnostic_prediction():
    n, r, lam = 50_000, 3, 1.2
    eps = lam - 1.0
    p = p_from_lambda(n, r, lam)
    t0 = int(4 * math.sqrt(n / eps))
    t1 = int(rho_r(r, lam) * n)
    seq = drift_sequences(n, r, p, t1)
    las = dual_lambda(lam)
    pairs = []
    for seed in range(30):
        cfg = ExplorationConfig(n=n, r=r, p=p, seed=seed, census_t0=t0,
                                stop_rule="giant", margin=2 * t0)
        res = run_exploration(cfg, record="full")
        dt = decompose(res, seq)
        cen_like = res  # RunResult carries T1
        dtt, pred = duality_diagnostic(dt, cen_like, las)
        pairs.append((dtt, pred))
    a = np.array([x for x, _ in pairs])
    b = np.array([y for _, y in pairs])
    assert np.corrcoef(a, b)[0, 1] > 0.8
    # trivial consistency: prediction scales linearly in Xtilde_t1
    assert abs(duality_diagnostic(dt, res, las)[1] - dt.Xtilde[t1 - 1] / (1 - las)) < 1e-12


def test_duality_requires_t1():
    n, r = 400, 3
    p = p_from_lambda(n, r, 1.2)
    cfg = ExplorationConfig(n=n, r=r, p=p, seed=1, census_t0=n)  # T1 never defined
    res = run_exploration(cfg, record="full")
    seq = drift_sequences(n, r, p, 30)
    dt = decompose(res, seq, t1=30)
    assert res.T1 is None
    with pytest.raises(ValueError):
        duality_diagnostic(dt, res, 0.9)
