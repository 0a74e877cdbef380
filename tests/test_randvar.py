import math

import numpy as np
import pytest

import hxplore.randvar as randvar_module
from hxplore.randvar import sample_binomial, sample_binomial_array
from hxplore.stats import chi_square_gof


def _exact_pmf(n, p):
    return {k: math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)}


def test_scalar_matches_exact_pmf_small():
    rng = np.random.default_rng(1)
    counts = {}
    for _ in range(40_000):
        k = sample_binomial(rng, 5, 0.3)
        counts[k] = counts.get(k, 0) + 1
    _, _, pv = chi_square_gof(counts, _exact_pmf(5, 0.3))
    assert pv > 0.001


def test_mode_centered_path_matches_exact_pmf():
    # Np = 40 > 30 exercises the mode-centered inversion
    rng = np.random.default_rng(2)
    counts = {}
    for _ in range(30_000):
        k = sample_binomial(rng, 80, 0.5)
        counts[k] = counts.get(k, 0) + 1
    _, _, pv = chi_square_gof(counts, _exact_pmf(80, 0.5))
    assert pv > 0.001


def test_huge_trial_count_moments():
    # N = 1e15 with Np = 2.5: naive powering of 1 - p would be useless here
    rng = np.random.default_rng(3)
    n_trials, p = 10**15, 2.5e-15
    draws = np.array([sample_binomial(rng, n_trials, p) for _ in range(20_000)])
    mean = n_trials * p
    se = math.sqrt(mean / draws.size)
    assert abs(draws.mean() - mean) < 4 * se
    assert abs(draws.var() - mean) / mean < 0.05


def test_float_trial_count_beyond_int64():
    rng = np.random.default_rng(4)
    draws = [sample_binomial(rng, 1e18, 3e-18) for _ in range(5000)]
    assert abs(np.mean(draws) - 3.0) < 4 * math.sqrt(3.0 / 5000)


def test_extremely_small_p_yields_zero():
    rng = np.random.default_rng(5)
    assert all(sample_binomial(rng, 10**8, 1e-300) == 0 for _ in range(100))


def test_edge_cases():
    rng = np.random.default_rng(6)
    assert sample_binomial(rng, 0, 0.5) == 0
    assert sample_binomial(rng, 17, 0.0) == 0
    assert sample_binomial(rng, 17, 1.0) == 17
    with pytest.raises(ValueError):
        sample_binomial(rng, 10, 1.5)
    with pytest.raises(ValueError):
        sample_binomial(rng, -1, 0.5)


def test_array_sampler_matches_exact_pmf():
    rng = np.random.default_rng(7)
    trials = np.full(60_000, 7.0)
    draws = sample_binomial_array(rng, trials, 0.25)
    counts = {int(k): int(v) for k, v in zip(*np.unique(draws, return_counts=True))}
    _, _, pv = chi_square_gof(counts, _exact_pmf(7, 0.25))
    assert pv > 0.001


def test_array_sampler_mixed_trial_counts():
    rng = np.random.default_rng(8)
    trials = np.array([0.0, 1.0, 10.0, 1e6, 1e12] * 2000)
    p = 1e-6
    draws = sample_binomial_array(rng, trials, p)
    assert draws.shape == trials.shape
    assert np.all(draws >= 0)
    assert np.all(draws[trials == 0.0] == 0)
    big = draws[trials == 1e12]
    mean = 1e12 * p
    assert abs(big.mean() - mean) < 5 * math.sqrt(mean / big.size)


def test_array_sampler_routes_large_means():
    rng = np.random.default_rng(9)
    trials = np.full(3000, 1000.0)
    draws = sample_binomial_array(rng, trials, 0.1)  # Np = 100 > cutoff
    assert abs(draws.mean() - 100.0) < 5 * math.sqrt(90.0 / 3000)
    assert np.all(draws <= 1000)


def test_samplers_are_deterministic_given_seed():
    a = sample_binomial_array(np.random.default_rng(42), np.full(100, 50.0), 0.1)
    b = sample_binomial_array(np.random.default_rng(42), np.full(100, 50.0), 0.1)
    assert (a == b).all()


def test_short_array_path_matches_lane_path(monkeypatch):
    # a short array's one-row table, walked entry by entry, must return the
    # draws of the full table of the same array and leave the stream where the
    # full table leaves it
    gen = np.random.default_rng(2024)
    for case in range(60):
        size = int(gen.integers(0, 80))
        trials = np.floor(10.0 ** gen.uniform(0.0, 13.0, size))
        trials[gen.random(size) < 0.2] = 0.0
        p = float(10.0 ** gen.uniform(-13.0, -0.05)) if case % 10 else 0.0
        draws = []
        for short in (0, 10**9):
            monkeypatch.setattr(randvar_module, "_SHORT_ARRAY", short)
            rng = np.random.default_rng(case)
            draws.append((sample_binomial_array(rng, trials, p).tolist(), rng.random()))
        assert draws[0] == draws[1], (case, size, p)


def test_table_lookup_equals_scalar_walk():
    # every draw of binomial_table + sample_binomial_table is the scalar CDF walk
    # on the same uniform (the mode-centred one above the cutoff), and the call
    # reads exactly one uniform per entry
    gen = np.random.default_rng(2025)
    rows_passed = support_ended = big_seen = 0
    for case in range(80):
        size = int(gen.choice([int(gen.integers(1, 60)), int(gen.integers(65, 3000))]))
        p = float(10.0 ** gen.uniform(-12.0, math.log10(0.5)))
        mean = 10.0 ** gen.uniform(-3.0, math.log10(40.0), size)  # up to above the cutoff
        trials = np.maximum(np.floor(mean / p), 0.0)
        trials[gen.random(size) < 0.1] = 0.0
        trials[gen.random(size) < 0.1] = 1.0
        rng = np.random.default_rng(case)
        table = randvar_module.binomial_table(trials, p)
        draws = randvar_module.sample_binomial_table(rng, table)
        ref_rng = np.random.default_rng(case)
        u = ref_rng.random(size)
        pmf0 = np.exp(trials * math.log1p(-p))  # P(0) as the vectorised paths compute it
        pq = p / (1.0 - p)
        want = [randvar_module._sample_mode_centered(ui, c, p)
                if c * p > randvar_module.INVERSION_MEAN_CUTOFF
                else randvar_module._invert_from_zero(ui, c, pmf, pq)
                for ui, c, pmf in zip(u.tolist(), trials.tolist(), pmf0.tolist())]
        assert draws.tolist() == want, case
        assert rng.random() == ref_rng.random(), case
        rows_passed += int(np.sum(draws >= table.cum.shape[0]))
        support_ended += int(np.sum(np.isinf(table.cum)))
        big_seen += table.big.size
    assert rows_passed > 100 and support_ended > 100 and big_seen > 100


@pytest.mark.parametrize("mean", [2.0, 4.0, 8.0, 16.0, 29.0])
def test_table_rows_reach_the_cutoff_mean(mean):
    # up to the cutoff mean a table has enough rows that almost no entry of
    # 4,096 passes them all, and its lookup is the scalar walk draw for draw
    p = 1e-9
    trials = np.full(4096, math.floor(mean / p))
    table = randvar_module.binomial_table(trials, p)
    draws = randvar_module.sample_binomial_table(np.random.default_rng(int(mean)), table)
    assert int(np.sum(draws >= table.cum.shape[0])) <= 3
    u = np.random.default_rng(int(mean)).random(trials.size)
    pmf0 = np.exp(trials * math.log1p(-p))  # P(0) as the table computes it
    want = [randvar_module._invert_from_zero(ui, c, pmf, p / (1.0 - p))
            for ui, c, pmf in zip(u.tolist(), trials.tolist(), pmf0.tolist())]
    assert draws.tolist() == want
