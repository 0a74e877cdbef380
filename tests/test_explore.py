import dataclasses
import math
import random
import weakref

import numpy as np
import pytest

import hxplore.explore as explore_module
from hxplore.doob import conditional_moments
from hxplore.explore import (
    ExplorationConfig,
    census,
    explore,
    materialize,
    run_exploration,
    _step_counts,
)
from hxplore.oracle import enumerate_all
from hxplore.randvar import sample_binomial
from hxplore.stats import chi_square_gof
from hxplore.theory import p_from_lambda
from hxplore.util import comb0


def _sample_step(rng, n: int, r: int, p: float, t: int, active_excl: int):
    """Sample one implicit exploration step outcome.

    Given t and the number `active_excl` of active vertices other than v_t,
    returns (edge_count, eta, xi, zeta) with the exact conditional law of
    the exploration of H^r(n, p).
    """
    m = n - t
    k = sample_binomial(rng, comb0(m, r - 1), p)
    if k == 0:
        return 0, 0, 0, 0
    u = rng.random(r - 1).tolist() if k == 1 else None
    return (k, *_step_counts(rng.random, m, active_excl, r - 1, k, u))


def _trace_identities(tr, n, r):
    rr = r - 1
    assert (tr.X == tr.A - tr.C).all()
    assert (np.diff(np.concatenate([[0], tr.X])) + 1 == tr.eta).all()
    assert (tr.eta <= rr * tr.edge_counts).all()
    assert (tr.nullity_inc == rr * tr.edge_counts - tr.eta).all()
    assert ((tr.xi <= tr.nullity_inc) & (tr.nullity_inc <= tr.xi + tr.zeta)).all()
    assert sum(c.vertices for c in tr.components) == n
    assert tr.X[-1] == -len(tr.components)
    for c in tr.components:
        assert c.nullity == 1 + rr * c.edges - c.vertices
        assert c.vertices == c.t_end - c.t_start
    # nullity is additive over components and matches the global formula
    assert sum(c.nullity for c in tr.components) == tr.total_nullity
    assert tr.total_nullity == len(tr.components) + rr * tr.total_edges - n


def test_config_validation():
    with pytest.raises(ValueError):
        ExplorationConfig(n=0, r=3, p=0.1, seed=1)
    with pytest.raises(ValueError):
        ExplorationConfig(n=10, r=1, p=0.1, seed=1)
    with pytest.raises(ValueError):
        ExplorationConfig(n=10, r=3, p=1.5, seed=1)
    with pytest.raises(ValueError):
        ExplorationConfig(n=10, r=3, p=0.1, seed=1, mode="magic")
    with pytest.raises(ValueError):
        ExplorationConfig(n=10, r=3, p=0.9, seed=1)  # branching factor blown
    with pytest.raises(ValueError):
        ExplorationConfig(n=10, r=3, p=0.01, seed=1, stop_rule="giant")  # no census_t0
    with pytest.raises(ValueError, match="census_t0 must be nonnegative"):
        ExplorationConfig(n=10, r=3, p=0.01, seed=1, stop_rule="giant", census_t0=-5)
    with pytest.raises(ValueError, match=r"n must lie in \[1, 2\*\*63\)"):
        ExplorationConfig(n=2**63, r=3, p=1e-40, seed=1)
    with pytest.raises(ValueError):
        ExplorationConfig(n=10**6, r=3, p=1e-12, seed=1, mode="explicit")
    with pytest.raises(ValueError):
        ExplorationConfig(n=10, r=3, p=0.01, seed=-1)


def test_record_level_is_none_or_full():
    cfg = ExplorationConfig(n=10, r=3, p=0.01, seed=1)
    for record in ("light", "partial"):
        with pytest.raises(ValueError):
            run_exploration(cfg, record=record)


def test_single_vertex():
    tr = explore(ExplorationConfig(n=1, r=3, p=0.1, seed=7))
    assert tr.n_steps == 1
    assert len(tr.components) == 1
    c = tr.components[0]
    assert (c.index, c.t_start, c.t_end, c.vertices, c.edges, c.nullity) == (1, 0, 1, 1, 0, 0)


def test_p_near_zero_explicit_all_isolated():
    cfg = ExplorationConfig(n=12, r=3, p=1e-300, seed=3, mode="explicit")
    tr = explore(cfg)
    assert len(tr.components) == 12
    assert all(c.vertices == 1 and c.edges == 0 and c.nullity == 0 for c in tr.components)
    cen = census(tr, t0=3)
    assert cen.L1 == 1 and cen.N1 == 0
    assert cen.Z == 3 and cen.T0 == 3 and cen.T1 == 4


def test_determinism_same_seed():
    cfg = ExplorationConfig(n=400, r=3, p=p_from_lambda(400, 3, 1.2), seed=99)
    a, b = explore(cfg), explore(cfg)
    assert np.array_equal(a.eta, b.eta) and np.array_equal(a.xi, b.xi)
    assert np.array_equal(a.edge_counts, b.edge_counts)
    c = explore(ExplorationConfig(n=400, r=3, p=cfg.p, seed=100))
    assert not np.array_equal(a.edge_counts, c.edge_counts)


def test_run_without_tables_builds_its_own_and_keeps_none(monkeypatch):
    # a full-stop run at n = 20,000 reads 5 chunks of 4,096 steps; each run builds
    # its tables as it reaches their chunks and frees them
    built = []
    build = explore_module.binomial_table

    def counting(*args):
        table = build(*args)
        built.append(weakref.ref(table.cum))
        return table

    monkeypatch.setattr(explore_module, "binomial_table", counting)
    cfg = ExplorationConfig(n=20_000, r=3, p=p_from_lambda(20_000, 3, 1.2), seed=3)
    assert run_exploration(cfg) == run_exploration(cfg)
    assert len(built) == 2 * 5
    assert [ref() for ref in built] == [None] * 10


@pytest.mark.parametrize("mode,n,r,lam", [
    ("implicit", 700, 2, 1.3), ("implicit", 900, 4, 0.8),
    ("explicit", 300, 2, 1.1), ("explicit", 60, 3, 0.7),
])
def test_identities_both_modes(mode, n, r, lam):
    p = p_from_lambda(n, r, lam)
    tr = explore(ExplorationConfig(n=n, r=r, p=p, seed=5, mode=mode))
    _trace_identities(tr, n, r)
    cen = census(tr, t0=n // 3)
    assert (r - 1) * cen.M1 == cen.L1 + cen.N1 - 1


def test_tested_count_telescopes_to_all_rsets():
    # sum over steps of binom(n - t, r - 1) equals binom(n, r): every r-set
    # is tested exactly once across the run
    for n, r in ((30, 2), (20, 3), (15, 4)):
        assert sum(comb0(n - t, r - 1) for t in range(1, n + 1)) == comb0(n, r)


def test_explicit_mode_reveals_each_edge_once():
    cfg = ExplorationConfig(n=40, r=3, p=0.004, seed=21, mode="explicit")
    tr = explore(cfg)
    rng = np.random.default_rng(21)
    edges = materialize(40, 3, 0.004, rng)
    assert tr.total_edges == len(edges)


def test_materialize_edge_count_distribution():
    rng = np.random.default_rng(17)
    # n = r: a single possible edge, present with probability p
    hits = sum(bool(materialize(3, 3, 0.2, rng)) for _ in range(20_000))
    se = math.sqrt(0.2 * 0.8 / 20_000)
    assert abs(hits / 20_000 - 0.2) < 3 * se
    # mean count binom(5,3) * p
    counts = [len(materialize(5, 3, 0.15, rng)) for _ in range(20_000)]
    mean = 10 * 0.15
    se = math.sqrt(mean / 20_000)
    assert abs(np.mean(counts) - mean) < 3 * se


def test_materialize_edges_sorted_distinct():
    rng = np.random.default_rng(23)
    edges = materialize(10, 3, 0.2, rng)
    assert len(set(edges)) == len(edges)
    assert all(len(e) == 3 and tuple(sorted(e)) == e for e in edges)
    from hxplore.util import colex_rank

    ranks = [colex_rank(e) for e in edges]
    assert ranks == sorted(ranks)


def test_step_mean_matches_conditional_formula():
    # fresh state (t=1) at n=30, r=3, p=0.01: E[eta_1] = 29 pi_1
    n, r, p = 30, 3, 0.01
    rng = np.random.default_rng(31)
    etas = []
    for _ in range(100_000):
        _, eta, _, _ = _sample_step(rng, n, r, p, t=1, active_excl=0)
        etas.append(eta)
    etas = np.asarray(etas, dtype=float)
    cm = conditional_moments(n, r, p, t=1, active_excl=0, unseen_excl=n - 1)
    want = (n - 1) * (1.0 - (1.0 - p) ** comb0(n - 2, r - 2))
    assert abs(cm.mean_eta - want) < 1e-12
    se = math.sqrt(cm.var_eta / etas.size)
    assert abs(etas.mean() - cm.mean_eta) < 3 * se


def test_implicit_vs_explicit_l1_distribution():
    # two-sample check through the exact law: both modes chi-square against
    # the enumeration at (5, 3, 0.15)
    n, r, p = 5, 3, 0.15
    exact = enumerate_all(n, r, p).l1_marginal()
    for mode, seed in (("implicit", 101), ("explicit", 202)):
        counts = {}
        for i in range(20_000):
            res = run_exploration(ExplorationConfig(n=n, r=r, p=p, seed=seed * 10**6 + i, mode=mode))
            counts[res.L1] = counts.get(res.L1, 0) + 1
        _, _, pv = chi_square_gof(counts, exact)
        assert pv > 0.001, (mode, pv)


def test_implicit_joint_l1_n1_l2_law_vs_oracle():
    # joint law of (L1, N1, L2), not just the L1 marginal: exercises the
    # nullity bookkeeping end to end
    n, r, p = 5, 3, 0.15
    law = enumerate_all(n, r, p)
    exact = dict(zip(law.support, law.probability))
    counts = {}
    for i in range(30_000):
        res = run_exploration(ExplorationConfig(n=n, r=r, p=p, seed=31_000_000 + i))
        key = (res.L1, res.N1, res.L2)
        counts[key] = counts.get(key, 0) + 1
    _, _, pv = chi_square_gof(counts, exact)
    assert pv > 0.001, pv


def test_step_sampler_joint_law_with_active_vertices():
    # full joint law of (E, eta, xi, zeta) against the exact enumeration at
    # a state with a nonempty active set
    n, r, p = 8, 3, 0.15
    from hxplore.oracle import enumerate_step

    law = enumerate_step(n, r, p, explored=[0, 1], active=[2, 5])
    assert law.active_excl == 1 and law.unseen_excl == 4
    rng = np.random.default_rng(77)
    counts = {}
    for _ in range(30_000):
        key = _sample_step(rng, n, r, p, t=3, active_excl=1)
        counts[key] = counts.get(key, 0) + 1
    _, _, pv = chi_square_gof(counts, dict(zip(law.support, law.probability)))
    assert pv > 0.001, pv


def test_census_t0_window_identities():
    p = p_from_lambda(3000, 3, 1.2)
    for seed in range(5):
        cfg = ExplorationConfig(n=3000, r=3, p=p, seed=seed, census_t0=200)
        res = run_exploration(cfg, record="full")
        assert res.T0 <= 200
        if res.T1 is not None:
            assert res.T1 > 200
            assert res.Z + 1 == res.c_t0p1
            # giant window nullity matches the T1 component's nullity
            comp = [c for c in res.components if c.t_end == res.T1][0]
            assert res.giant_nullity == comp.nullity
            assert res.giant_vertices == comp.vertices == res.T1 - res.T0


def test_stop_rule_giant_truncates():
    n = 20_000
    p = p_from_lambda(n, 3, 1.2)
    t0 = int(4 * math.sqrt(n / 0.2))
    cfg = ExplorationConfig(n=n, r=3, p=p, seed=11, stop_rule="giant", margin=2 * t0,
                            census_t0=t0)
    res = run_exploration(cfg)
    assert res.T1 is not None
    assert res.n_steps == min(n, res.T1 + 2 * t0)
    assert not res.complete
    cfg_full = ExplorationConfig(n=n, r=3, p=p, seed=11, census_t0=t0)
    full = run_exploration(cfg_full)
    assert full.complete
    # the giant is closed before the stop, so L1/N1 agree between the runs
    assert (res.L1, res.N1) == (full.L1, full.N1)
    assert res.L2 <= full.L2  # truncated run may miss later components


def test_census_requires_full_trace_semantics():
    p = p_from_lambda(5000, 3, 1.15)
    t0 = 300
    cfg = ExplorationConfig(n=5000, r=3, p=p, seed=9, stop_rule="giant", margin=100,
                            census_t0=t0)
    tr = explore(cfg)
    cen = census(tr, t0=t0)
    assert not cen.complete  # L2 is a lower bound
    assert cen.T0 <= t0
    assert cen.T1 is None or cen.T1 > t0
    with pytest.raises(ValueError):
        census(run_exploration(cfg, record="none"), t0=t0)


from hypothesis import given, settings, strategies as st


@given(n=st.integers(1, 40), r=st.integers(2, 5), seed=st.integers(0, 2**32),
       sub=st.booleans(), explicit=st.booleans())
@settings(max_examples=60, deadline=None)
def test_identities_hypothesis_tiny(n, r, seed, sub, explicit):
    lam = 0.6 if sub else 1.3
    p = p_from_lambda(n, r, lam)
    if not 0.0 < p < 0.9:
        p = min(0.4, 1.0 / max(1, comb0(n, r - 1)))
    mode = "explicit" if explicit and comb0(n, r) <= 10_000 else "implicit"
    tr = explore(ExplorationConfig(n=n, r=r, p=p, seed=seed, mode=mode))
    _trace_identities(tr, n, r)


def test_online_census_equals_posthoc():
    for seed in range(4):
        p = p_from_lambda(2000, 3, 1.25)
        cfg = ExplorationConfig(n=2000, r=3, p=p, seed=seed, census_t0=150)
        res = run_exploration(cfg, record="full")
        tr = explore(cfg)
        cen = census(tr, t0=150)
        assert (res.L1, res.L2, res.M1, res.N1, res.Z, res.T0, res.T1) == (
            cen.L1, cen.L2, cen.M1, cen.N1, cen.Z, cen.T0, cen.T1)


def _array_census(close_t, close_e, rr, t0, n_steps) -> dict:
    """The census as numpy reductions over the whole table: the formulas the
    census must keep on either side of its table-length branch."""
    sizes = np.diff(close_t, prepend=0)
    i = int(sizes.argmax())
    v, e = int(sizes[i]), int(close_e[i] - (close_e[i - 1] if i else 0))
    rest = np.delete(sizes, i)
    L2 = int(rest.max()) if rest.size else 0
    Z = int(close_t.searchsorted(t0, "right")) if t0 >= 0 else 0
    T1 = giant_v = giant_null = None
    if 0 <= t0 < close_t[-1]:
        T1 = int(close_t[Z])
        giant_v = T1 - (int(close_t[Z - 1]) if Z else 0)
        giant_e = int(close_e[Z] - (close_e[Z - 1] if Z else 0))
        giant_null = 1 + rr * giant_e - giant_v
    return dict(L1=v, L2=L2, M1=e, N1=1 + rr * e - v, l1_tie=L2 == v, Z=Z,
                T0=int(close_t[Z - 1]) if Z else 0, T1=T1,
                c_t0p1=Z + 1 if 0 <= t0 < n_steps else None,
                giant_vertices=giant_v, giant_nullity=giant_null)


@pytest.mark.parametrize("short_table", [None, 0, 10**9])
def test_census_matches_array_formulas(monkeypatch, short_table):
    # component tables of 1-70 components, given as lists and as arrays, down the
    # default length branch, then all down the array path, then all down the Python path
    if short_table is None:
        assert 1 <= explore_module._SHORT_TABLE < 70
    else:
        monkeypatch.setattr(explore_module, "_SHORT_TABLE", short_table)
    fields = [f.name for f in dataclasses.fields(explore_module.RunResult)]
    census_fields = tuple(fields[fields.index("L1"):fields.index("giant_nullity") + 1])
    assert explore_module._CENSUS_FIELDS == census_fields  # RunResult's order
    rng = np.random.default_rng(70)
    for _ in range(400):
        size = int(rng.integers(1, 71))
        close_t = np.cumsum(rng.integers(1, 6, size))
        close_e = np.cumsum(rng.integers(0, 4, size))
        n_steps = int(close_t[-1] + rng.integers(0, 4))
        rr = int(rng.integers(1, 10))
        for t0 in (-1, 0, int(rng.integers(0, n_steps + 2)), int(close_t[-1]), n_steps):
            want = _array_census(close_t, close_e, rr, t0, n_steps)
            for table in ((close_t, close_e), (close_t.tolist(), close_e.tolist())):
                values = explore_module._census(*table, rr, t0, n_steps)
                assert len(values) == len(explore_module._CENSUS_FIELDS)
                got = dict(zip(explore_module._CENSUS_FIELDS, values))
                assert got == want, (size, t0)
                assert {k: type(x) for k, x in got.items()} == {k: type(x) for k, x in want.items()}


def _walker_configs(count: int, seed: int) -> list:
    """Seeded implicit configs over r = 2..10 and n = 1..5000, both stop
    rules (the giant stop with margin 0 half of the time) and p from deep
    subcritical up to the branching limit."""
    rnd = random.Random(seed)
    out = []
    for i in range(count):
        r = 2 + i % 9
        n = rnd.choice([rnd.randint(1, 40), rnd.randint(1, 700), rnd.randint(1, 5000)])
        tested = comb0(n, r - 1)
        if tested == 0:
            p = 0.5
        elif rnd.random() < 0.5 and n > r:
            p = min(p_from_lambda(n, r, rnd.uniform(0.3, 3.0)), 16.0 / tested)
        else:
            p = rnd.uniform(0.05, 1.0) * 16.0 / tested
        giant = i % 2 == 1
        out.append(ExplorationConfig(
            n=n, r=r, p=min(p, 0.9), seed=rnd.randrange(2**32), census_t0=rnd.randint(0, n),
            stop_rule="giant" if giant else "full",
            margin=0 if not giant or i % 4 == 1 else rnd.randint(0, n)))
    return out


def test_block_walk_equals_step_loop(monkeypatch):
    # every edge-count chunk walked as a block, then every chunk step by step; the last
    # config's step loop takes more than _U_CHUNK // (r - 1) = 910 one-edge steps, so it
    # refills its block of companion uniforms
    refill = ExplorationConfig(n=30_000, r=10, p=p_from_lambda(30_000, 10, 12.0), seed=5)
    uniform_groups = explore_module._uniform_groups
    blocks = []
    monkeypatch.setattr(explore_module, "_uniform_groups",
                        lambda *args: blocks.append(args) or uniform_groups(*args))
    for cfg in [*_walker_configs(240, seed=4), refill]:
        for record in ("none", "full"):
            monkeypatch.setattr(explore_module, "_SHORT_CHUNK", 0)
            block = run_exploration(cfg, record=record)
            monkeypatch.setattr(explore_module, "_SHORT_CHUNK", 10**9)
            blocks.clear()
            steps = run_exploration(cfg, record=record)
            if cfg is refill:
                assert len(blocks) > 1, record  # the first block, then at least one refill
            for field in dataclasses.fields(block):
                a, b = getattr(block, field.name), getattr(steps, field.name)
                if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (cfg, record, field.name)
                else:
                    assert a == b, (cfg, record, field.name)


def test_block_walk_configs_take_both_replay_triggers(monkeypatch):
    # the configs of test_block_walk_equals_step_loop must reach the block walk's replay through
    # _companion_sets on both of its triggers: a pool draw, where no vector of uniforms is tried,
    # and a vector that holds an invalid set (a repeated vertex or set), which is rewound
    segment_sets, union_stats, companion_sets = (
        explore_module._segment_sets, explore_module._union_stats, explore_module._companion_sets)
    calls = {"invalid": 0, "companions": 0}
    replays = {"pool": 0, "redraw": 0}

    def spy_segment_sets(*args):
        before = dict(calls)
        out = segment_sets(*args)
        if calls["companions"] > before["companions"]:
            replays["redraw" if calls["invalid"] > before["invalid"] else "pool"] += 1
        return out

    def spy_union_stats(*args):
        out = union_stats(*args)
        calls["invalid"] += not out[-1]
        return out

    def spy_companion_sets(*args):
        calls["companions"] += 1
        return companion_sets(*args)

    monkeypatch.setattr(explore_module, "_SHORT_CHUNK", 0)
    monkeypatch.setattr(explore_module, "_segment_sets", spy_segment_sets)
    monkeypatch.setattr(explore_module, "_union_stats", spy_union_stats)
    monkeypatch.setattr(explore_module, "_companion_sets", spy_companion_sets)
    for cfg in _walker_configs(240, seed=4):
        run_exploration(cfg)
    assert replays["pool"] > 0 and replays["redraw"] > 0, replays
