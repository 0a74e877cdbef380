import numpy as np
import pytest

from hxplore.mc import (
    CELL_CSV_HEADER,
    CellSpec,
    ExperimentPlan,
    MCAggregate,
    TAILS_CSV_HEADER,
    format_cell_row,
    make_context,
    run_cell,
    tail_subcritical,
    tail_supercritical,
)
from hxplore.util import derive_seed


def _small_plan(collect=("census",), R=30, seed=999, stop="giant"):
    spec = CellSpec(n=20_000, r=3, eps=0.2, stop=stop)
    return spec, ExperimentPlan(cells=(spec,), replicates=R, master_seed=seed,
                                omega=4.0, collect=collect)


def test_cellspec_requires_exactly_one_parameter():
    with pytest.raises(ValueError):
        CellSpec(n=100, r=3)
    with pytest.raises(ValueError):
        CellSpec(n=100, r=3, eps=0.2, lam=1.2)
    p, lam, eps = CellSpec(n=100, r=3, eps=0.2).resolved()
    assert abs(lam - 1.2) < 1e-15 and abs(eps - 0.2) < 1e-15
    p2, lam2, _ = CellSpec(n=100, r=3, p=p).resolved()
    assert abs(lam2 - lam) < 1e-10


def test_plan_rejects_bad_omega():
    spec = CellSpec(n=100, r=3, eps=0.2)
    for omega in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ExperimentPlan(cells=(spec,), replicates=1, master_seed=1, omega=omega)


def test_replicate_seeds_are_per_replicate():
    assert derive_seed(1, 0, 5) != derive_seed(1, 0, 6)
    assert derive_seed(1, 0, 5) != derive_seed(1, 1, 5)
    assert derive_seed(1, 0, 5) == derive_seed(1, 0, 5)


def test_worker_count_does_not_change_results():
    spec, plan = _small_plan(collect=("census", "windows"), R=24)
    rows = []
    for w in (1, 2):
        res = run_cell(spec, plan, workers=w)
        rows.append((format_cell_row(res), tuple(res.aggregate.z1),
                     tuple(res.aggregate.values("duality")), res.aggregate.windows()))
    assert rows[0] == rows[1]


def test_single_replicate_reports_absent_variance():
    spec, plan = _small_plan(R=1)
    res = run_cell(spec, plan)
    s = res.summary()
    assert s["var_L1"] is None and s["R"] == 1
    assert s["mean_L1"] == float(res.aggregate.biv.mean_x)


def test_standardization_round_trip():
    spec, plan = _small_plan(R=10)
    res = run_cell(spec, plan)
    t = res.ctx.targets
    z1 = np.asarray(res.aggregate.z1)
    l1_back = z1 * t.sd_L1 + t.mean_L1
    assert np.allclose(l1_back, np.round(l1_back))  # recovers the integers exactly


def test_subcritical_tail_smoke():
    rep = tail_subcritical(n=3000, r=3, eps=0.3, L_grid=[10, 20, 33],
                           R=400, master_seed=5, workers=2)
    assert rep.kind == "subcritical"
    assert len(rep.rows) == 3
    assert rep.rows[0].p_hat >= rep.rows[-1].p_hat
    for row in rep.rows:
        assert 0.0 <= row.wilson_lo <= row.wilson_hi <= 1.0
        if 0.0 < row.p_hat < 1.0:
            assert row.wilson_lo <= row.p_hat <= row.wilson_hi
    # sanity anchor: Pr(L1 > 1) is large whenever edges exist
    rep1 = tail_subcritical(n=3000, r=3, eps=0.3, L_grid=[1], R=200, master_seed=5)
    assert rep1.rows[0].p_hat > 0.9


def test_supercritical_tail_omega_monotone():
    rep = tail_supercritical(n=20_000, r=3, eps=0.2, omega_grid=(2.0, 3.0, 4.0),
                             L_grid=[50, 100], R=200, master_seed=6, workers=2)
    freqs = [f for _, _, f in rep.omega_rows]
    assert all(a >= b for a, b in zip(freqs, freqs[1:]))  # nested events, same runs


def test_subcritical_scaling_in_eps():
    # doubling eps at fixed eps^2 L keeps the exponential decay comparable:
    # the fitted slopes of log Pr(L1 > L) against eps^2 L agree within a
    # generous factor across the two cells
    slopes = []
    for n, eps, seed in ((6000, 0.3, 31), (6000, 0.6, 32)):
        grid = [round(x / eps**2) for x in (3.0, 5.0, 7.0)]
        rep = tail_subcritical(n=n, r=3, eps=eps, L_grid=grid, R=2500,
                               master_seed=seed, workers=2)
        assert rep.slope is not None
        slopes.append(rep.slope / eps**2)  # slope per unit of eps^2 L
    ratio = slopes[0] / slopes[1]
    assert 0.3 <= ratio <= 3.0, slopes


def test_window_stats_smoke():
    spec = CellSpec(n=20_000, r=3, eps=0.2, stop="giant")
    plan = ExperimentPlan(cells=(spec,), replicates=60, master_seed=8, omega=3.0,
                          collect=("census", "windows"))
    windows = run_cell(spec, plan, workers=2).aggregate.windows()
    assert 0.0 <= windows["window_freqs"]["all"] <= windows["window_freqs"]["E1"] <= 1.0
    assert windows["z_identity_ok"]
    assert windows["duality_corr"] is None or -1.0 <= windows["duality_corr"] <= 1.0
    census_only = MCAggregate((), make_context(*_small_plan()))
    assert census_only.windows() == {"window_freqs": None, "duality_corr": None,
                                     "z_identity_ok": False}


def test_subcritical_cell_cannot_collect_windows():
    spec = CellSpec(n=1000, r=3, lam=0.8, stop="full")
    plan = ExperimentPlan(cells=(spec,), replicates=2, master_seed=1,
                          collect=("census", "windows"))
    with pytest.raises(ValueError):
        make_context(spec, plan)


def test_csv_headers_frozen():
    assert CELL_CSV_HEADER == (
        "cell,n,r,eps,R,mean_L1,var_L1,mean_N1,var_N1,cov,corr,"
        "z1_mean,z1_var,z2_mean,z2_var,ks_z1,ks_z2"
    )
    assert TAILS_CSV_HEADER == "L,exceed_count,R,p_hat,wilson_lo,wilson_hi,bound"


def test_cell_row_formatting_round_trip():
    spec, plan = _small_plan(R=5)
    res = run_cell(spec, plan)
    row = format_cell_row(res)
    fields = row.split(",")
    assert len(fields) == len(CELL_CSV_HEADER.split(","))
    assert float(fields[5]) == res.aggregate.biv.mean_x  # 17g round-trips


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_replicate_names_its_seed(workers):
    # margin 0 stops some replicates before the t1 horizon the doob sums need
    spec = CellSpec(n=20_000, r=3, eps=0.2, stop="giant", margin=0)
    plan = ExperimentPlan(cells=(spec,), replicates=4, master_seed=3, collect=("census", "doob"))
    seed = derive_seed(3, 0, 2)
    with pytest.raises(RuntimeError, match=rf"replicate 2 \(seed {seed}\) failed: .*too short"):
        run_cell(spec, plan, workers=workers)
