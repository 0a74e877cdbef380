import gc
import os
import pickle
import resource
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hxplore.explore as explore_module
import hxplore.mc as mc_module
from hxplore import cli
from hxplore.explore import ExplorationConfig, explore, run_exploration
from hxplore.mc import (
    CELL_CSV_HEADER,
    CellSpec,
    ExperimentPlan,
    MCAggregate,
    ReplicateStats,
    TAILS_CSV_HEADER,
    format_cell_row,
    make_context,
    run_cell,
    tail_experiment,
)
from hxplore.theory import DriftSequences
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
    for collect in (("census", "windows"), ("census", "doob")):
        spec, plan = _small_plan(collect=collect, R=24)
        rows = []
        for w in (1, 2, 3):
            res = run_cell(spec, plan, workers=w)
            rows.append((format_cell_row(res), tuple(res.aggregate.z1), res.aggregate.reps,
                         res.aggregate.windows()))
        assert rows[0] == rows[1] == rows[2]


def test_records_keep_their_type_across_the_fork():
    # a child's records cross the fork as plain tuples, and a plain tuple compares equal to
    # the ReplicateStats it came from; so check the type of each record, and its fields by name
    tiny = CellSpec(n=5, r=3, p=0.15, mode="implicit", stop="full")
    cells = [(tiny, ExperimentPlan(cells=(tiny,), replicates=50, master_seed=7,
                                   collect=("census", "l1law"))),
             _small_plan(collect=("census", "windows", "doob", "gap"), R=6)]
    for spec, plan in cells:
        records = []
        for w in (1, 2, 3):
            reps = run_cell(spec, plan, workers=w).aggregate.reps
            assert [type(rep) for rep in reps] == [ReplicateStats] * plan.replicates
            records.append([rep._asdict() for rep in reps])
        assert records[0] == records[1] == records[2]


def test_a_cell_forks_workers_minus_one_children(monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    for workers in (1, 2, 3):
        forks.clear()
        run_cell(*_small_plan(R=8), workers=workers)
        assert forks == [os.getpid()] * (workers - 1)


def test_each_process_runs_one_contiguous_range(monkeypatch):
    parent = os.getpid()
    calls = []
    derive = mc_module.derive_seed

    def recording(master_seed, salt, reps):
        if os.getpid() == parent:
            calls.append(reps.tolist())
        return derive(master_seed, salt, reps)

    monkeypatch.setattr(mc_module, "derive_seed", recording)
    run_cell(*_small_plan(R=8), workers=2)
    assert calls == [[0, 1, 2, 3]]


def test_huge_replicate_count_fails_alike_at_every_worker_count(tmp_path):
    # no process may build anything that grows with R before its range's first replicate
    src = str(Path(mc_module.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    ends = []
    for threads in ("1", "2"):
        argv = [sys.executable, "-m", "hxplore.cli", "mc", "--n", "50", "--r", "3", "--lambda", "0.8",
                "--seed", "1", "--replicates", str(2**62), "--threads", threads,
                "--out", str(tmp_path / threads)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (3 << 30,) * 2))
        assert time.perf_counter() - t0 < 5.0, (threads, proc.stderr)
        ends.append((proc.returncode, proc.stderr))
    assert ends[0] == ends[1]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_lowest_failure_across_shares(monkeypatch):
    # R = 4 on 2 workers: this process runs replicates 0 and 1, the child 2 and 3
    spec, plan = _small_plan(R=4, seed=3)
    bad = {derive_seed(3, 0, 1), derive_seed(3, 0, 2)}
    run = mc_module.run_exploration

    def failing(config, *args, **kw):
        if config.seed in bad:
            raise RuntimeError("forced failure")
        return run(config, *args, **kw)

    monkeypatch.setattr(mc_module, "run_exploration", failing)
    with pytest.raises(RuntimeError, match=rf"replicate 1 \(seed {derive_seed(3, 0, 1)}\) failed"):
        run_cell(spec, plan, workers=2)
    _no_child_left()


def test_interrupted_parent_kills_its_workers(monkeypatch):
    parent = os.getpid()

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(mc_module, "_run_replicate", interrupted)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_cell(*_small_plan(R=8), workers=3)
    assert time.perf_counter() - t0 < 5.0
    _no_child_left()


def test_short_result_raises(monkeypatch):
    dumps = pickle.dumps
    monkeypatch.setattr(pickle, "dump", lambda obj, fh, protocol: fh.write(dumps(obj, protocol)[:10]))
    with pytest.raises(RuntimeError, match="worker 1 exited with status 0 after sending 10 bytes"):
        run_cell(*_small_plan(R=4), workers=2)
    _no_child_left()


def test_killed_worker_raises_instead_of_hanging(monkeypatch):
    parent = os.getpid()
    run = mc_module._run_replicate

    def killing(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return run(*args)

    def hung(signum, frame):
        raise TimeoutError("run_cell hung after its worker was killed")

    monkeypatch.setattr(mc_module, "_run_replicate", killing)
    spec = CellSpec(n=300, r=3, lam=0.7, stop="full")
    plan = ExperimentPlan(cells=(spec,), replicates=16, master_seed=1)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    t0 = time.perf_counter()
    try:
        with pytest.raises(RuntimeError, match=r"worker 1 exited with status -9 "):
            run_cell(spec, plan, workers=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - t0 < 5.0
    _no_child_left()


def test_fork_map_raises_the_lowest_failed_share():
    # each child's exception crosses the pipe; the parent raises share 1's, not share 2's
    def run_share(w):
        if w == 1:
            raise KeyError("share 1")
        if w == 2:
            raise ValueError("share 2")
        return w

    assert mc_module._fork_map(lambda w: w * w, 3) == [0, 1, 4]
    with pytest.raises(KeyError, match="share 1"):
        mc_module._fork_map(run_share, 3)
    _no_child_left()


def test_unpicklable_child_exception_is_a_worker_failure():
    class Local(Exception):  # a class defined here cannot be pickled by reference
        pass

    def run_share(w):
        if w:
            raise Local("cannot cross the pipe")
        return w

    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="worker 1 exited with status 1 "):
        mc_module._fork_map(run_share, 2)
    assert time.perf_counter() - t0 < 5.0
    _no_child_left()


def test_cell_row_is_identical_across_calls_and_table_caches():
    # each replicate draws its edge counts from its cell's tables; a table that
    # leaked state between runs would change the second row or a later run
    spec, plan = _small_plan(R=8)
    rows = [format_cell_row(run_cell(spec, plan)) for _ in range(2)]
    assert rows[0] == rows[1]

    ctx = make_context(spec, plan)
    runs = [run_exploration(ctx.config(5), tables=tables) for tables in (ctx.tables, ctx.tables, None)]
    assert runs[0] == runs[1] == runs[2]
    assert ctx.tables
    for table in ctx.tables.values():
        for array in (table.trials, table.cum, table.big):
            with pytest.raises(ValueError):
                array[...] = 0


def test_cell_builds_each_chunk_table_once(monkeypatch):
    # a full-stop run at n = 70,000 reads 18 chunks of 4,096 steps; the cell's three runs share them
    builds = []
    build = explore_module.binomial_table
    monkeypatch.setattr(explore_module, "binomial_table", lambda *args: builds.append(args) or build(*args))
    spec = CellSpec(n=70_000, r=3, lam=1.2, stop="full")
    ctx = run_cell(spec, ExperimentPlan(cells=(spec,), replicates=3, master_seed=7),
                   workers=1).aggregate.ctx
    assert len(builds) == 18
    assert len(ctx.tables) == 18


def test_single_replicate_reports_absent_variance():
    spec, plan = _small_plan(R=1)
    res = run_cell(spec, plan)
    s = res.summary()
    assert s["var_L1"] is None and s["R"] == 1
    assert s["mean_L1"] == float(res.aggregate.biv.mean_x)


def test_standardization_round_trip():
    spec, plan = _small_plan(R=10)
    res = run_cell(spec, plan)
    t = res.aggregate.ctx.targets
    z1 = np.asarray(res.aggregate.z1)
    l1_back = z1 * t.sd_L1 + t.mean_L1
    assert np.allclose(l1_back, np.round(l1_back))  # recovers the integers exactly


def test_subcritical_tail_smoke():
    rep = tail_experiment("sub", n=3000, r=3, eps=0.3, L_grid=[10, 20, 33],
                          R=400, master_seed=5, workers=2)
    assert rep.kind == "subcritical"
    assert len(rep.rows) == 3
    assert rep.rows[0].p_hat >= rep.rows[-1].p_hat
    for row in rep.rows:
        assert 0.0 <= row.wilson_lo <= row.wilson_hi <= 1.0
        if 0.0 < row.p_hat < 1.0:
            assert row.wilson_lo <= row.p_hat <= row.wilson_hi
    # sanity anchor: Pr(L1 > 1) is large whenever edges exist
    rep1 = tail_experiment("sub", n=3000, r=3, eps=0.3, L_grid=[1], R=200, master_seed=5)
    assert rep1.rows[0].p_hat > 0.9


def test_supercritical_tail_omega_monotone():
    rep = tail_experiment("super", n=20_000, r=3, eps=0.2, L_grid=[50, 100], R=200,
                          master_seed=6, workers=2, omega_grid=(2.0, 3.0, 4.0))
    freqs = [f for _, _, f in rep.omega_rows]
    assert all(a >= b for a, b in zip(freqs, freqs[1:]))  # nested events, same runs


def test_subcritical_scaling_in_eps():
    # doubling eps at fixed eps^2 L keeps the exponential decay comparable:
    # the fitted slopes of log Pr(L1 > L) against eps^2 L agree within a
    # generous factor across the two cells
    slopes = []
    for n, eps, seed in ((6000, 0.3, 31), (6000, 0.6, 32)):
        grid = [round(x / eps**2) for x in (3.0, 5.0, 7.0)]
        rep = tail_experiment("sub", n=n, r=3, eps=eps, L_grid=grid, R=2500,
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


@pytest.mark.parametrize("spec", [
    CellSpec(n=20_000, r=3, eps=0.2, stop="giant"),
    CellSpec(n=20_000, r=3, eps=0.2, stop="giant", margin=7),
    CellSpec(n=300, r=4, lam=0.7, stop="full"),
    CellSpec(n=8, r=2, p=0.2, mode="explicit", stop="full"),
])
def test_cell_config_equals_a_checked_config(spec):
    ctx = make_context(spec, ExperimentPlan(cells=(spec,), replicates=1, master_seed=1))
    for seed in (0, 1, 2**32, 2**64 - 1):
        fresh = ExplorationConfig(n=ctx.n, r=ctx.r, p=ctx.p, seed=seed, mode=ctx.mode,
                                  stop_rule=ctx.stop, margin=ctx.margin if ctx.stop == "giant" else 0,
                                  census_t0=ctx.t0)
        config = ctx.config(seed)
        assert config == fresh and hash(config) == hash(fresh) and repr(config) == repr(fresh)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        ctx.config(-1)


@pytest.mark.parametrize("cell, collect", [
    (dict(n=0, r=3, p=0.1), ()),
    (dict(n=100, r=1, p=0.1), ()),
    (dict(n=100, r=11, lam=1.2), ()),
    (dict(n=30, r=2, p=0.6), ()),  # past the branching limit
    (dict(n=100, r=3, p=0.0), ()),
    (dict(n=10, r=3, p=0.99), ()),
    (dict(n=2000, r=3, lam=1.2, mode="explicit"), ()),
    (dict(n=100, r=3, lam=1.2, mode="lazy"), ()),
    (dict(n=100, r=3, lam=1.2, stop="all"), ()),
    (dict(n=100, r=3, lam=1.2, stop="giant", margin=-1), ()),
    (dict(n=100, r=3, lam=0.8, stop="giant"), ()),
    (dict(n=100, r=3, lam=0.8), ("doob",)),
    (dict(n=100, r=3, lam=0.8), ("windows",)),
])
def test_make_context_rejects_bad_cells(cell, collect):
    spec = CellSpec(**{"stop": "full", **cell})
    plan = ExperimentPlan(cells=(spec,), replicates=1, master_seed=1, collect=("census", *collect))
    with pytest.raises(ValueError):
        make_context(spec, plan)


@pytest.mark.parametrize("spec, collect, forced", [
    # margin 0 stops replicate 2 before the t1 horizon that every traced replicate reaches
    (CellSpec(n=20_000, r=3, eps=0.2, stop="giant", margin=0), ("census", "doob"), False),
    (CellSpec(n=7, r=3, lam=1.3, mode="explicit", stop="full"), ("census",), True),
    (CellSpec(n=500, r=2, p=0.0013, stop="full"), ("census",), True),
    (CellSpec(n=20_000, r=3, eps=0.2, stop="giant", margin=0), ("census", "gap"), False),
])
def test_failed_replicate_prints_its_replay_command(monkeypatch, tmp_path, capsys, spec, collect,
                                                   forced):
    plan = ExperimentPlan(cells=(spec,), replicates=4, master_seed=3, omega=3.5, collect=collect)
    seed = derive_seed(3, 0, 2)
    if forced:
        run = mc_module.run_exploration

        def failing(config, *args, **kw):
            if config.seed == seed:
                raise RuntimeError("forced failure")
            return run(config, *args, **kw)

        monkeypatch.setattr(mc_module, "run_exploration", failing)
    with pytest.raises(RuntimeError, match=rf"replicate 2 \(seed {seed}\) failed: .*; replay: ") as info:
        run_cell(spec, plan)
    cause, replay = str(info.value).split(" failed: ", 1)[1].split("; replay: ", 1)
    argv = shlex.split(replay)
    assert argv[:2] == ["hxplore", "run"] and ("--doob" in argv) == (collect != ("census",))
    seen = []
    monkeypatch.setattr(cli, "explore", lambda config: seen.append(config) or explore(config))
    capsys.readouterr()
    code = cli.main([*argv[1:], "--out", str(tmp_path / "replay")])
    assert seen == [make_context(spec, plan).config(seed)]
    if forced:  # the failure was patched into mc's engine only, so the replay runs
        assert code == 0
    else:  # the replay fails as the replicate did
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("error: RuntimeError: replicate too short for the t1 ")
        assert cause == repr(RuntimeError(err.removeprefix("error: RuntimeError: ").rstrip("\n")))


def test_traced_cell_builds_its_drift_table_once(monkeypatch):
    calls = []
    build = mc_module.drift_sequences
    monkeypatch.setattr(mc_module, "drift_sequences", lambda *args: calls.append(args) or build(*args))
    ctx = run_cell(*_small_plan(collect=("census", "doob"), R=4), workers=1).aggregate.ctx
    assert calls == [(ctx.n, ctx.r, ctx.p, ctx.t1)]
    calls.clear()
    run_cell(*_small_plan(R=4), workers=1)
    assert calls == []


def test_run_doob_frees_its_drift_table(tmp_path, capsys):
    argv = ["run", "--n", "2000", "--r", "3", "--lambda", "1.3", "--seed", "1", "--doob"]
    assert cli.main([*argv, "--out", str(tmp_path / "run")]) == 0
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, DriftSequences)]
