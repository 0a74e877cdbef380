"""Golden streams: SHA-256 digests of exact outputs for fixed seeds.

A refactor of the engines, the census, the replicate scheduler or the CLI
writers must keep every digest here byte-identical.  A change that alters a
random stream on purpose must say so and update the digests in the same
change.
"""

import functools
import hashlib
import math
import operator

import importlib

import numpy as np
import pytest

from hxplore.cli import main
from hxplore.explore import ExplorationConfig, census, explore, run_exploration
from hxplore.oracle import enumerate_all
from hxplore.mc import (
    CellSpec,
    ExperimentPlan,
    format_cell_row,
    format_tail_row,
    run_cell,
    tail_subcritical,
    tail_supercritical,
)
from hxplore.theory import p_from_lambda
from hxplore.util import comb0

explore_module = importlib.import_module("hxplore.explore")  # the package re-exports explore()

TRACE_COLUMNS = ("edge_counts", "eta", "xi", "zeta", "nullity_inc", "A", "C", "X", "new_component")
CENSUS_FIELDS = ("L1", "L2", "M1", "N1", "Z", "T0", "T1", "c_t0p1", "l1_tie")
COMPONENT_FIELDS = ("index", "t_start", "t_end", "vertices", "edges", "nullity")


def _t0(n, eps):
    return int(math.floor(4.0 * math.sqrt(n / eps)))


# name -> ExplorationConfig keyword arguments
CASES = {
    "implicit_r2_full": dict(n=3000, r=2, p=p_from_lambda(3000, 2, 1.3), seed=11,
                             census_t0=_t0(3000, 0.3)),
    "implicit_r3_giant": dict(n=20_000, r=3, p=p_from_lambda(20_000, 3, 1.2), seed=12,
                              stop_rule="giant", margin=2 * _t0(20_000, 0.2),
                              census_t0=_t0(20_000, 0.2)),
    "implicit_r4_sub": dict(n=900, r=4, p=p_from_lambda(900, 4, 0.8), seed=13, census_t0=300),
    "explicit_r3_full": dict(n=60, r=3, p=p_from_lambda(60, 3, 1.4), seed=14, mode="explicit",
                             census_t0=20),
    "explicit_r2_giant": dict(n=300, r=2, p=p_from_lambda(300, 2, 1.5), seed=15, mode="explicit",
                              stop_rule="giant", margin=10, census_t0=_t0(300, 0.5)),
    "single_vertex": dict(n=1, r=3, p=0.1, seed=7, census_t0=0),
    "implicit_r3_tie": dict(n=40, r=3, p=p_from_lambda(40, 3, 0.9), seed=21, census_t0=10),
    "explicit_r2_tie": dict(n=40, r=2, p=p_from_lambda(40, 2, 0.9), seed=8, mode="explicit",
                            census_t0=10),
    "implicit_r3_refill": dict(n=30_000, r=3, p=p_from_lambda(30_000, 3, 2.0), seed=16,
                               census_t0=_t0(30_000, 1.0)),
    "implicit_r4_refill": dict(n=30_000, r=4, p=p_from_lambda(30_000, 4, 2.0), seed=17,
                               census_t0=_t0(30_000, 1.0)),
    # one-companion edges that collide within a step and are redrawn, at t = 8789 and 22782
    "implicit_r2_redraw": dict(n=100_000, r=2, p=p_from_lambda(100_000, 2, 1.3), seed=47,
                               stop_rule="giant", margin=500, census_t0=_t0(100_000, 0.3)),
    # r = MAX_R: multi-edge steps with n - t < 3 (r - 1) draw companions from a pool
    "implicit_r10_pool": dict(n=30, r=10, p=15.0 / comb0(30, 9), seed=5, census_t0=10),
    # r = MAX_R: a uniform block holds 910 one-edge steps
    "implicit_r10_refill": dict(n=30_000, r=10, p=p_from_lambda(30_000, 10, 12.0), seed=18,
                                census_t0=_t0(30_000, 1.0)),
    # one step past a whole 4,096-step edge-count chunk
    "implicit_r3_n4097": dict(n=4097, r=3, p=p_from_lambda(4097, 3, 1.3), seed=20,
                              census_t0=_t0(4097, 0.3)),
    # the giant stop lands on step T1 + margin = 8192, the end of the second chunk
    "implicit_r3_stop8192": dict(n=20_000, r=3, p=p_from_lambda(20_000, 3, 1.25), seed=19,
                                 stop_rule="giant", margin=3558, census_t0=_t0(20_000, 0.25)),
}

GOLDEN_RUNS = {
    "implicit_r2_full": "a00d583476b077947ed48c4b5358c58ce58abefc519ece67f8e200eabfff7a8c",
    "implicit_r3_giant": "aed07200f778452af81c8456b02e7b7ed62e213c10f30dab40d9496d6d197691",
    "implicit_r4_sub": "6121e3401de0fb08b1b6d91366c29e121ff4a4191ee32b8b61ec828dea8656e5",
    "explicit_r3_full": "fb17712bfa6baa4ee93ec09f38a322cf0c12d73f69f82d7ece7af40ee8f96f34",
    "explicit_r2_giant": "e702ad00b922ee66108ce165faf9f63578dbbd95c78dc0a9beb806823332586d",
    "single_vertex": "56d10a6ebf3db1501220b3cf3e04009423f2870882fd0c03dd2ebcab66fb5232",
    "implicit_r3_tie": "11e3660c1e63228d1a8eaf52a51b00e77dfca36b385ab6357dd36537c3e54679",
    "explicit_r2_tie": "26794f49ac1ad206748dc2feaf2a5383f2808d49c13a25bfc6112c13729d10db",
    "implicit_r3_refill": "f6d3ad28e1bf172313198e4b1da0425b491918753c1003990a5c25ed71381d6b",
    "implicit_r4_refill": "ca0abf6343e346aa46b5f544b789bfae468ad89a6b88ad448dd27c9c9c367021",
    "implicit_r2_redraw": "3034d6e19ae8f9177ba66c9d29603e08fa72e24ba5d37b7fe9fb68178935716e",
    "implicit_r10_pool": "d52dd5d8b01c8821572389be0fbf70b678079b501088097990652179b7c75d7f",
    "implicit_r10_refill": "813822d441d63673d36db615574f0a6d44ed7c1336129ead6dba3d610f54d358",
    "implicit_r3_n4097": "99868827e960099376b524225cda241a5917d43eedbfe6b9858f8ad64f36b270",
    "implicit_r3_stop8192": "90b40f25b7ea01b8bd1bfce79c621d305fabd1b9efe50e13726383202fe78c96",
}
GOLDEN_CENSUS = {
    "implicit_r2_full": "afa9611b458206b0a87d4c3f798f7f5038f6d18aa190e5f9acc1e4f259814a8a",
    "implicit_r3_giant": "9124c9b866d90275d9b4f5e2a933f72c4ec7ce7644e1b3de77c4716d6ee1dbc3",
    "implicit_r4_sub": "be1e57080ca16c66fc113015eee0ed733d885757db3aea1d0e24f3b629f1a85c",
    "explicit_r3_full": "60fbcdd24d27219b574d068c339000c6c08297c69dc6588a5222be0b0190aa87",
    "explicit_r2_giant": "e5b699a9b5ab20e0363a89130f1e2c1c808ff991f2189f2e3a93d4e865db40c6",
    "single_vertex": "6df51f5f2f704406d961d59065ed786f96647147a5a0db2a91a5396339671dfd",
    "implicit_r3_tie": "6330e4cdfc00bd35586da6854ad6364271dd636049567c50d7f419df0361a070",
    "explicit_r2_tie": "ec484c397270c3d54545bcdde4403c95636565f8a5a7f78df36155c78f16efe8",
    "implicit_r3_refill": "1634ed6a94cfabad344275ddeba6b64254e06fd83d0d394de84c94a820e008c7",
    "implicit_r4_refill": "ab50bf989f77fa074da2a01376a578587be165b666d94c7394b9d89505a451d6",
    "implicit_r2_redraw": "f6de7d293be4861b69c4dbc7d0fd85230ddf80aeb319729492c062f2c93894ae",
    "implicit_r10_pool": "8c45f8ceff2d086a76e2b3fd86bdebf4851224a789f671dcc1f3014c6b6795d7",
    "implicit_r10_refill": "6edcbc568533b8f15debb7694532dc7f22e019c008628242fa398e7fb8495e90",
    "implicit_r3_n4097": "a2eaa86db90c21e7de9aa875d16dcadf7ebfa77dab4c8e9a63df31b214b4eeab",
    "implicit_r3_stop8192": "507da09367ac5a9a1ee528389a68d6e3f841ab8800606f645a8cd338a206a4fe",
}
GOLDEN_CELL = "a8b23032946c151aea89819d23142f473686367e04684be3de0c26246f9278ad"
GOLDEN_TAILS = "1037f0d7cf5b34d5deb50ccf49e77dc4558d943019d10c3e86afeb2cbf199cd0"
GOLDEN_CLI = {
    "csv": "e0555ffd0fd3e5633fe454d7d09419ee62f2e2644e592779d240cf621ff9ceea",
    "json": "454ce0a9e45d089c4320ebff9ea1002e45d933d97da5d7f09c6e612eb7721c6f",
}
# edge cases of the `hxplore run --doob` CSV writer: the sections on stdout, a giant stop
# that ends inside an open component, and a subcritical run (t1 = 0, every Shat empty)
WRITER_CASES = {
    "stdout": ["run", "--n", "300", "--r", "3", "--lambda", "1.4", "--seed", "6", "--doob"],
    "giant_open": ["run", "--n", "2000", "--r", "3", "--lambda", "1.3", "--seed", "12",
                   "--stop", "giant", "--doob", "--out"],
    "subcritical": ["run", "--n", "500", "--r", "3", "--lambda", "0.8", "--seed", "8",
                    "--doob", "--out"],
}
# (n, r, p) of the exact oracle: criterion 4's cells, L1 ties at (4, 2), n > 8 at (12, 11),
# and the p = 0 and p = 1 atoms
ORACLE_CASES = [(5, 3, 0.15), (7, 2, 0.2), (8, 2, 0.2), (6, 3, 0.1), (4, 2, 0.5), (12, 11, 0.3),
                (5, 3, 0.0), (5, 3, 1.0)]
GOLDEN_ORACLE = {
    (5, 3, 0.15): "f3b45d6bc162b0bf20b2fbe569499d09225ad5f798f54f888a81f3467659208d",
    (7, 2, 0.2): "2ab97d4b8287906cc3dbc3a75574fac31699433824f7b70917a29c209dbae550",
    (8, 2, 0.2): "086741bfbe439eb348dd5200ab7eefd20a95af33d89bb97234dda4a81f3e4d80",
    (6, 3, 0.1): "dbee767ba3b7c3ce9496c44b095d17e569d217566bb541496c1a478b1520a6cc",
    (4, 2, 0.5): "d749883562b9f82cf4de59086c4c40efb1f7736240fd2658c79a0835c8906c53",
    (12, 11, 0.3): "08bd81bc40c49a961a113d0f24a7d4a929eecef1006e22bfca242b2fce531c01",
    (5, 3, 0.0): "6e1f5ed84173a048e407968ad7dbac79a83fbdea2c53ebfc4dfd30c00a5c207b",
    (5, 3, 1.0): "60a39c687f8a0f3d3ca3bd83a7f63482f0e6f3ba3e086968641b22db6183a508",
}
GOLDEN_CLI_ORACLE = "3fb067cbe6471cc8ae22fed795cbfa938b9bd693f2e0eb21e52a01d24cdcf420"
GOLDEN_WRITER = {
    "stdout": "3675a3dad8e0680d58edf66dc63c54aeed5e4b9cf05cba83011b1faa6e05318c",
    "giant_open": "ce37fa1f547fb23c4a8111ba55c43110fd82d6c9224046043f5e8277cfbaa739",
    "subcritical": "1f7ae4bcbf7c21e6b8bccf2f518468aa8387dbf10efed2678c6c20758f7f4509",
}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _run_digest(res) -> str:
    parts = []
    for name in TRACE_COLUMNS:
        a = np.ascontiguousarray(getattr(res, name))
        parts += [name, a.dtype.str, a.shape, a.tobytes()]
    parts.append([tuple(getattr(c, f) for f in COMPONENT_FIELDS) for c in res.components])
    parts.append([getattr(res, f) for f in CENSUS_FIELDS])
    parts.append((res.n_steps, res.complete, res.components_closed, res.total_edges,
                  res.total_nullity, res.giant_vertices, res.giant_nullity))
    return _sha(*parts)


def _census_digest(cen) -> str:
    return _sha([getattr(cen, f) for f in ("L1", "L2", "M1", "N1", "Z", "T0", "T1", "l1_tie",
                                            "giant_nullity")])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_run(name):
    cfg = ExplorationConfig(**CASES[name])
    full = run_exploration(cfg, record="full")
    assert _run_digest(full) == GOLDEN_RUNS[name]
    # every record level carries the same census, and explore() the same trace
    for level in ("none", "light"):
        res = run_exploration(cfg, record=level)
        assert [getattr(res, f) for f in CENSUS_FIELDS] == [getattr(full, f) for f in CENSUS_FIELDS]
        assert res.n_steps == full.n_steps
    tr = explore(cfg)
    for col in TRACE_COLUMNS:
        assert np.array_equal(getattr(tr, col), getattr(full, col))
    assert _census_digest(census(tr, cfg.census_t0)) == GOLDEN_CENSUS[name]


def _full(name):
    return run_exploration(ExplorationConfig(**CASES[name]), record="full")


def test_golden_cases_cover_the_engine_paths():
    for name in ("implicit_r3_giant", "explicit_r3_full"):
        assert np.any(_full(name).edge_counts >= 2), name
    for name in ("implicit_r3_tie", "explicit_r2_tie"):
        assert _full(name).l1_tie, name
    # one-edge steps use r - 1 presampled uniforms each, refilled 8192 at a time
    for name in ("implicit_r3_refill", "implicit_r4_refill"):
        res = _full(name)
        assert np.count_nonzero(res.edge_counts == 1) * (res.config.r - 1) > 8192, name


def test_golden_edge_cases_cover_their_paths(monkeypatch):
    draws = {}  # m -> the companion sets drawn by _draw_distinct at the step with n - t = m
    draw_distinct = explore_module._draw_distinct

    def recording(rand, m, k):
        out = draw_distinct(rand, m, k)
        draws.setdefault(m, []).append(out)
        return out
    monkeypatch.setattr(explore_module, "_draw_distinct", recording)
    _full("implicit_r2_redraw")
    assert any(len(set(sets)) < len(sets) for sets in draws.values())  # a set was drawn twice
    monkeypatch.undo()

    res = _full("implicit_r10_pool")
    n, rr = res.config.n, res.config.r - 1
    t = np.arange(1, res.n_steps + 1)
    assert np.any((res.edge_counts >= 2) & (n - t < 3 * rr))
    res = _full("implicit_r10_refill")
    assert np.count_nonzero(res.edge_counts == 1) > 2 * (8192 // 9)
    res = _full("implicit_r3_n4097")
    assert res.complete and res.n_steps == 4097
    res = _full("implicit_r3_stop8192")
    assert not res.complete and res.n_steps == res.T1 + res.config.margin == 8192


def test_golden_mc_cell():
    spec = CellSpec(n=20_000, r=3, eps=0.2, stop="giant")
    plan = ExperimentPlan(cells=(spec,), replicates=6, master_seed=2024, omega=4.0,
                          collect=("census", "windows", "doob"))
    rows = []
    for workers in (1, 2):
        res = run_cell(spec, plan, workers=workers)
        agg = res.aggregate
        freqs = agg.windows()["window_freqs"]
        wins = [round(freqs[event] * agg.count) for event in ("E1", "E2", "E3", "all")]
        win_t0 = sum(rep.T0 <= math.sqrt(res.ctx.n / res.ctx.eps) / plan.omega for rep in agg.reps)
        z_ok = [rep.Z + 1 == rep.c_t0p1 for rep in agg.reps if rep.c_t0p1 is not None]
        duality = agg.values("duality")
        sums = [functools.reduce(operator.add, agg.values(name), 0.0)
                for name in ("v1", "v2", "v12", "lind1", "lind2")]
        rows.append(_sha(format_cell_row(res), agg.z1, agg.z2, [d[0] for d in duality],
                         [d[1] for d in duality], agg.values("max_s_t1"), *wins, win_t0,
                         sum(z_ok), len(z_ok), *sums, len(agg.values("v1"))))
    assert rows[0] == rows[1] == GOLDEN_CELL


def test_golden_tails():
    sub = tail_subcritical(n=2000, r=3, eps=0.3, L_grid=[10, 20, 40], R=60, master_seed=9,
                           workers=2)
    sup = tail_supercritical(n=5000, r=3, eps=0.3, omega_grid=(1.0, 2.0), L_grid=[10, 30],
                             R=30, master_seed=9, workers=2)
    digest = _sha([format_tail_row(row) for row in sub.rows],
                  [format_tail_row(row) for row in sup.rows], sup.omega_rows)
    assert digest == GOLDEN_TAILS


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_golden_cli_run_doob(tmp_path, fmt):
    prefix = str(tmp_path / "run")
    code = main(["run", "--n", "2000", "--r", "3", "--lambda", "1.3", "--seed", "5",
                 "--doob", "--format", fmt, "--out", prefix])
    assert code == 0
    files = sorted(tmp_path.iterdir())
    assert _sha(*[(f.name, f.read_bytes()) for f in files]) == GOLDEN_CLI[fmt]


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_golden_cli_writer_edge_cases(tmp_path, capsys, name):
    argv = WRITER_CASES[name]
    if argv[-1] == "--out":
        argv = argv + [str(tmp_path / "run")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    files = {f.name: f.read_bytes() for f in sorted(tmp_path.iterdir())}
    if name == "giant_open":
        last = files["run.trace.csv"].rstrip(b"\n").rsplit(b"\n", 1)[1].split(b",")
        assert int(last[6]) > 0  # A at the last step
    if name == "subcritical":
        rows = files["run.doob.csv"].splitlines()[1:-1]
        assert rows and all(row.endswith(b",") for row in rows)
    assert _sha(out, *sorted(files.items())) == GOLDEN_WRITER[name]


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: "n%d_r%d_p%g" % c)
def test_golden_oracle(case):
    d = enumerate_all(*case)
    digest = _sha(d.support, d.probability.dtype.str, d.probability.tobytes(),
                  list(d.strata.items()))
    assert digest == GOLDEN_ORACLE[case]


def test_golden_cli_oracle(capsys):
    assert main(["oracle", "--n", "5", "--r", "3", "--p", "0.15"]) == 0
    assert _sha(capsys.readouterr().out) == GOLDEN_CLI_ORACLE
