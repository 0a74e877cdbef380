"""Monte Carlo experiment runner and statistics engine.

Replicates are fully independent: replicate k of cell c draws its own
generator seeded by a splitmix64 mix of (master_seed, c, k), so results are
byte-identical no matter how replicates are scheduled across workers.  A
replicate's generator starts in the state np.random.default_rng(seed) gives,
but util.seeded_generators computes those states a chunk of replicates at a
time and sets each on one reused generator.  The cell's exploration config
is checked once, in make_context.
A cell's statistics are read off its list of replicate results, always in
replicate-index order, neutralizing floating-point non-associativity.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from multiprocessing import get_context
from typing import NamedTuple

import numpy as np

from .doob import approx_gap, decompose, duality_diagnostic
from .explore import ExplorationConfig, run_exploration
from .stats import BivariateMoments, ks_distance, wilson_interval
from .theory import (
    CltTargets, clt_targets, drift_sequences, dual_lambda, lambda_from_p, p_from_lambda, rho_r,
)
from .util import derive_seed, seeded_generators

__all__ = [
    "CellSpec",
    "ExperimentPlan",
    "check_omega",
    "MCAggregate",
    "CellResult",
    "ReplicateStats",
    "run_experiment",
    "run_cell",
    "tail_experiment",
    "tail_grid",
    "resolve_workers",
    "CELL_CSV_HEADER",
    "format_cell_row",
    "TAILS_CSV_HEADER",
    "format_tail_row",
]

ENV_WORKER_CAP = "HXPLORE_MAX_WORKERS"
DEFAULT_OMEGA = 4.0
_drift_sequences = functools.lru_cache(maxsize=8)(drift_sequences)  # read-only to decompose


def resolve_workers(requested: int | None) -> int:
    """Advisory parallelism: the smaller of the request, the CPU count, and
    the HXPLORE_MAX_WORKERS cap.  Never affects results, only scheduling."""
    cap = os.environ.get(ENV_WORKER_CAP)
    try:
        cap = int(cap) if cap else 1 << 30
    except ValueError:
        raise ValueError(f"{ENV_WORKER_CAP} must be an integer, got {cap!r}") from None
    cpus = os.cpu_count() or 1
    if requested is None:
        requested = cpus
    return max(1, min(requested, cpus, cap))


def fmt17(x) -> str:
    """Format a real with 17 significant digits (round-trip safe), '.' decimal."""
    if x is None:
        return ""
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class CellSpec:
    """One experiment cell.  Exactly one of eps / lam / p must be given."""

    n: int
    r: int
    eps: float | None = None
    lam: float | None = None
    p: float | None = None
    mode: str = "implicit"
    stop: str = "giant"
    margin: int | None = None

    def __post_init__(self):
        given = sum(v is not None for v in (self.eps, self.lam, self.p))
        if given != 1:
            raise ValueError("exactly one of eps, lam, p must be given")

    def resolved(self):
        """(p, lam, eps) with lam derived from p when p is given directly."""
        if self.p is not None:
            lam = lambda_from_p(self.n, self.r, self.p)
            return self.p, lam, lam - 1.0
        lam = self.lam if self.lam is not None else 1.0 + self.eps
        return p_from_lambda(self.n, self.r, lam), lam, lam - 1.0

    def name(self) -> str:
        _, _, eps = self.resolved()
        return f"n{self.n}_r{self.r}_eps{eps:g}"


def check_omega(omega: float) -> None:
    """Raise ValueError unless the window scale omega is finite and positive."""
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError(f"omega must be finite and positive, got {omega}")


@dataclass(frozen=True)
class ExperimentPlan:
    """`collect` names what a replicate computes besides its census: "windows" (the
    window events and the duality pair), "doob" (the Doob sums) and "gap" (the
    drift-approximation constant); "census" and "l1law" select nothing extra."""

    cells: tuple
    replicates: int
    master_seed: int
    omega: float = DEFAULT_OMEGA
    collect: tuple = ("census",)

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        check_omega(self.omega)
        known = {"census", "windows", "doob", "gap", "l1law"}
        bad = set(self.collect) - known
        if bad:
            raise ValueError(f"unknown collect flags: {sorted(bad)}")


class ReplicateStats(NamedTuple):
    L1: int
    L2: int
    N1: int
    Z: int
    T0: int
    T1: int | None
    c_t0p1: int | None
    max_s_pre: float | None = None
    max_s_t1: float | None = None
    duality: tuple | None = None  # (T1 - t1, Xtilde_{t1} / (1 - lambda*))
    v1: float | None = None
    v2: float | None = None
    v12: float | None = None
    lind1: float | None = None
    lind2: float | None = None
    gap: float | None = None


@dataclass(frozen=True)
class CellContext:
    """Derived per-cell constants shared by the workers and the aggregate."""

    n: int
    r: int
    p: float
    eps: float
    mode: str
    stop: str
    t0: int | None
    t1: int
    margin: int
    omega: float
    targets: CltTargets | None
    lambda_star: float | None
    collect: frozenset

    @cached_property
    def _checked_config(self) -> ExplorationConfig:
        """The cell's exploration with seed 0, checked once."""
        return ExplorationConfig(
            n=self.n, r=self.r, p=self.p, seed=0, mode=self.mode, stop_rule=self.stop,
            margin=self.margin if self.stop == "giant" else 0, census_t0=self.t0,
        )

    def config(self, seed: int) -> ExplorationConfig:
        """The exploration of this cell's replicate with the given seed: the
        checked config with its seed replaced, which skips the re-check."""
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        config = object.__new__(ExplorationConfig)
        config.__dict__.update(self._checked_config.__dict__, seed=seed)  # the frozen fields, set once
        return config


@dataclass(frozen=True)
class MCAggregate:
    """A cell's statistics, each computed when read from the replicate results,
    which are kept in replicate order."""

    reps: tuple
    ctx: CellContext

    @property
    def count(self) -> int:
        return len(self.reps)

    @property
    def biv(self) -> BivariateMoments:
        """The bivariate moments of (L1, N1)."""
        biv = BivariateMoments()
        for rep in self.reps:
            biv.add(float(rep.L1), float(rep.N1))
        return biv

    @property
    def z1(self) -> list:
        """L1 standardized by the CLT targets; empty for a subcritical cell."""
        t = self.ctx.targets
        return [] if t is None else [(rep.L1 - t.mean_L1) / t.sd_L1 for rep in self.reps]

    @property
    def z2(self) -> list:
        """N1 standardized by the CLT targets; empty for a subcritical cell."""
        t = self.ctx.targets
        return [] if t is None else [(rep.N1 - t.mean_N1) / t.sd_N1 for rep in self.reps]

    @property
    def l1_counts(self) -> dict:
        """L1 -> the number of replicates with that L1, in order of first occurrence."""
        return dict(Counter(rep.L1 for rep in self.reps))

    def values(self, name: str) -> list:
        """The ReplicateStats field `name` of every replicate that recorded it."""
        return [v for v in (getattr(rep, name) for rep in self.reps) if v is not None]

    def windows(self) -> dict:
        """The frequencies of the window events E1 (few components by the cutoff),
        E2 (the martingale stays small up to t1 + t0), E3 (T1 lands within t0 of
        t1) and all three, the duality correlation, and whether Z + 1 = C_{t0+1}
        held in every run; None, None and False when the cell collected no windows."""
        ctx = self.ctx
        if "windows" not in ctx.collect:
            return {"window_freqs": None, "duality_corr": None, "z_identity_ok": False}
        z_threshold = math.sqrt(ctx.eps * ctx.n) / ctx.omega
        s_threshold = ctx.omega * math.sqrt(ctx.eps * ctx.n)
        events = [(rep.Z <= z_threshold,
                   rep.max_s_pre is not None and rep.max_s_pre <= s_threshold,
                   rep.T1 is not None and ctx.t1 - ctx.t0 <= rep.T1 <= ctx.t1 + ctx.t0)
                  for rep in self.reps]
        freqs = [c / self.count for c in (*map(sum, zip(*events)), sum(map(all, events)))]
        z_ok = [rep.Z + 1 == rep.c_t0p1 for rep in self.reps if rep.c_t0p1 is not None]
        return {
            "window_freqs": dict(zip(("E1", "E2", "E3", "all"), freqs)),
            "duality_corr": _corr(self.values("duality")),
            "z_identity_ok": bool(z_ok) and all(z_ok),
        }


def _corr(pairs: list) -> float | None:
    """The correlation of the coordinates of at least 3 pairs, unless one is constant."""
    if len(pairs) < 3:
        return None
    a, b = (np.asarray(column) for column in zip(*pairs))
    if a.std() == 0.0 or b.std() == 0.0:
        return None
    return float(np.corrcoef(a, b)[0, 1])


@dataclass
class CellResult:
    spec: CellSpec
    aggregate: MCAggregate

    def summary(self) -> dict:
        agg = self.aggregate
        biv = agg.biv
        out = {
            "cell": self.spec.name(),
            "n": agg.ctx.n,
            "r": agg.ctx.r,
            "eps": agg.ctx.eps,
            "R": agg.count,
            "mean_L1": biv.mean_x,
            "var_L1": biv.var_x,
            "mean_N1": biv.mean_y,
            "var_N1": biv.var_y,
            "cov": biv.cov,
            "corr": biv.corr,
        }
        for name, z in (("z1", np.asarray(agg.z1)), ("z2", np.asarray(agg.z2))):
            out[f"{name}_mean"] = float(z.mean()) if len(z) else None
            out[f"{name}_var"] = float(z.var(ddof=1)) if len(z) > 1 else None
            out[f"ks_{name}"] = ks_distance(z) if len(z) >= 100 else None
        return out


def _run_replicate(ctx: CellContext, seed: int, rng) -> ReplicateStats:
    windows, doob = "windows" in ctx.collect, "doob" in ctx.collect
    traced = windows or doob or "gap" in ctx.collect
    res = run_exploration(ctx.config(seed), record="full" if traced else "none", rng=rng)
    max_s_pre = max_s_t1 = duality = v1 = v2 = v12 = l1 = l2 = gap = None
    if traced:
        seq = _drift_sequences(ctx.n, ctx.r, ctx.p, ctx.t1)
        need_t1 = doob or windows
        if need_t1 and res.n_steps < ctx.t1:
            raise RuntimeError(
                f"replicate too short for the t1 horizon: {res.n_steps} < {ctx.t1}"
            )
        dt = decompose(res, seq, t1=ctx.t1 if need_t1 else 0)
        if windows:
            upto = min(res.n_steps, ctx.t1 + (ctx.t0 or 0))
            abs_s = np.abs(dt.S)
            max_s_pre = float(np.max(abs_s[:upto]))
            max_s_t1 = float(np.max(abs_s[: ctx.t1]))
            if res.T1 is not None:
                duality = duality_diagnostic(dt, res, ctx.lambda_star)
        if doob:
            v1, v2, v12 = dt.V1, dt.V2, dt.V12
            l1, l2 = dt.lindeberg1, dt.lindeberg2
        if "gap" in ctx.collect:
            gap = approx_gap(res, dt)
    return ReplicateStats(
        L1=res.L1, L2=res.L2, N1=res.N1, Z=res.Z, T0=res.T0, T1=res.T1, c_t0p1=res.c_t0p1,
        max_s_pre=max_s_pre, max_s_t1=max_s_t1, duality=duality,
        v1=v1, v2=v2, v12=v12, lind1=l1, lind2=l2, gap=gap,
    )


def _replay_command(ctx: CellContext, seed: int) -> str:
    """The `hxplore run` command that reruns the replicate with this seed:
    its flags rebuild ctx.config(seed)."""
    config = ctx.config(seed)
    stop = f"giant:{config.margin}" if config.stop_rule == "giant" else "full"
    argv = ["hxplore", "run", "--n", str(config.n), "--r", str(config.r), "--p", repr(config.p),
            "--mode", config.mode, "--stop", stop, "--omega", repr(ctx.omega), "--seed", str(seed)]
    if ctx.collect & {"windows", "doob", "gap"}:
        argv.append("--doob")
    return " ".join(argv)


def _replicate_chunk(args):
    ctx, master_seed, salt, lo, hi = args
    out = []
    seeds = derive_seed(master_seed, salt, np.arange(lo, hi, dtype=np.uint64))
    for rep, seed, rng in zip(range(lo, hi), seeds.tolist(), seeded_generators(seeds)):
        try:
            out.append(_run_replicate(ctx, seed, rng))
        except Exception as exc:  # reported upstream with the replicate's seed
            return out, (f"replicate {rep} (seed {seed}) failed: {exc!r}; "
                         f"replay: {_replay_command(ctx, seed)}")
    return out, None


def _map_replicates(ctx, R: int, master_seed: int, salt: int, workers: int) -> list:
    """_run_replicate of every replicate rep in range(R), on the seed
    derive_seed(master_seed, salt, rep), in chunks over a fork pool when
    workers > 1.  Raises RuntimeError naming the lowest failed replicate, its
    derived seed and the command that replays it."""
    chunk = max(1, min(512, -(-R // (workers * 4)))) if workers > 1 else R
    tasks = [(ctx, master_seed, salt, lo, min(lo + chunk, R)) for lo in range(0, R, chunk)]
    if workers > 1 and len(tasks) > 1:
        with get_context("fork").Pool(workers) as pool:
            parts = pool.map(_replicate_chunk, tasks, chunksize=1)
    else:
        parts = [_replicate_chunk(t) for t in tasks]
    for _, error in parts:
        if error is not None:
            raise RuntimeError(error)
    return [item for out, _ in parts for item in out]


def make_context(spec: CellSpec, plan: ExperimentPlan) -> CellContext:
    """The cell's derived constants.  Raises ValueError on a cell that the exploration
    or the drift sequences it collects reject."""
    p, lam, eps = spec.resolved()
    super_cell = eps > 0.0
    collect = frozenset(plan.collect)
    if not super_cell and (spec.stop == "giant" or "windows" in collect or "doob" in collect):
        raise ValueError("giant stop rule and window/doob collection need a supercritical cell")
    if super_cell:
        t0 = int(math.floor(plan.omega * math.sqrt(spec.n / eps)))
        t1 = int(math.floor(rho_r(spec.r, lam) * spec.n))
        targets = clt_targets(spec.n, spec.r, eps)
        lam_star = dual_lambda(lam)
    else:
        t0, t1, targets, lam_star = None, 0, None, None
    if "windows" in collect and t1 < 1:
        raise ValueError(f"window collection needs t1 = floor(rho_r n) >= 1, got {t1}")
    margin = spec.margin if spec.margin is not None else 2 * (t0 or 0)
    ctx = CellContext(
        n=spec.n, r=spec.r, p=p, eps=eps, mode=spec.mode, stop=spec.stop,
        t0=t0, t1=t1, margin=margin, omega=plan.omega, targets=targets,
        lambda_star=lam_star, collect=collect,
    )
    ctx.config(0)  # checks the cell's exploration, once
    if collect & {"windows", "doob", "gap"}:
        _drift_sequences(ctx.n, ctx.r, ctx.p, ctx.t1)
    return ctx


def run_cell(spec: CellSpec, plan: ExperimentPlan, cell_index: int = 0,
             workers: int = 1) -> CellResult:
    ctx = make_context(spec, plan)
    if spec.stop == "giant" and ctx.eps**3 * ctx.n < 1.0:
        warnings.warn(
            f"cell {spec.name()}: eps^3 n = {ctx.eps ** 3 * ctx.n:.3g} < 1; "
            "inside the critical window, CLT targets unreliable",
            stacklevel=2,
        )
    try:
        reps = _map_replicates(ctx, plan.replicates, plan.master_seed, cell_index, workers)
    except RuntimeError as exc:
        raise RuntimeError(f"cell {spec.name()} aborted: {exc}") from None
    return CellResult(spec=spec, aggregate=MCAggregate(tuple(reps), ctx))


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> list:
    """Run every cell of the plan; deterministic in (plan, master_seed)
    regardless of worker count."""
    return [
        run_cell(spec, plan, cell_index=ci, workers=workers)
        for ci, spec in enumerate(plan.cells)
    ]


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------


class _TailRow(NamedTuple):
    L: int
    exceed_count: int
    R: int
    p_hat: float
    wilson_lo: float
    wilson_hi: float
    bound: float


@dataclass
class TailReport:
    kind: str
    n: int
    r: int
    eps: float
    R: int
    c_bound: float
    rows: list
    measurable: bool  # >= 5 expected exceedances at the largest L
    slope: float | None = None
    intercept: float | None = None
    max_fit_residual: float | None = None
    omega_rows: list = field(default_factory=list)  # (omega, count, freq) for supercritical

    @property
    def strictly_decreasing(self) -> bool:
        ps = [row.p_hat for row in self.rows]
        return all(a > b for a, b in zip(ps, ps[1:]))


def _bound_value(eps, n, L, c):
    return c * (eps * n / L) * math.exp(-eps * eps * L / c)


def _affine_fit(rows):
    pts = [(row.L, math.log(row.p_hat)) for row in rows if row.exceed_count > 0]
    if len(pts) < 2:
        return None, None, None
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return float(slope), float(intercept), float(np.max(np.abs(resid)))


def tail_grid(eps: float) -> list:
    """The default L grid of the tail experiments: 3, 4.5, 6 and 8 over eps^2."""
    return [max(1, round(x / eps**2)) for x in (3.0, 4.5, 6.0, 8.0)]


def tail_experiment(kind: str, n: int, r: int, eps: float, L_grid, R: int, master_seed: int,
                    workers: int = 1, omega_grid=(), c_bound: float = 10.0) -> TailReport:
    """Empirical tail probabilities of a cell of R full explorations: cell 0 at
    lambda = 1 - eps gives Pr(L1 > L) for kind 'sub'; cell 1 at 1 + eps gives
    Pr(L2 > L) and, per omega, Pr(|L1 - rho n| >= omega sqrt(n/eps)) (nested
    events over one run set, hence non-increasing) for 'super'.  Each row has
    its Wilson interval and the exponential tail bound with the frozen
    constant; log Pr gets an affine fit against L, which defaults to
    tail_grid(eps).  Raises ValueError on inputs that the experiment or the
    exploration rejects, before any replicate runs."""
    if kind not in ("sub", "super") or not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(
            f"need kind 'sub' or 'super' and a finite eps > 0, got {kind!r} and {eps}")
    if L_grid is None:
        L_grid = tail_grid(eps)
    if not L_grid or min(L_grid) < 1:
        raise ValueError(f"the L grid needs at least one L and every L >= 1, got {list(L_grid)}")
    if not (math.isfinite(c_bound) and c_bound > 0.0):
        raise ValueError(f"c_bound must be finite and positive, got {c_bound}")
    lam = 1.0 - eps if kind == "sub" else 1.0 + eps
    spec = CellSpec(n=n, r=r, lam=lam, stop="full")
    plan = ExperimentPlan(cells=(spec,), replicates=R, master_seed=master_seed)
    agg = run_cell(spec, plan, cell_index=int(kind == "super"), workers=workers).aggregate
    l1 = np.array(agg.values("L1"), dtype=np.int64)
    omega_rows = []
    if kind == "super":
        dev = np.abs(l1 - rho_r(r, lam) * n)
        scale = math.sqrt(n / eps)
        for om in omega_grid:
            cnt = int(np.sum(dev >= om * scale))
            omega_rows.append((float(om), cnt, cnt / R))
    tail = l1 if kind == "sub" else np.array(agg.values("L2"), dtype=np.int64)
    rows = []
    for L in L_grid:
        cnt = int(np.sum(tail > L))
        lo, hi = wilson_interval(cnt, R)
        rows.append(_TailRow(L=int(L), exceed_count=cnt, R=R, p_hat=cnt / R,
                             wilson_lo=lo, wilson_hi=hi, bound=_bound_value(eps, n, L, c_bound)))
    slope, intercept, resid = _affine_fit(rows)
    return TailReport(
        kind=f"{kind}critical", n=n, r=r, eps=eps, R=R, c_bound=c_bound, rows=rows,
        measurable=rows[-1].exceed_count >= 5,
        slope=slope, intercept=intercept, max_fit_residual=resid,
        omega_rows=omega_rows,
    )


# ---------------------------------------------------------------------------
# CSV schemas (frozen by golden-file tests)
# ---------------------------------------------------------------------------

CELL_CSV_HEADER = (
    "cell,n,r,eps,R,mean_L1,var_L1,mean_N1,var_N1,cov,corr,"
    "z1_mean,z1_var,z2_mean,z2_var,ks_z1,ks_z2"
)

TAILS_CSV_HEADER = "L,exceed_count,R,p_hat,wilson_lo,wilson_hi,bound"


def format_cell_row(result: CellResult) -> str:
    s = result.summary()
    fields = [
        s["cell"], str(s["n"]), str(s["r"]), fmt17(s["eps"]), str(s["R"]),
        fmt17(s["mean_L1"]), fmt17(s["var_L1"]), fmt17(s["mean_N1"]),
        fmt17(s["var_N1"]), fmt17(s["cov"]), fmt17(s["corr"]),
        fmt17(s["z1_mean"]), fmt17(s["z1_var"]), fmt17(s["z2_mean"]),
        fmt17(s["z2_var"]), fmt17(s["ks_z1"]), fmt17(s["ks_z2"]),
    ]
    return ",".join(fields)


def format_tail_row(row: _TailRow) -> str:
    return ",".join([
        str(row.L), str(row.exceed_count), str(row.R), fmt17(row.p_hat),
        fmt17(row.wilson_lo), fmt17(row.wilson_hi), fmt17(row.bound),
    ])
