"""Monte Carlo experiment runner and statistics engine.

Replicates are fully independent: replicate k of cell c draws its own
generator seeded by a splitmix64 mix of (master_seed, c, k), so results are
byte-identical no matter how replicates are scheduled across workers.
Aggregation always consumes replicate results in replicate-index order,
neutralizing floating-point non-associativity.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import NamedTuple

import numpy as np

from .doob import approx_gap, decompose, duality_diagnostic
from .explore import ExplorationConfig, run_exploration
from .stats import BivariateMoments, ks_distance, wilson_interval
from .theory import (
    CltTargets, clt_targets, drift_sequences, dual_lambda, lambda_from_p, p_from_lambda, rho_r,
)
from .util import derive_seed

__all__ = [
    "CellSpec",
    "ExperimentPlan",
    "check_omega",
    "MCAggregate",
    "CellResult",
    "ReplicateStats",
    "run_experiment",
    "run_cell",
    "tail_p",
    "tail_subcritical",
    "tail_supercritical",
    "tail_grid",
    "resolve_workers",
    "CELL_CSV_HEADER",
    "format_cell_row",
    "TAILS_CSV_HEADER",
    "format_tail_row",
]

ENV_WORKER_CAP = "HXPLORE_MAX_WORKERS"
DEFAULT_OMEGA = 4.0
Z_CAP = 1 << 20  # standardized samples kept per cell, in replicate order
_SEQ_CACHE: dict = {}


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
    label: str = ""

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
        if self.label:
            return self.label
        _, lam, eps = self.resolved()
        return f"n{self.n}_r{self.r}_eps{eps:g}"


def check_omega(omega: float) -> None:
    """Raise ValueError unless the window scale omega is finite and positive."""
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError(f"omega must be finite and positive, got {omega}")


@dataclass(frozen=True)
class ExperimentPlan:
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


@dataclass
class MCAggregate:
    """Streaming per-cell aggregate: bivariate moments of (L1, N1), the
    standardized reservoir, window-event counters, and doob-sum totals.
    Replicates are added in replicate order; the reservoirs keep the first
    Z_CAP samples."""

    count: int = 0
    biv: BivariateMoments = field(default_factory=BivariateMoments)
    z1: list = field(default_factory=list)
    z2: list = field(default_factory=list)
    win_e1: int = 0
    win_e2: int = 0
    win_e3: int = 0
    win_all: int = 0
    win_t0: int = 0
    win_checked: int = 0
    zc_ok: int = 0
    zc_checked: int = 0
    duality_dt: list = field(default_factory=list)
    duality_pred: list = field(default_factory=list)
    max_s_t1_values: list = field(default_factory=list)
    v1_sum: float = 0.0
    v2_sum: float = 0.0
    v12_sum: float = 0.0
    lind1_sum: float = 0.0
    lind2_sum: float = 0.0
    gap_max: float = 0.0
    doob_count: int = 0
    l1_counts: dict = field(default_factory=dict)

    def add(self, rep: ReplicateStats, ctx: "CellContext") -> None:
        self.count += 1
        self.biv.add(float(rep.L1), float(rep.N1))
        if ctx.targets is not None and len(self.z1) < Z_CAP:
            self.z1.append((rep.L1 - ctx.targets.mean_L1) / ctx.targets.sd_L1)
            self.z2.append((rep.N1 - ctx.targets.mean_N1) / ctx.targets.sd_N1)
        if ctx.collect_l1law:
            self.l1_counts[rep.L1] = self.l1_counts.get(rep.L1, 0) + 1
        if ctx.collect_windows:
            self.win_checked += 1
            e1 = rep.Z <= ctx.z_threshold
            e2 = rep.max_s_pre is not None and rep.max_s_pre <= ctx.s_threshold
            e3 = rep.T1 is not None and ctx.t1 - ctx.t0 <= rep.T1 <= ctx.t1 + ctx.t0
            self.win_e1 += e1
            self.win_e2 += e2
            self.win_e3 += e3
            self.win_all += e1 and e2 and e3
            self.win_t0 += rep.T0 <= ctx.t0_threshold
            if rep.c_t0p1 is not None:
                self.zc_checked += 1
                self.zc_ok += rep.Z + 1 == rep.c_t0p1
            if rep.duality is not None:
                self.duality_dt.append(rep.duality[0])
                self.duality_pred.append(rep.duality[1])
            if rep.max_s_t1 is not None:
                self.max_s_t1_values.append(rep.max_s_t1)
        if ctx.collect_doob and rep.v1 is not None:
            self.doob_count += 1
            self.v1_sum += rep.v1
            self.v2_sum += rep.v2
            self.v12_sum += rep.v12
            self.lind1_sum += rep.lind1
            self.lind2_sum += rep.lind2
        if rep.gap is not None:
            self.gap_max = max(self.gap_max, rep.gap)

    def windows(self) -> dict:
        """The frequencies of the window events E1 (few components by the cutoff),
        E2 (the martingale stays small up to t1 + t0), E3 (T1 lands within t0 of
        t1) and all three (None when no run collected windows), the duality
        correlation, and whether Z + 1 = C_{t0+1} held in every run."""
        checked = self.win_checked
        return {
            "window_freqs": {
                "E1": self.win_e1 / checked,
                "E2": self.win_e2 / checked,
                "E3": self.win_e3 / checked,
                "all": self.win_all / checked,
            } if checked else None,
            "duality_corr": self.duality_corr(),
            "z_identity_ok": bool(self.zc_checked and self.zc_ok == self.zc_checked),
        }

    def duality_corr(self) -> float | None:
        if len(self.duality_dt) < 3:
            return None
        a = np.asarray(self.duality_dt)
        b = np.asarray(self.duality_pred)
        if a.std() == 0.0 or b.std() == 0.0:
            return None
        return float(np.corrcoef(a, b)[0, 1])


@dataclass(frozen=True)
class CellContext:
    """Derived per-cell constants shared by the workers and the aggregator."""

    n: int
    r: int
    p: float
    lam: float
    eps: float
    mode: str
    stop: str
    t0: int | None
    t1: int
    margin: int
    omega: float
    targets: CltTargets | None
    lambda_star: float | None
    collect_windows: bool
    collect_doob: bool
    collect_gap: bool
    collect_l1law: bool
    z_threshold: float = 0.0
    s_threshold: float = 0.0
    t0_threshold: float = 0.0


@dataclass
class CellResult:
    spec: CellSpec
    ctx: CellContext
    replicates: int
    aggregate: MCAggregate

    def summary(self) -> dict:
        agg = self.aggregate
        out = {
            "cell": self.spec.name(),
            "n": self.ctx.n,
            "r": self.ctx.r,
            "eps": self.ctx.eps,
            "R": agg.count,
            "mean_L1": agg.biv.mean_x,
            "var_L1": agg.biv.var_x,
            "mean_N1": agg.biv.mean_y,
            "var_N1": agg.biv.var_y,
            "cov": agg.biv.cov,
            "corr": agg.biv.corr,
        }
        if agg.z1:
            z1 = np.asarray(agg.z1)
            z2 = np.asarray(agg.z2)
            out.update(
                z1_mean=float(z1.mean()),
                z1_var=float(z1.var(ddof=1)) if len(z1) > 1 else None,
                z2_mean=float(z2.mean()),
                z2_var=float(z2.var(ddof=1)) if len(z2) > 1 else None,
                ks_z1=ks_distance(z1) if len(z1) >= 100 else None,
                ks_z2=ks_distance(z2) if len(z2) >= 100 else None,
            )
        else:
            out.update(z1_mean=None, z1_var=None, z2_mean=None, z2_var=None,
                       ks_z1=None, ks_z2=None)
        return out


def _get_seq(n, r, p, t1):
    key = (n, r, p, t1)
    seq = _SEQ_CACHE.get(key)
    if seq is None:
        seq = drift_sequences(n, r, p, t1)
        _SEQ_CACHE[key] = seq
        if len(_SEQ_CACHE) > 8:
            _SEQ_CACHE.pop(next(iter(_SEQ_CACHE)))
    return seq


def _run_replicate(ctx: CellContext, seed: int) -> ReplicateStats:
    trace_level = "light" if (ctx.collect_windows or ctx.collect_doob or ctx.collect_gap) else "none"
    cfg = ExplorationConfig(
        n=ctx.n, r=ctx.r, p=ctx.p, seed=seed, mode=ctx.mode,
        stop_rule=ctx.stop, margin=ctx.margin if ctx.stop == "giant" else 0,
        census_t0=ctx.t0,
    )
    res = run_exploration(cfg, record=trace_level)
    max_s_pre = max_s_t1 = duality = v1 = v2 = v12 = l1 = l2 = gap = None
    if trace_level == "light":
        seq = _get_seq(ctx.n, ctx.r, ctx.p, ctx.t1)
        need_t1 = ctx.collect_doob or ctx.collect_windows
        if need_t1 and res.n_steps < ctx.t1:
            raise RuntimeError(
                f"replicate too short for the t1 horizon: {res.n_steps} < {ctx.t1}"
            )
        dt = decompose(res, seq, t1=ctx.t1 if need_t1 else 0)
        if ctx.collect_windows:
            upto = min(res.n_steps, ctx.t1 + (ctx.t0 or 0))
            abs_s = np.abs(dt.S)
            max_s_pre = float(np.max(abs_s[:upto]))
            max_s_t1 = float(np.max(abs_s[: ctx.t1]))
            if res.T1 is not None:
                duality = duality_diagnostic(dt, res, ctx.lambda_star)
        if ctx.collect_doob:
            v1, v2, v12 = dt.V1, dt.V2, dt.V12
            l1, l2 = dt.lindeberg1, dt.lindeberg2
        if ctx.collect_gap:
            gap = approx_gap(res, dt)
    return ReplicateStats(
        L1=res.L1, N1=res.N1, Z=res.Z, T0=res.T0, T1=res.T1, c_t0p1=res.c_t0p1,
        max_s_pre=max_s_pre, max_s_t1=max_s_t1, duality=duality,
        v1=v1, v2=v2, v12=v12, lind1=l1, lind2=l2, gap=gap,
    )


def _replicate_chunk(args):
    fn, ctx, master_seed, salt, lo, hi = args
    out = []
    for rep in range(lo, hi):
        seed = derive_seed(master_seed, salt, rep)
        try:
            out.append(fn(ctx, seed))
        except Exception as exc:  # reported upstream with the replicate's seed
            return out, f"replicate {rep} (seed {seed}) failed: {exc!r}"
    return out, None


def _map_replicates(fn, ctx, R: int, master_seed: int, salt: int, workers: int) -> list:
    """[fn(ctx, derive_seed(master_seed, salt, rep)) for rep in range(R)],
    in chunks over a fork pool when workers > 1.  Raises RuntimeError naming
    the lowest failed replicate and its derived seed."""
    chunk = max(1, min(512, -(-R // (workers * 4)))) if workers > 1 else R
    tasks = [(fn, ctx, master_seed, salt, lo, min(lo + chunk, R)) for lo in range(0, R, chunk)]
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
    p, lam, eps = spec.resolved()
    super_cell = eps > 0.0
    collect = set(plan.collect)
    if not super_cell and (spec.stop == "giant" or "windows" in collect or "doob" in collect):
        raise ValueError("giant stop rule and window/doob collection need a supercritical cell")
    if super_cell:
        t0 = int(math.floor(plan.omega * math.sqrt(spec.n / eps)))
        t1 = int(math.floor(rho_r(spec.r, lam) * spec.n))
        targets = clt_targets(spec.n, spec.r, eps)
        lam_star = dual_lambda(lam)
        if eps**3 * spec.n < 1.0:
            warnings.warn(
                f"cell {spec.name()}: eps^3 n = {eps ** 3 * spec.n:.3g} < 1; "
                "inside the critical window, CLT targets unreliable",
                stacklevel=2,
            )
    else:
        t0, t1, targets, lam_star = None, 0, None, None
    margin = spec.margin if spec.margin is not None else 2 * (t0 or 0)
    sqrt_eps_n = math.sqrt(eps * spec.n) if super_cell else 0.0
    return CellContext(
        n=spec.n, r=spec.r, p=p, lam=lam, eps=eps, mode=spec.mode, stop=spec.stop,
        t0=t0, t1=t1, margin=margin, omega=plan.omega, targets=targets,
        lambda_star=lam_star,
        collect_windows="windows" in collect,
        collect_doob="doob" in collect,
        collect_gap="gap" in collect,
        collect_l1law="l1law" in collect,
        z_threshold=sqrt_eps_n / plan.omega if super_cell else 0.0,
        s_threshold=plan.omega * sqrt_eps_n,
        t0_threshold=math.sqrt(spec.n / eps) / plan.omega if super_cell else 0.0,
    )


def run_cell(spec: CellSpec, plan: ExperimentPlan, cell_index: int = 0,
             workers: int = 1) -> CellResult:
    ctx = make_context(spec, plan)
    try:
        reps = _map_replicates(_run_replicate, ctx, plan.replicates, plan.master_seed,
                               cell_index, workers)
    except RuntimeError as exc:
        raise RuntimeError(f"cell {spec.name()} aborted: {exc}") from None
    agg = MCAggregate()
    for stats in reps:
        agg.add(stats, ctx)
    return CellResult(spec=spec, ctx=ctx, replicates=plan.replicates, aggregate=agg)


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


def _l1_l2(ctx, seed: int) -> tuple:
    n, r, p = ctx
    res = run_exploration(ExplorationConfig(n=n, r=r, p=p, seed=seed))
    return res.L1, res.L2


def _bound_value(eps, n, L, c):
    return c * (eps * n / L) * math.exp(-eps * eps * L / c)


def _tail_rows(values: np.ndarray, L_grid, eps, n, c_bound) -> list:
    R = values.shape[0]
    rows = []
    for L in L_grid:
        cnt = int(np.sum(values > L))
        lo, hi = wilson_interval(cnt, R)
        rows.append(_TailRow(L=int(L), exceed_count=cnt, R=R, p_hat=cnt / R,
                             wilson_lo=lo, wilson_hi=hi,
                             bound=_bound_value(eps, n, L, c_bound)))
    return rows


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


def tail_p(kind: str, n: int, r: int, eps: float) -> float:
    """The edge probability of a tail experiment, at lambda = 1 - eps for
    kind 'sub' and 1 + eps for 'super'.  Raises ValueError on inputs that
    the experiment or the exploration rejects, before any replicate runs."""
    if kind == "sub" and not 0.0 < eps < 1.0:
        raise ValueError("subcritical eps must lie in (0, 1)")
    if kind == "super" and not eps > 0.0:
        raise ValueError("supercritical eps must be positive")
    p = p_from_lambda(n, r, 1.0 - eps if kind == "sub" else 1.0 + eps)
    ExplorationConfig(n=n, r=r, p=p, seed=0)
    return p


def tail_subcritical(n: int, r: int, eps: float, L_grid, R: int, master_seed: int,
                     workers: int = 1, c_bound: float = 10.0) -> TailReport:
    """Empirical Pr(L1 > L) in the subcritical regime p = (1-eps)(r-2)! n^(1-r),
    with Wilson intervals, an affine fit of log Pr against L, and the
    exponential tail bound with the frozen constant."""
    p = tail_p("sub", n, r, eps)
    pairs = _map_replicates(_l1_l2, (n, r, p), R, master_seed, 0, workers)
    l1, _ = np.array(pairs, dtype=np.int64).T
    rows = _tail_rows(l1, L_grid, eps, n, c_bound)
    slope, intercept, resid = _affine_fit(rows)
    largest = rows[-1]
    return TailReport(
        kind="subcritical", n=n, r=r, eps=eps, R=R, c_bound=c_bound, rows=rows,
        measurable=largest.exceed_count >= 5,
        slope=slope, intercept=intercept, max_fit_residual=resid,
    )


def tail_supercritical(n: int, r: int, eps: float, omega_grid, L_grid, R: int,
                       master_seed: int, workers: int = 1,
                       c_bound: float = 10.0) -> TailReport:
    """Supercritical concentration and second-component tails: empirical
    Pr(|L1 - rho n| >= omega sqrt(n/eps)) per omega (nested events over one
    run set, hence non-increasing), and Pr(L2 > L) with the subcritical-form
    bound."""
    lam = 1.0 + eps
    p = tail_p("super", n, r, eps)
    pairs = _map_replicates(_l1_l2, (n, r, p), R, master_seed, 1, workers)
    l1, l2 = np.array(pairs, dtype=np.int64).T
    rho_n = rho_r(r, lam) * n
    dev = np.abs(l1 - rho_n)
    scale = math.sqrt(n / eps)
    omega_rows = []
    for om in omega_grid:
        cnt = int(np.sum(dev >= om * scale))
        omega_rows.append((float(om), cnt, cnt / R))
    rows = _tail_rows(l2, L_grid, eps, n, c_bound)
    slope, intercept, resid = _affine_fit(rows)
    return TailReport(
        kind="supercritical", n=n, r=r, eps=eps, R=R, c_bound=c_bound, rows=rows,
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
