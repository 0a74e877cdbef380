"""Monte Carlo experiment runner and statistics engine.

Replicates are fully independent: replicate k of cell c draws its own
generator seeded by a splitmix64 mix of (master_seed, c, k), so results are
byte-identical no matter how replicates are scheduled across workers.  A
replicate's generator starts in the state np.random.default_rng(seed) gives,
but util.seeded_generators computes those states for a range of replicates
and sets each on one reused generator.  make_context checks the cell's
config once and builds a traced cell's drift table, CellContext.drift; its
runs build its edge-count tables, CellContext.tables, once a chunk.  Both
are freed with the context.  With workers > 1 a cell runs in this process
and workers - 1 forked children, one contiguous range of replicates each;
the children inherit the context and fill their own copies of its tables.
`hxplore run --out` splits the rows of every table by the same rule.
_fork_map is the one transport between processes: nothing is pickled but
what a child's share returns or raises, and this process raises the lowest
share's exception.  A child's records cross as plain tuples, which pickle
faster; this process rebuilds each ReplicateStats once.  CellContext.replay
is the one Doob replay of a run, for a replicate and its `hxplore run
--doob` replay alike.  A cell's statistics are read off its replicate
results in replicate-index order, neutralizing floating-point
non-associativity.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .doob import DoobTrace, approx_gap, decompose, duality_diagnostic
from .explore import ExplorationConfig, run_exploration
from .stats import PairMoments, ks_distance, pair_moments, wilson_interval
from .theory import (
    CltTargets, DriftSequences, clt_targets, drift_sequences, dual_lambda, lambda_from_p,
    p_from_lambda, rho_r,
)
from .util import derive_seed, seeded_generators

__all__ = [
    "CellSpec",
    "ExperimentPlan",
    "check_omega",
    "MCAggregate",
    "CellResult",
    "ReplicateStats",
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


def resolve_workers(requested: int | None) -> int:
    """Advisory parallelism: the smaller of the request, the CPU count, and
    the HXPLORE_MAX_WORKERS cap.  Never affects results, only scheduling.
    Raises ValueError on a request or a cap below 1."""
    cap = os.environ.get(ENV_WORKER_CAP)
    try:
        cap = int(cap) if cap else 1 << 30
    except ValueError:
        raise ValueError(f"{ENV_WORKER_CAP} must be an integer, got {cap!r}") from None
    cpus = os.cpu_count() or 1
    requested = cpus if requested is None else requested
    for name, value in (("the worker count", requested), (ENV_WORKER_CAP, cap)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    return min(requested, cpus, cap)


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
        if not 1 <= self.replicates < 2**63:
            raise ValueError(f"replicates must lie in [1, 2**63), got {self.replicates}")
        check_omega(self.omega)
        known = {"census", "windows", "doob", "gap", "l1law"}
        bad = set(self.collect) - known
        if bad:
            raise ValueError(f"unknown collect flags: {sorted(bad)}")


class ReplicateStats(NamedTuple):
    """A replicate's census (L1, L2, N1, Z, T0, T1), then what its cell collects;
    c_t0p1 is C_{t0+1}, read off the walk of a windows run that reaches step t0 + 1."""

    L1: int
    L2: int
    N1: int
    Z: int
    T0: int
    T1: int | None
    c_t0p1: int | None = None
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

    @cached_property
    def traced(self) -> bool:
        """Whether a replicate records and replays its trace: it collects windows, doob or gap."""
        return bool(self.collect & {"windows", "doob", "gap"})

    @cached_property
    def drift(self) -> DriftSequences:
        """The cell's drift table up to t1, built once, by make_context for a traced cell."""
        return drift_sequences(self.n, self.r, self.p, self.t1)

    @cached_property
    def tables(self) -> dict:
        """Chunk start t -> the cell's edge-count table, filled by run_exploration."""
        return {}

    def replay(self, run) -> DoobTrace:
        """The Doob decomposition of a traced replicate's run up to t1, for the cell and for
        `hxplore run --doob`; decompose raises RuntimeError when the run ends before t1."""
        return decompose(run, self.drift)


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
    def biv(self) -> PairMoments:
        """The moments of (L1, N1), from their exact integer sums."""
        return pair_moments([rep.L1 for rep in self.reps], [rep.N1 for rep in self.reps])

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
        t1) and all three, the duality correlation, and whether the census's Z and the
        walk's C_{t0+1} gave Z + 1 = C_{t0+1} in every run that reached step t0 + 1;
        None, None and False when the cell collected no windows."""
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
    res = run_exploration(ctx.config(seed), record="full" if ctx.traced else "none", rng=rng,
                          tables=ctx.tables)
    if not ctx.traced:
        return ReplicateStats(res.L1, res.L2, res.N1, res.Z, res.T0, res.T1)
    c_t0p1 = max_s_pre = max_s_t1 = duality = v1 = v2 = v12 = l1 = l2 = gap = None
    dt = ctx.replay(res)
    if "windows" in ctx.collect:
        c_t0p1 = int(res.C[ctx.t0]) if ctx.t0 < res.n_steps else None
        upto = min(res.n_steps, ctx.t1 + (ctx.t0 or 0))
        abs_s = np.abs(dt.S)
        max_s_pre = float(np.max(abs_s[:upto]))
        max_s_t1 = float(np.max(abs_s[: ctx.t1]))
        if res.T1 is not None:
            duality = duality_diagnostic(dt, res, ctx.lambda_star)
    if "doob" in ctx.collect:
        v1, v2, v12 = dt.V1, dt.V2, dt.V12
        l1, l2 = dt.lindeberg1, dt.lindeberg2
    if "gap" in ctx.collect:
        gap = approx_gap(res, dt)
    return ReplicateStats(res.L1, res.L2, res.N1, res.Z, res.T0, res.T1, c_t0p1,
                          max_s_pre, max_s_t1, duality, v1, v2, v12, l1, l2, gap)


def _replay_command(ctx: CellContext, seed: int) -> str:
    """The `hxplore run` command that reruns the replicate with this seed:
    its flags rebuild ctx.config(seed)."""
    config = ctx.config(seed)
    stop = f"giant:{config.margin}" if config.stop_rule == "giant" else "full"
    argv = ["hxplore", "run", "--n", str(config.n), "--r", str(config.r), "--p", repr(config.p),
            "--mode", config.mode, "--stop", stop, "--omega", repr(ctx.omega), "--seed", str(seed)]
    if ctx.traced:
        argv.append("--doob")
    return " ".join(argv)


def _run_range(ctx: CellContext, master_seed: int, salt: int, lo: int, hi: int) -> list:
    """_run_replicate of replicates lo .. hi - 1 on their derived seeds; raises RuntimeError
    naming the first that fails, its seed and the command that replays it."""
    out = []
    seeds = derive_seed(master_seed, salt, np.arange(lo, hi, dtype=np.uint64))
    for rep, seed, rng in zip(range(lo, hi), seeds.tolist(), seeded_generators(seeds)):
        try:
            out.append(_run_replicate(ctx, seed, rng))
        except Exception as exc:
            raise RuntimeError(f"replicate {rep} (seed {seed}) failed: {exc!r}; "
                               f"replay: {_replay_command(ctx, seed)}") from None
    return out


def _fork_share(run_share, w: int):
    """Fork a child that writes one pickle to a pipe, (True, run_share(w)) or (False, the
    exception it raised), and ends with os._exit, running no atexit handler and flushing
    no inherited stdio buffer; returns (pid, the pipe's read end)."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            try:
                result = True, run_share(w)
            except Exception as exc:  # raised by the parent, in share order
                result = False, exc
            with open(wfd, "wb") as fh:
                pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)  # now only the child holds the write end, so its death ends the pipe
    return pid, open(rfd, "rb")


def _fork_map(run_share, workers: int) -> list:
    """[run_share(w) for w in range(workers)]: share 0 in this process, share w in
    forked child w.  Raises the exception of the lowest share that raises, share 0's
    directly.  A child that exits nonzero (as when its exception cannot be pickled),
    dies by a signal or sends a short pickle raises RuntimeError naming it and its exit
    status (-N: signal N).  No child outlives the call: when anything raises,
    KeyboardInterrupt included, every child still running is killed and reaped."""
    children = {}
    try:
        for w in range(1, workers):
            children[w] = _fork_share(run_share, w)
        shares = [run_share(0)]
        for w in range(1, workers):
            pid, reader = children[w]
            with reader:
                data = reader.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[w]
            try:
                ok, value = pickle.loads(data) if status == 0 else (None, None)
            except (EOFError, pickle.UnpicklingError):
                ok = None  # no result arrived
            if ok is None:
                raise RuntimeError(f"worker {w} exited with status {status} "
                                   f"after sending {len(data)} bytes")
            if not ok:
                raise value
            shares.append(value)
        return shares
    finally:
        for pid, reader in children.values():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
    if ctx.traced:
        ctx.drift  # builds the drift table, which checks the drift arguments
    return ctx


def run_cell(spec: CellSpec, plan: ExperimentPlan, cell_index: int = 0,
             workers: int = 1) -> CellResult:
    """The cell's R replicates, rep on the seed derive_seed(plan.master_seed, cell_index, rep).
    Of `shares` = min(workers, R) processes, process w runs replicates R * w // shares ..
    R * (w + 1) // shares - 1 through _fork_map.  Raises RuntimeError naming the cell and
    the lowest failed replicate, its seed and the command that replays it, or a dead worker."""
    ctx = make_context(spec, plan)
    if spec.stop == "giant" and ctx.eps**3 * ctx.n < 1.0:
        warnings.warn(
            f"cell {spec.name()}: eps^3 n = {ctx.eps ** 3 * ctx.n:.3g} < 1; "
            "inside the critical window, CLT targets unreliable",
            stacklevel=2,
        )
    R, shares = plan.replicates, max(1, min(workers, plan.replicates))

    def run_share(w):  # a child's records cross the fork as plain tuples, which pickle faster
        out = _run_range(ctx, plan.master_seed, cell_index, R * w // shares, R * (w + 1) // shares)
        return out if w == 0 else list(map(tuple, out))

    try:
        first, *rest = _fork_map(run_share, shares)
    except RuntimeError as exc:
        raise RuntimeError(f"cell {spec.name()} aborted: {exc}") from None
    reps = first + [ReplicateStats._make(rep) for out in rest for rep in out]
    return CellResult(spec=spec, aggregate=MCAggregate(tuple(reps), ctx))


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
    if not L_grid or min(L_grid) < 1 or max(L_grid) >= 2**63:
        raise ValueError(f"the L grid needs at least one L and every L in [1, 2**63), "
                         f"got {list(L_grid)}")
    if not (math.isfinite(c_bound) and c_bound > 0.0):
        raise ValueError(f"c_bound must be finite and positive, got {c_bound}")
    for om in omega_grid:
        check_omega(om)
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

TAILS_CSV_HEADER = ",".join(_TailRow._fields)


def _csv_row(values) -> str:
    """The CSV row of values: ints and strings with str, reals and None with fmt17."""
    return ",".join(str(v) if isinstance(v, (int, str)) else fmt17(v) for v in values)


def format_cell_row(result: CellResult) -> str:
    s = result.summary()
    return _csv_row(s[k] for k in CELL_CSV_HEADER.split(","))


def format_tail_row(row: _TailRow) -> str:
    return _csv_row(row)
