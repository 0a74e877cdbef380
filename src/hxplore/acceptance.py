"""Acceptance suite: eleven criteria combining exact identities, oracle
equivalence at tiny scale, and calibrated finite-size statistical bands.

Every band marked (cal) below was fixed once from a pilot run at the frozen
seed and is hard-coded here; the seeds themselves are frozen so the whole
suite is deterministic.  Entry points: run_all() and the per-criterion
functions, each returning a CheckResult of one Record per checked statistic.
`hxplore verify` and tests/test_acceptance.py both drive this module.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from typing import NamedTuple

import numpy as np

from .doob import conditional_moments
from .explore import ExplorationConfig, census, explore
from .mc import (
    CellSpec,
    ExperimentPlan,
    format_cell_row,
    run_cell,
    tail_experiment,
)
from .oracle import enumerate_all, enumerate_step
from .stats import chi_square_gof
from .theory import (
    dual_lambda,
    integrate_h,
    p_from_lambda,
    rho_r,
    rho_star,
    solve_rho,
)
from .util import comb0, seeded_generators

__all__ = ["CheckResult", "Record", "clt_records", "format_line", "run_all", "CRITERIA"]

RLAM_GRID = [(r, lam) for r in (2, 3, 4, 7) for lam in (1.05, 1.2, 1.5, 2.0)] + [
    (7, 30.0), (10, 30.0), (10, 100.0)]

# (cal) frozen bands and constants, fixed once from pilot runs
SERIES_BAND_RHO = (0.08, 0.20)       # cubic remainder: ratio ~ 1/8 per halving, pilot 0.128-0.138
SERIES_BAND_RHO_R = (0.20, 0.33)     # quadratic absolute remainder, pilot 0.254-0.277
SERIES_BAND_RHO_STAR = (0.04, 0.10)  # quartic absolute remainder, pilot 0.064-0.071
TAIL_FIT_TOL = 0.35                  # max |residual| of the affine log-prob fit
TAIL_C = 10.0
SUPER_EXCEED_AT_4 = 0.02
WINDOW_MIN_FREQ = 0.95
DUALITY_MIN_CORR = 0.90
MAXINEQ_C = 2.5
MAXINEQ_Y_GRID = (200.0, 300.0, 400.0, 500.0)
GAP_LIMIT = 10.0
LINDEBERG_LIMIT = 0.01
CLT_CORR = math.sqrt(3.0 / 5.0)      # limiting corr(L1, N1) at r = 3
CLT_CORR_TOL = 0.06                  # criterion 5's corr band, also `hxplore mc`'s verdict
CLT_KS_Z1 = 0.05                     # criterion 5's KS bound for z1, also `hxplore mc`'s verdict

CLT_CELL = dict(n=300_000, r=3, eps=0.15)
WINDOW_CELL = dict(n=100_000, r=3, eps=0.2)

SEED_FUZZ = 1103
SEED_ORACLE = 1104
SEED_CLT = 1105
SEED_VSUMS = 1106
SEED_SUBTAIL = 1107
SEED_SUPERTAIL = 1108
SEED_WINDOWS = 1109
SEED_SHAPE = 1110
SEED_DETERMINISM = 1111


def _fmt(x) -> str:
    return str(x) if x is None or isinstance(x, bool) else f"{x:.5g}"


class Record(NamedTuple):
    """One checked statistic.  It passes when lo <= value <= hi, or lo < value < hi
    when strict; a None or NaN value fails."""

    name: str
    value: object
    lo: float = -math.inf
    hi: float = math.inf
    strict: bool = False

    @property
    def passed(self) -> bool:
        v = self.value
        return v is not None and (self.lo < v < self.hi if self.strict else self.lo <= v <= self.hi)

    def __str__(self) -> str:
        left, right = "()" if self.strict else "[]"
        band = f"{left}{_fmt(self.lo)}, {_fmt(self.hi)}{right}"
        return f"{self.name} = {_fmt(self.value)} (want {band})"


def _extreme(name, cases, pick=max, **band) -> Record:
    """The record of a grid's (point, value) case with the largest value, or smallest
    with pick=min; a None or NaN value comes first.  Its name carries the point."""
    undefined = [case for case in cases if case[1] is None or math.isnan(case[1])]
    point, value = undefined[0] if undefined else pick(cases, key=lambda case: case[1])
    return Record(f"{name} at {point}", value, **band)


class CheckResult(NamedTuple):
    number: int
    name: str
    seconds: float
    records: tuple

    @property
    def passed(self) -> bool:
        return all(rec.passed for rec in self.records)

    @property
    def details(self) -> str:
        """The failing records, or every record when none fails."""
        shown = [rec for rec in self.records if not rec.passed] or self.records
        return "; ".join(map(str, shown))


def format_line(res: CheckResult) -> str:
    """The one line printed for a criterion."""
    return (f"criterion {res.number:2d} [{'PASS' if res.passed else 'FAIL'}] {res.name} "
            f"({res.seconds:.1f}s) -- {res.details}")


CRITERIA = []


def _criterion(number, name):
    """Register a generator of Records as criterion `number`, timed into a CheckResult."""
    def register(body):
        def fn(workers: int = 1) -> CheckResult:
            t0 = time.perf_counter()
            records = tuple(body(workers))
            return CheckResult(number, name, time.perf_counter() - t0, records)
        CRITERIA.append((number, fn))
        return fn
    return register


@_criterion(1, "fixed points and quadrature identity")
def criterion_fixed_points(workers):
    residuals = {"rho": [], "dual": [], "rho_r": [], "quadrature": []}
    for r, lam in RLAM_GRID:
        rho = solve_rho(lam)
        las = dual_lambda(lam)
        rr = rho_r(r, lam)
        point = f"(r={r}, lam={lam})"
        residuals["rho"].append((point, abs(1.0 - rho - math.exp(-lam * rho))))
        residuals["dual"].append((point, abs(las * math.exp(-las) - lam * math.exp(-lam))))
        residuals["rho_r"].append((point, abs((1.0 - rr) ** (r - 1) - (1.0 - rho))))
        residuals["quadrature"].append((point, abs(integrate_h(r, lam, 0.0, rr) - rho_star(r, lam))))
    for tag, tol in (("rho", 1e-12), ("dual", 1e-12), ("rho_r", 1e-10), ("quadrature", 1e-9)):
        yield _extreme(f"max {tag} residual", residuals[tag], hi=tol, strict=True)


@_criterion(2, "series asymptotics of the fixed points")
def criterion_series(workers):
    eps_grid = (0.2, 0.1, 0.05, 0.025)
    bands = (("rho_lambda", SERIES_BAND_RHO), ("rho_r", SERIES_BAND_RHO_R),
             ("rho_star", SERIES_BAND_RHO_STAR))
    ratios = {tag: [] for tag, _ in bands}
    for r in (2, 3, 7):
        errs = []
        for eps in eps_grid:
            lam = 1.0 + eps
            errs.append((abs(solve_rho(lam) - (2 * eps - 8.0 / 3.0 * eps**2)),
                         abs(rho_r(r, lam) - 2 * eps / (r - 1)),
                         abs(rho_star(r, lam) - 2.0 / 3.0 * eps**3 / (r - 1) ** 2)))
        for k in range(1, len(eps_grid)):
            for (tag, _), a, b in zip(bands, errs[k], errs[k - 1]):
                ratios[tag].append((f"(r={r}, eps={eps_grid[k]})", a / b))
    for tag, (lo, hi) in bands:
        for pick in (min, max):
            yield _extreme(f"{pick.__name__} {tag} halving ratio", ratios[tag], pick, lo=lo, hi=hi)


def _fuzz_configs(count=100):
    rng = next(seeded_generators([SEED_FUZZ]))
    out = []
    for i in range(count):
        r = int(rng.integers(2, 6))
        n = int(rng.integers(1, 2001))
        lam = float(rng.uniform(1.05, 1.6)) if i % 2 == 0 else float(rng.uniform(0.3, 0.95))
        p = p_from_lambda(n, r, lam)
        if not 0.0 < p < 0.9:
            tested = max(1, comb0(n, r - 1))
            p = float(rng.uniform(0.3, 1.0)) * min(0.5, 2.0 / tested)
        mode = "explicit" if (i % 3 == 0 and comb0(n, r) <= 200_000) else "implicit"
        out.append(ExplorationConfig(n=n, r=r, p=p, seed=int(rng.integers(2**63)),
                                     mode=mode, census_t0=max(0, n // 3)))
    return out


@_criterion(3, "trace identities across fuzzed configurations")
def criterion_trace_identities(workers):
    failures = []  # (identity, config) in config order
    for cfg in _fuzz_configs():
        tr = explore(cfg)
        rr = cfg.r - 1
        X, A, C = tr.X, tr.A, tr.C
        eta_inc = np.diff(np.concatenate([[0], X])) + 1
        prevmin = np.minimum.accumulate(np.concatenate([[0], X]))[:-1]
        cen = census(tr, t0=cfg.census_t0)
        holds = {
            "X = A - C": (X == A - C).all(),
            "X increments = eta - 1": (eta_inc == tr.eta).all(),
            "eta <= (r-1) E": (tr.eta <= rr * tr.edge_counts).all(),
            "xi <= nullity increment <= xi + zeta":
                ((tr.xi <= tr.nullity_inc) & (tr.nullity_inc <= tr.xi + tr.zeta)).all(),
            "record lows of X at A = 0": ((X < prevmin) == (A == 0)).all(),
            "component vertices sum to n": sum(c.vertices for c in tr.components) == cfg.n,
            "X_n = -c(H)": X[-1] == -len(tr.components),
            "component nullity = 1 + (r-1) e - |C|":
                all(c.nullity == 1 + rr * c.edges - c.vertices for c in tr.components),
            "(r-1) M1 = L1 + N1 - 1": rr * cen.M1 == cen.L1 + cen.N1 - 1,
            "T0 <= t0 < T1": cen.T1 is None or cen.T0 <= cfg.census_t0 < cen.T1,
        }
        at = f"(n={cfg.n}, r={cfg.r}, mode={cfg.mode})"
        failures += [(identity, at) for identity, ok in holds.items() if not ok]
    for identity in holds:
        where = [at for name, at in failures if name == identity]
        first = f", first at {where[0]}" if where else ""
        yield Record(f"'{identity}' violations{first}", len(where), 0, 0)


@_criterion(4, "sampler/oracle equivalence and exact conditional moments")
def criterion_oracle_equivalence(workers):
    R = 200_000
    for salt, (n, r, p) in enumerate([(5, 3, 0.15), (8, 2, 0.2)]):
        exact = enumerate_all(n, r, p)
        marginal = exact.l1_marginal()
        exact_mean = exact.mean_l1()
        exact_var = sum(q * (l1 - exact_mean) ** 2 for l1, q in marginal.items())
        for mode in ("implicit", "explicit"):
            spec = CellSpec(n=n, r=r, p=p, mode=mode, stop="full")
            cell = 2 * salt + (mode == "explicit")
            plan = ExperimentPlan(cells=(spec,), replicates=R, master_seed=SEED_ORACLE + cell,
                                  collect=("census", "l1law"))
            counts = run_cell(spec, plan, cell_index=cell, workers=workers).aggregate.l1_counts
            pv = chi_square_gof(counts, marginal)[2]
            yield Record(f"({n},{r},{p}) {mode} L1 chi-square p", pv, lo=0.001, strict=True)
            mean = sum(k * c for k, c in counts.items()) / R
            se = math.sqrt(exact_var / R)
            yield Record(f"({n},{r},{p}) {mode} E[L1] - exact {exact_mean:.4f}", mean - exact_mean,
                         -3.0 * se, 3.0 * se, strict=True)
    mom = enumerate_step(8, 3, 0.1, explored=[], active=[]).moments()
    cm = conditional_moments(8, 3, 0.1, t=1, active_excl=0, unseen_excl=7)
    gaps = [(key, abs(mom[key] - getattr(cm, key)))
            for key in ("mean_eta", "var_eta", "mean_xi", "var_xi", "cov_xi_eta")]
    yield _extreme("max |enumerated - formula| conditional moment", gaps, hi=1e-10, strict=True)


def _mean(values: list) -> float:
    """The mean of values, summed left to right from 0.0."""
    return functools.reduce(operator.add, values, 0.0) / len(values)


def _run_giant(cell, R, seed, workers, collect=("census", "windows")):
    spec = CellSpec(**cell, stop="giant")
    plan = ExperimentPlan(cells=(spec,), replicates=R, master_seed=seed, omega=4.0,
                          collect=collect)
    return run_cell(spec, plan, workers=workers)


def clt_records(s: dict):
    """Criterion 5's Records of a cell summary; `hxplore mc` reads its verdicts from them."""
    yield Record("mean z1", s["z1_mean"], -0.25, 0.25)
    yield Record("mean z2", s["z2_mean"], -0.30, 0.30)
    yield Record("var z1", s["z1_var"], 0.8, 1.2)
    yield Record("var z2", s["z2_var"], 0.75, 1.25)
    yield Record("corr", s["corr"], CLT_CORR - CLT_CORR_TOL, CLT_CORR + CLT_CORR_TOL)
    yield Record("KS z1", s["ks_z1"], hi=CLT_KS_Z1, strict=True)
    yield Record("KS z2", s["ks_z2"], hi=0.06, strict=True)


@_criterion(5, "bivariate CLT of (L1, N1) at the sparse supercritical cell")
def criterion_bivariate_clt(workers):
    yield from clt_records(_run_giant(CLT_CELL, 4000, SEED_CLT, workers, ("census",)).summary())


@_criterion(6, "conditional variance sums match the CLT variance targets")
def criterion_variance_sums(workers):
    agg = _run_giant(CLT_CELL, 100, SEED_VSUMS, workers, ("census", "doob")).aggregate
    n, r, eps = CLT_CELL["n"], CLT_CELL["r"], CLT_CELL["eps"]
    yield Record("V1 / 2 eps n", _mean(agg.values("v1")) / (2.0 * eps * n), 0.9, 1.1)
    yield Record("V2 / (10/3)(r-1)^-2 eps^3 n",
                 _mean(agg.values("v2")) / (10.0 / 3.0 / (r - 1) ** 2 * eps**3 * n), 0.7, 1.3)
    yield Record("V12 / (2/(r-1)) eps^2 n",
                 _mean(agg.values("v12")) / (2.0 / (r - 1) * eps**2 * n), 0.8, 1.2)


@_criterion(7, "subcritical tail bound shape for L1")
def criterion_subcritical_tail(workers):
    eps = 0.3
    rep = tail_experiment("sub", 30_000, 3, eps, None, R=20_000,
                          master_seed=SEED_SUBTAIL, workers=workers, c_bound=TAIL_C)
    for row in rep.rows:
        yield Record(f"Pr(L1 > {row.L})", row.p_hat, hi=row.bound)
    yield Record("Pr(L1 > L) strictly decreasing over the grid", rep.strictly_decreasing, True, True)
    yield Record("max |residual| of the affine log-probability fit", rep.max_fit_residual,
                 hi=TAIL_FIT_TOL)
    yield Record("at least 5 exceedances at the largest grid point", rep.measurable, True, True)


@_criterion(8, "supercritical concentration of L1 and tails of L2")
def criterion_supercritical_tail(workers):
    n, r, eps = WINDOW_CELL["n"], WINDOW_CELL["r"], WINDOW_CELL["eps"]
    rep = tail_experiment("super", n, r, eps, None, R=2000, master_seed=SEED_SUPERTAIL,
                          workers=workers, omega_grid=(2.0, 3.0, 4.0, 5.0), c_bound=TAIL_C)
    # nested events: each frequency is at most the one before it
    previous = 1.0
    for om, _, freq in rep.omega_rows:
        hi = min(previous, SUPER_EXCEED_AT_4) if om == 4.0 else previous
        yield Record(f"Pr(|L1 - rho n| >= {om:g} sqrt(n/eps))", freq, hi=hi)
        previous = freq
    for row in rep.rows:
        yield Record(f"Pr(L2 > {row.L})", row.p_hat, hi=row.bound)


@_criterion(9, "window events and duality prediction of T1")
def criterion_windows_duality(workers):
    windows = _run_giant(WINDOW_CELL, 1000, SEED_WINDOWS, workers).aggregate.windows()
    for event in ("E1", "E2", "E3"):
        yield Record(f"freq({event})", windows["window_freqs"][event], lo=WINDOW_MIN_FREQ)
    yield Record("duality correlation", windows["duality_corr"], lo=DUALITY_MIN_CORR)
    yield Record("Z + 1 = C_{t0+1} in every run", windows["z_identity_ok"], True, True)


@_criterion(10, "martingale shape: maximal inequality, drift gap, Lindeberg")
def criterion_martingale_shape(workers):
    # (a) maximal-inequality shape of max |S_i| up to t1
    res = _run_giant(WINDOW_CELL, 400, SEED_SHAPE, workers)
    maxes = np.asarray(res.aggregate.values("max_s_t1"))
    for y in MAXINEQ_Y_GRID:
        bound = 2.0 * math.exp(-y * y / (2.0 * MAXINEQ_C * res.aggregate.ctx.t1))
        yield Record(f"Pr(max |S_i| >= {y:g})", float(np.mean(maxes >= y)), hi=bound)
    # (b) drift-approximation constant, subcritical and supercritical
    for salt, lam in ((1, 1.2), (2, 0.8)):
        spec_g = CellSpec(n=WINDOW_CELL["n"], r=WINDOW_CELL["r"], lam=lam, stop="full")
        plan_g = ExperimentPlan(cells=(spec_g,), replicates=100,
                                master_seed=SEED_SHAPE + salt, collect=("census", "gap"))
        res_g = run_cell(spec_g, plan_g, workers=workers)
        yield Record(f"empirical c1 at lam={lam}", max([0.0, *res_g.aggregate.values("gap")]),
                     hi=GAP_LIMIT)
    # (c) realized Lindeberg sums at the CLT cell
    agg = _run_giant(CLT_CELL, 100, SEED_SHAPE + 3, workers, ("census", "doob")).aggregate
    nn, epsn = CLT_CELL["n"], CLT_CELL["eps"]
    yield Record("lindeberg1/(eps n)", _mean(agg.values("lind1")) / (epsn * nn),
                 hi=LINDEBERG_LIMIT, strict=True)
    yield Record("lindeberg2/(eps^3 n)", _mean(agg.values("lind2")) / (epsn**3 * nn),
                 hi=LINDEBERG_LIMIT, strict=True)


@_criterion(11, "deterministic mc output and its streaming (L1, N1) moments")
def criterion_determinism(workers):
    spec = CellSpec(n=20_000, r=3, eps=0.2, stop="giant")
    plan = ExperimentPlan(cells=(spec,), replicates=40, master_seed=SEED_DETERMINISM,
                          omega=4.0, collect=("census", "windows"))
    results = [run_cell(spec, plan, workers=w) for w in (1, 2, 1)]
    rows = [(format_cell_row(res), tuple(res.aggregate.z1), tuple(res.aggregate.values("duality")))
            for res in results]
    yield Record("mc output equal at workers 1, 2, 1", rows[0] == rows[1] == rows[2], True, True)
    # the cell's one-pass fold of (L1, N1) against two passes over the same values
    agg = results[0].aggregate
    biv = agg.biv
    x, y = (np.array(agg.values(name), dtype=np.float64) for name in ("L1", "N1"))
    dx, dy = x - x.mean(), y - y.mean()
    for name, want in (("mean_x", x.mean()), ("m2x", dx @ dx), ("cxy", dx @ dy), ("m2y", dy @ dy)):
        yield Record(f"relative error of the fold's {name} against two passes",
                     abs(getattr(biv, name) - float(want)) / max(1.0, abs(float(want))), hi=1e-9)


def run_all(keys=None, workers: int = 1, progress=None) -> list:
    """Run the acceptance criteria (all, or the numbered subset) and print
    one pass/fail line per criterion through `progress`."""
    results = []
    for number, fn in CRITERIA:
        if keys is not None and number not in keys:
            continue
        res = fn(workers=workers)
        if progress is not None:
            progress(format_line(res))
        results.append(res)
    return results
