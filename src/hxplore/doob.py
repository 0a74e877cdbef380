"""Doob decomposition and martingale analytics over exploration traces.

The walk increments split as eta_t - 1 = D_t + Delta_t with D_t the exact
conditional mean (not the paper-style bound): conditionally on the state
before step t, each of the u' unseen others is covered by a revealed edge
with probability pi_1 = 1 - (1-p)^c, pairs are covered with the exact
inclusion-exclusion probability pi_2, and all five first/second moments of
(eta_t, xi_t) follow by linearity.  Everything downstream (S_t, the drift
approximation Xtilde_t, the hat-martingale for the nullity, conditional
variance sums, Lindeberg diagnostics) is vectorized post-processing over
the A_t and xi_t paths of a recorded run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .theory import DriftSequences, lambda_from_p
from .util import comb0, comb_float

__all__ = [
    "ConditionalMoments",
    "DoobTrace",
    "conditional_moments",
    "decompose",
    "approx_gap",
    "duality_diagnostic",
]

DEFAULT_LINDEBERG_DELTA = 0.1


@dataclass(frozen=True)
class ConditionalMoments:
    mean_eta: float
    var_eta: float
    mean_xi: float
    var_xi: float
    cov_xi_eta: float
    pi1: float
    pi2: float


def conditional_moments(
    n: int, r: int, p: float, t: int, active_excl: int, unseen_excl: int
) -> ConditionalMoments:
    """Exact conditional moments of (eta_t, xi_t) given the pre-step state.

    active_excl and unseen_excl count the active/unseen vertices other than
    v_t and must partition the n - t unexplored others.  With
    c = binom(n-t-1, r-2) tested sets covering one fixed other vertex and
    c2 = binom(n-t-2, r-3) covering a fixed pair, inclusion-exclusion gives
    pi2 = 1 - 2 (1-p)^c + (1-p)^(2c - c2).
    """
    if active_excl < 0 or unseen_excl < 0 or active_excl + unseen_excl != n - t:
        raise ValueError(
            f"active_excl + unseen_excl must equal n - t = {n - t}, "
            f"got {active_excl} + {unseen_excl}"
        )
    c1 = comb0(n - t - 1, r - 2)
    c2 = comb0(n - t - 2, r - 3)
    logq = math.log1p(-p)
    pi1 = -math.expm1(c1 * logq)
    pi2 = 1.0 - 2.0 * math.exp(c1 * logq) + math.exp((2 * c1 - c2) * logq)
    ap, up = float(active_excl), float(unseen_excl)
    mean_eta = up * pi1
    var_eta = up * pi1 + up * (up - 1.0) * pi2 - mean_eta * mean_eta
    mean_xi = ap * pi1
    var_xi = ap * pi1 + ap * (ap - 1.0) * pi2 - mean_xi * mean_xi
    cov = ap * up * (pi2 - pi1 * pi1)
    return ConditionalMoments(
        mean_eta=mean_eta, var_eta=var_eta, mean_xi=mean_xi, var_xi=var_xi,
        cov_xi_eta=cov, pi1=pi1, pi2=pi2,
    )


@dataclass
class DoobTrace:
    """Per-step decomposition arrays (index i holds step t = i + 1) plus the
    conditional-variance and Lindeberg accumulators over steps t <= t1."""

    n: int
    r: int
    p: float
    t1: int
    D: np.ndarray
    Delta: np.ndarray
    Dstar: np.ndarray
    DeltaStar: np.ndarray
    S: np.ndarray
    Xtilde: np.ndarray
    Shat: np.ndarray
    V1: float
    V2: float
    V12: float
    lindeberg1: float
    lindeberg2: float

    @property
    def n_steps(self) -> int:
        return int(self.D.shape[0])


def _paths_from_run(run):
    """(A, xi, n, r, p) out of a RunResult with at least a light record."""
    if run.A is None or run.xi is None:
        raise ValueError("decompose needs a run recorded at level 'light' or 'full'")
    cfg = run.config
    return run.A, run.xi, cfg.n, cfg.r, cfg.p


def decompose(run, seq: DriftSequences, t1: int | None = None) -> DoobTrace:
    """Replay a recorded run through the exact conditional moments.

    Accumulates, over steps t <= t1: V1 = sum var_eta / beta^2 (conditional
    variance of beta^-1 Delta), V2 = sum gamma^2 var_eta + 2 gamma cov +
    var_xi (conditional variance of the hat increment), V12 = sum
    (gamma var_eta + cov)/beta, and the realized Lindeberg sums
    sum Delta^2 1{|Delta| >= delta sqrt(eps n)} and
    sum Dhat^2 1{|Dhat| >= delta sqrt(eps^3 n)} with delta =
    DEFAULT_LINDEBERG_DELTA.
    """
    A, xi, n, r, p = _paths_from_run(run)
    if (seq.n, seq.r) != (n, r) or seq.p != p:
        raise ValueError("trace and drift sequences disagree on (n, r, p)")
    if t1 is None:
        t1 = seq.t1
    if t1 > seq.t1:
        raise ValueError(f"t1 = {t1} exceeds the drift sequences' horizon {seq.t1}")
    T = A.shape[0]
    if t1 > T:
        raise ValueError(f"run has only {T} steps but t1 = {t1}")

    t = np.arange(1, T + 1, dtype=np.float64)
    A = A.astype(np.float64)
    A_prev = np.concatenate([[0.0], A[:-1]])
    started = A_prev == 0.0
    ap = np.where(started, 0.0, A_prev - 1.0)
    eta = A - ap
    up = (n - t) - ap

    c1 = comb_float(n - t - 1.0, r - 2)
    c2 = comb_float(n - t - 2.0, r - 3)
    logq = math.log1p(-p)
    pi1 = -np.expm1(c1 * logq)
    pi2 = 1.0 - 2.0 * np.exp(c1 * logq) + np.exp((2.0 * c1 - c2) * logq)
    kernel = pi2 - pi1 * pi1
    mean_eta = up * pi1
    var_eta = up * pi1 + up * (up - 1.0) * pi2 - mean_eta * mean_eta
    mean_xi = ap * pi1
    var_xi = ap * pi1 + ap * (ap - 1.0) * pi2 - mean_xi * mean_xi
    cov = ap * up * kernel

    D = mean_eta - 1.0
    Delta = eta - 1.0 - D
    Dstar = mean_xi
    DeltaStar = xi.astype(np.float64) - Dstar
    beta = seq.beta[1 : T + 1]
    S = np.cumsum(Delta / beta)
    Xtilde = seq.x[1 : T + 1] + beta * S

    gam = seq.gamma[1 : t1 + 1]
    Dhat = gam * Delta[:t1] + DeltaStar[:t1]
    Shat = np.cumsum(Dhat)
    b1 = beta[:t1]
    V1 = float(np.sum(var_eta[:t1] / (b1 * b1)))
    V2 = float(np.sum(gam * gam * var_eta[:t1] + 2.0 * gam * cov[:t1] + var_xi[:t1]))
    V12 = float(np.sum((gam * var_eta[:t1] + cov[:t1]) / b1))

    eps = lambda_from_p(n, r, p) - 1.0
    if eps > 0.0 and t1 > 0:
        thr1 = DEFAULT_LINDEBERG_DELTA * math.sqrt(eps * n)
        thr2 = DEFAULT_LINDEBERG_DELTA * math.sqrt(eps**3 * n)
        d1 = Delta[:t1]
        dh = Dhat
        lind1 = float(np.sum(d1 * d1 * (np.abs(d1) >= thr1)))
        lind2 = float(np.sum(dh * dh * (np.abs(dh) >= thr2)))
    else:
        lind1 = float("nan")
        lind2 = float("nan")

    return DoobTrace(
        n=n, r=r, p=p, t1=t1,
        D=D, Delta=Delta, Dstar=Dstar, DeltaStar=DeltaStar,
        S=S, Xtilde=Xtilde, Shat=Shat,
        V1=V1, V2=V2, V12=V12, lindeberg1=lind1, lindeberg2=lind2,
    )


def approx_gap(run, doob: DoobTrace) -> float:
    """Empirical constant for the drift approximation: the max over steps
    with C_t >= 1 of |X_t - Xtilde_t| n / (t C_t)."""
    A, _, n, _, _ = _paths_from_run(run)
    T = A.shape[0]
    if doob.n_steps != T:
        raise ValueError("run and decomposition have different lengths")
    A_prev = np.concatenate([[0], A[:-1]])
    started = A_prev == 0
    eta = A - np.where(started, 0, A_prev - 1)
    X = np.cumsum(eta - 1).astype(np.float64)
    C = np.cumsum(started).astype(np.float64)
    t = np.arange(1, T + 1, dtype=np.float64)
    ok = C >= 1.0
    ratio = np.abs(X - doob.Xtilde) * float(n) / (t * C)
    return float(np.max(ratio[ok]))


def duality_diagnostic(doob: DoobTrace, census, lambda_star: float):
    """(T1 - t1, Xtilde_{t1} / (1 - lambda_star)) for one supercritical run;
    across runs the two coordinates should be strongly correlated."""
    if census.T1 is None:
        raise ValueError("T1 undefined: exploration stopped before the post-cutoff component closed")
    t1 = doob.t1
    if doob.n_steps < t1 or t1 < 1:
        raise ValueError("decomposition does not reach t1")
    predicted = float(doob.Xtilde[t1 - 1]) / (1.0 - lambda_star)
    return float(census.T1 - t1), predicted
