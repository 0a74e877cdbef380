"""Doob decomposition and martingale analytics over exploration traces.

The walk increments split as eta_t - 1 = D_t + Delta_t with D_t the exact
conditional mean (not the paper-style bound): conditionally on the state
before step t, each of the u' unseen others is covered by a revealed edge
with probability pi_1 = 1 - (1-p)^c, pairs are covered with the exact
inclusion-exclusion probability pi_2, and all five first/second moments of
(eta_t, xi_t) follow by linearity.  One vectorized kernel computes them:
conditional_moments evaluates it at a single state (the form that the exact
step oracle checks), and decompose at every step of a run.  Everything
downstream (S_t, the drift approximation Xtilde_t, the hat-martingale for
the nullity, conditional variance sums, Lindeberg diagnostics) is
vectorized post-processing over the A_t, eta_t and xi_t columns of a run
recorded at level 'full'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .theory import DriftSequences, lambda_from_p
from .util import comb_float

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


def _moments(n: int, r: int, p: float, t, ap, up) -> tuple:
    """The exact conditional moments of (eta_t, xi_t) at the steps t with ap
    active and up unseen vertices other than v_t (float64 arrays): the arrays
    (mean_eta, var_eta, mean_xi, var_xi, cov_xi_eta, pi1, pi2).  With
    c = binom(n-t-1, r-2) tested sets covering one fixed other vertex and
    c2 = binom(n-t-2, r-3) covering a fixed pair, inclusion-exclusion gives
    pi2 = 1 - 2 (1-p)^c + (1-p)^(2c - c2) = pi1^2 + (1-p)^(2c) expm1(-c2 log(1-p)),
    computed in the second form: the first one's order-1 terms cancel for sparse p."""
    c1 = comb_float(n - t - 1.0, r - 2)
    c2 = comb_float(n - t - 2.0, r - 3)
    logq = math.log1p(-p)
    pi1 = -np.expm1(c1 * logq)
    dep = np.exp(2.0 * c1 * logq) * np.expm1(-c2 * logq)  # pi2 - pi1^2
    pi2 = pi1 * pi1 + dep
    mean_eta = up * pi1
    var_eta = up * pi1 + up * (up - 1.0) * pi2 - mean_eta * mean_eta
    mean_xi = ap * pi1
    var_xi = ap * pi1 + ap * (ap - 1.0) * pi2 - mean_xi * mean_xi
    cov = ap * up * dep
    return mean_eta, var_eta, mean_xi, var_xi, cov, pi1, pi2


def conditional_moments(
    n: int, r: int, p: float, t: int, active_excl: int, unseen_excl: int
) -> ConditionalMoments:
    """Exact conditional moments of (eta_t, xi_t) given the pre-step state,
    from the kernel that decompose replays a run through.

    active_excl and unseen_excl count the active/unseen vertices other than
    v_t and must partition the n - t unexplored others.
    """
    if active_excl < 0 or unseen_excl < 0 or active_excl + unseen_excl != n - t:
        raise ValueError(
            f"active_excl + unseen_excl must equal n - t = {n - t}, "
            f"got {active_excl} + {unseen_excl}"
        )
    one = [np.array([float(x)]) for x in (t, active_excl, unseen_excl)]
    return ConditionalMoments(*(float(x[0]) for x in _moments(n, r, p, *one)))


@dataclass
class DoobTrace:
    """Per-step decomposition arrays (index i holds step t = i + 1) plus the
    conditional-variance and Lindeberg accumulators over steps t <= t1."""

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


def decompose(run, seq: DriftSequences, t1: int | None = None) -> DoobTrace:
    """Replay a run recorded at level 'full' through the exact conditional moments.

    Accumulates, over steps t <= t1: V1 = sum var_eta / beta^2 (conditional
    variance of beta^-1 Delta), V2 = sum gamma^2 var_eta + 2 gamma cov +
    var_xi (conditional variance of the hat increment), V12 = sum
    (gamma var_eta + cov)/beta, and the realized Lindeberg sums
    sum Delta^2 1{|Delta| >= delta sqrt(eps n)} and
    sum Dhat^2 1{|Dhat| >= delta sqrt(eps^3 n)} with delta =
    DEFAULT_LINDEBERG_DELTA.  Raises RuntimeError when the run ends before t1.
    """
    if run.eta is None:
        raise ValueError("decompose needs a run recorded at level 'full'")
    n, r, p = run.config.n, run.config.r, run.config.p
    if (seq.n, seq.r) != (n, r) or seq.p != p:
        raise ValueError("trace and drift sequences disagree on (n, r, p)")
    if t1 is None:
        t1 = seq.t1
    if t1 > seq.t1:
        raise ValueError(f"t1 = {t1} exceeds the drift sequences' horizon {seq.t1}")
    T = run.n_steps
    if T < t1:
        raise RuntimeError(f"replicate too short for the t1 horizon: {T} < {t1}")

    t = np.arange(1, T + 1, dtype=np.float64)
    ap = (run.A - run.eta).astype(np.float64)  # A' = A - eta: the active vertices besides v_t
    mean_eta, var_eta, mean_xi, var_xi, cov, _, _ = _moments(n, r, p, t, ap, (n - t) - ap)

    D = mean_eta - 1.0
    Delta = run.eta - 1.0 - D
    Dstar = mean_xi
    DeltaStar = run.xi - Dstar
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
        t1=t1, D=D, Delta=Delta, Dstar=Dstar, DeltaStar=DeltaStar,
        S=S, Xtilde=Xtilde, Shat=Shat,
        V1=V1, V2=V2, V12=V12, lindeberg1=lind1, lindeberg2=lind2,
    )


def approx_gap(run, doob: DoobTrace) -> float:
    """Empirical constant for the drift approximation: the max over steps of
    |X_t - Xtilde_t| n / (t C_t), from a run recorded at level 'full'.  Every
    step has C_t >= 1, as C_1 = 1 and C never decreases."""
    if run.X is None:
        raise ValueError("approx_gap needs a run recorded at level 'full'")
    T = run.n_steps
    if doob.n_steps != T:
        raise ValueError("run and decomposition have different lengths")
    t = np.arange(1, T + 1, dtype=np.float64)
    ratio = np.abs(run.X - doob.Xtilde) * float(run.config.n) / (t * run.C)
    return float(np.max(ratio))


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
