"""Deterministic theory layer for the supercritical random r-uniform
hypergraph: the branching-process fixed point rho_lambda, the one equation
solved here; the dual parameter and the giant component vertex/nullity
fractions, each in closed form from rho_lambda; the drift function g and its
companion h, finite-n drift sequences, and the standardization targets used
by the Monte Carlo layer.

Everything here is a pure function of its inputs and safe for concurrent
use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .util import comb0, comb_float

__all__ = [
    "DerivedConstants",
    "DriftSequences",
    "CltTargets",
    "p_from_lambda",
    "lambda_from_p",
    "solve_rho",
    "dual_lambda",
    "rho_r",
    "rho_star",
    "derived_constants",
    "g_eval",
    "h_eval",
    "integrate_h",
    "drift_sequences",
    "clt_targets",
]

MAX_R = 10  # exact integer binomials stay comfortable up to here
RHO_BRACKET_WIDTH = 1e-14  # solve_rho bisects down to this width before polishing
QUAD_TOL = 1e-11  # integrate_h's absolute tolerance


@dataclass(frozen=True)
class DerivedConstants:
    """Solved constants for one supercritical (r, lambda) pair."""

    rho_lambda: float  # Poisson(lambda) branching survival probability
    lambda_star: float  # dual parameter, unique solution < 1 of x e^-x = lam e^-lam
    rho_r: float  # giant-component vertex fraction
    rho_star: float  # giant-component nullity fraction


@dataclass(frozen=True)
class CltTargets:
    """Centering/scaling of (L1, N1) and their limit correlation."""

    mean_L1: float
    sd_L1: float
    mean_N1: float
    sd_N1: float
    corr: float


def p_from_lambda(n: int, r: int, lam: float) -> float:
    """Edge probability p = lambda (r-2)! n^(-r+1) for given branching lambda."""
    _check_params(r, n)
    return lam * math.factorial(r - 2) * float(n) ** (-(r - 1))


def lambda_from_p(n: int, r: int, p: float) -> float:
    """Branching parameter lambda = p n^(r-1) / (r-2)! of edge probability p."""
    _check_params(r, n)
    return p * float(n) ** (r - 1) / math.factorial(r - 2)


def solve_rho(lam: float) -> float:
    """Unique positive solution of 1 - rho = exp(-lambda rho) for lambda > 1.

    Bracketed bisection on (0, 1) down to RHO_BRACKET_WIDTH (the sign change is
    guaranteed there), then two Newton polish steps.  rho = 0 is always a
    root, so the bracket starts strictly inside the interval.  From lambda near
    36.4, where f rounds to 0 at the bracket's top, rho is the double of 1 - e^-lambda.
    """
    if not lam > 1.0:
        raise ValueError(f"lambda must exceed 1 (supercritical), got {lam}")
    if lam > 700.0:
        raise ValueError("lambda too large for double-precision fixed point")

    def f(x):
        # 1 - x - exp(-lam x), written to survive cancellation near the
        # degenerate root at 0
        return -x - math.expm1(-lam * x)

    lo = 1e-15
    hi = 1.0 - 0.5 * math.exp(-lam)
    if not f(lo) > 0.0:
        raise ValueError(f"failed to bracket survival fixed point for lambda={lam}")
    if not f(hi) < 0.0:  # the bracket cannot close below 1
        return 1.0 - math.exp(-lam)
    while hi - lo > RHO_BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(2):
        fx = f(x)
        fpx = -1.0 + lam * math.exp(-lam * x)
        if fpx != 0.0:
            x -= fx / fpx
    if not 0.0 < x < 1.0:
        raise ValueError(f"survival probability out of range for lambda={lam}")
    return x


def dual_lambda(lam: float) -> float:
    """Dual parameter: the unique solution < 1 of x e^-x = lambda e^-lambda,
    read off rho_lambda as lambda (1 - rho_lambda) = lambda e^(-lambda rho_lambda)."""
    return lam * math.exp(-lam * solve_rho(lam))


def rho_r(r: int, lam: float) -> float:
    """Giant-component vertex fraction: 1 - rho_r = (1 - rho_lambda)^(1/(r-1))
    = e^(-lambda rho_lambda/(r-1)), through expm1 so it keeps its digits near 1."""
    _check_params(r)
    return -math.expm1(-lam * solve_rho(lam) / (r - 1))


def rho_star(r: int, lam: float) -> float:
    """Giant-component nullity fraction (lam/r)(1 - (1-rho_r)^r) - rho_r."""
    _check_params(r)
    rho = solve_rho(lam)
    return (lam / r) * -math.expm1(-lam * rho * r / (r - 1)) + math.expm1(-lam * rho / (r - 1))


def derived_constants(r: int, lam: float) -> DerivedConstants:
    c = DerivedConstants(
        rho_lambda=solve_rho(lam),
        lambda_star=dual_lambda(lam),
        rho_r=rho_r(r, lam),
        rho_star=rho_star(r, lam),
    )
    return c


def _check_params(r: int, n: int = 1) -> None:
    if not (2 <= r <= MAX_R) or r != int(r):
        raise ValueError(f"r must be an integer in [2, {MAX_R}], got {r}")
    if not 1 <= n <= sys.float_info.max:
        raise ValueError(f"n must be >= 1 and fit a float, got {n}")


def g_eval(r: int, lam: float, tau):
    """Drift function g(tau) = 1 - tau - exp(-(lam/(r-1)) (1 - (1-tau)^(r-1)))."""
    tau = np.asarray(tau, dtype=np.float64)
    w = (lam / (r - 1)) * (1.0 - (1.0 - tau) ** (r - 1))
    out = 1.0 - tau - np.exp(-w)
    return out if out.ndim else float(out)


def h_eval(r: int, lam: float, tau):
    """h(tau) = g(tau) lambda (1-tau)^(r-2); its integral over [0, rho_r] is rho_star."""
    tau = np.asarray(tau, dtype=np.float64)
    out = g_eval(r, lam, tau) * lam * (1.0 - tau) ** (r - 2)
    return out if out.ndim else float(out)


def integrate_h(r: int, lam: float, a: float, b: float) -> float:
    """Adaptive Simpson quadrature of h over [a, b] to absolute tolerance QUAD_TOL.

    h is smooth with uniformly bounded derivative on [0, 1], so plain
    interval bisection with the standard Richardson error estimate suffices.
    """

    def f(x):
        return h_eval(r, lam, x)

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    m = 0.5 * (a + b)
    stack = [(a, b, f(a), f(m), f(b), simpson(a, b, f(a), f(m), f(b)), QUAD_TOL, 0)]
    total = 0.0
    while stack:
        x0, x2, f0, f1, f2, whole, eps, depth = stack.pop()
        xm = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = f(xl), f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if depth > 50 or abs(left + right - whole) <= 15.0 * eps:
            total += left + right + (left + right - whole) / 15.0
        else:
            stack.append((x0, xm, f0, fl, f1, left, eps / 2.0, depth + 1))
            stack.append((xm, x2, f1, fr, f2, right, eps / 2.0, depth + 1))
    return total


@dataclass(frozen=True)
class DriftSequences:
    """Deterministic per-step drift sequences for a given (n, r, p).

    Arrays are indexed by step t: beta[t] for t in [0, n] with beta[0] = 1,
    x[t] for t in [0, n], gamma[t] for t in [1, t1] with gamma[t1] = 0.
    """

    n: int
    r: int
    p: float
    t1: int
    beta: np.ndarray
    x: np.ndarray
    gamma: np.ndarray


def drift_sequences(n: int, r: int, p: float, t1: int) -> DriftSequences:
    """Compute beta, x and gamma in one vectorized pass.

    With alpha_t = p binom(n - t - 1, r - 2) and pi_t = 1 - (1 - p)^binom(n - t - 1, r - 2),
    beta is accumulated in log space (exp of a running sum of log1p(-alpha)),
    which keeps full relative accuracy for the tiny alpha_t of interest, and
    pi uses the exp(c log1p(-p)) form since c may be as large as n^(r-2).
    gamma comes from a single backward suffix pass over beta_t pi_t.
    """
    _check_params(r)
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if comb0(n - 1, r - 2) * p >= 0.5:
        raise ValueError("alpha_1 = p binom(n-2, r-2) must stay below 1/2; p too large for this n")
    if not 0 <= t1 <= n:
        raise ValueError(f"t1 must lie in [0, n], got {t1}")

    t = np.arange(0, n + 1, dtype=np.float64)
    c_cov = comb_float(n - t - 1.0, r - 2)  # tested sets covering one fixed vertex
    beta = np.empty(n + 1)
    beta[0] = 1.0
    alpha = p * c_cov[1:]  # alpha_t for t = 1 .. n
    beta[1:] = np.exp(np.cumsum(np.log1p(-alpha)))
    x = n - t - n * beta

    gamma = np.zeros(t1 + 1)
    if t1 >= 2:
        pi = -np.expm1(c_cov[1:t1] * math.log1p(-p))  # pi_t for t = 1 .. t1-1
        suffix = np.cumsum((beta[1:t1] * pi)[::-1])[::-1]  # the suffix sums of beta_t pi_t
        gamma[1:t1] = suffix / beta[1:t1]
    return DriftSequences(n=n, r=r, p=p, t1=t1, beta=beta, x=x, gamma=gamma)


def clt_targets(n: int, r: int, eps: float) -> CltTargets:
    """Centering and scaling of (L1, N1) in the sparsely supercritical regime,
    plus the limiting correlation sqrt(3/5)."""
    _check_params(r)
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    lam = 1.0 + eps
    return CltTargets(
        mean_L1=rho_r(r, lam) * n,
        sd_L1=math.sqrt(2.0 * n / eps),
        mean_N1=rho_star(r, lam) * n,
        sd_N1=math.sqrt(10.0 / 3.0) / (r - 1) * math.sqrt(eps**3 * n),
        corr=math.sqrt(3.0 / 5.0),
    )
