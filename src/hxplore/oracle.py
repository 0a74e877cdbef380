"""Exact ground truth at tiny scale, by counting and by enumeration.

enumerate_all returns the exact joint law of (L1, N1, L2) over H^r(n, p) by
counting labelled hypergraphs instead of visiting them.  Its strata are
exact integer counts per (edge count, L1, N1, L2), so the Bernoulli weights
enter once per stratum in log space and extreme p costs no accuracy.  The
count takes three polynomial recursions in Python ints, each polynomial in
the number of edges:

* g(s) = sum_e binom(binom(s, r), e) x^e counts all hypergraphs on s
  labelled vertices, and the connected ones follow by rooting at the
  smallest vertex:  c(s) = g(s) - sum_{k<s} binom(s-1, k-1) c(k) g(s-k)
  (Karonski & Luczak, The number of connected sparsely edged uniform
  hypergraphs, 1997).
* For a cap L, D_L(m) counts hypergraphs on m vertices whose components
  all have order <= L, split by their largest order M and their number j
  of components of order L.  Peeling off the component of the smallest
  vertex gives D_L(m) = sum_{k<=L} binom(m-1, k-1) c(k) D_L(m-k).
* Marking one component of order L = L1 with e1 edges and filling the rest
  from D_L(n - L) counts the pairs (hypergraph, marked largest component)
  with binom(n, L) c(L)[e1] D_L(n - L)[M, j].

N1 = 1 + (r - 1) e1 - L belongs to the largest component that contains
the smallest vertex, and L2 = M is the largest order among the others
(L itself when j > 0).  A hypergraph with j + 1 components of order L is counted
once per component, so the stratum count divides the pair count by j + 1.
The division is exact and does not bias N1 towards the smallest vertex:
given the vertex sets of the tied components, the connected structures on
them are exchangeable, so each one is the tie-break winner with the same
edge-count law.  Brute force over all 2^binom(n, r) edge subsets is kept
only in the tests, as a cross-check.

enumerate_step iterates every subset of the r-sets tested in a single
exploration step and returns the exact joint law of (E_t, eta_t, xi_t,
zeta_t) -- the validation target for the implicit step sampler and for the
conditional-moment formulas.  Its chunk results are exact integer counts,
so the summation order does not change the distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .util import colex_rank

__all__ = ["ExactDistribution", "StepLaw", "enumerate_all", "enumerate_step"]

MAX_N = 39  # both oracles' vertex limit: enumerate_all costs about n^4 at r >= n - 1
MAX_EDGES = 28
MAX_STEP_FAMILY = 22
_CHUNK = 1 << 21


def _binom_within(m: int, k: int, limit: int, name: str) -> int:
    """binom(m, k) for k >= 0, or ValueError naming it once past limit >= 1: binom(m, i)
    grows with i up to min(k, m - k), so a huge m or k stops the product in a few steps."""
    c = int(k <= m)
    for i in range(min(k, m - k)):
        c = c * (m - i) // (i + 1)
        if c > limit:
            raise ValueError(f"{name} exceeds the enumeration limit {limit}")
    return c


def _edge_weights(n_edges: int, p: float) -> np.ndarray:
    """Exact Bernoulli weight of one subset with e edges, per e."""
    e = np.arange(n_edges + 1, dtype=np.float64)
    if p == 0.0:
        w = np.zeros(n_edges + 1)
        w[0] = 1.0
    elif p == 1.0:
        w = np.zeros(n_edges + 1)
        w[-1] = 1.0
    else:
        w = np.exp(e * math.log(p) + (n_edges - e) * math.log1p(-p))
    return w


def _law(strata: dict, n_edges: int, p: float, first: int) -> tuple:
    """The sorted support and the probabilities of the outcomes key[first:] of the exact
    stratum counts strata, keyed (edge count, ...) among n_edges possible edges; each
    outcome sums its strata's weights in the order of strata."""
    w = _edge_weights(n_edges, p)
    probs: dict = {}
    for key, cnt in strata.items():
        outcome = key[first:]
        probs[outcome] = probs.get(outcome, 0.0) + cnt * w[key[0]]
    support = sorted(k for k, q in probs.items() if q > 0.0)
    return support, np.array([probs[k] for k in support])


@dataclass
class ExactDistribution:
    """Exact joint law of (L1, N1, L2) over H^r(n, p)."""

    n: int
    r: int
    p: float
    support: list
    probability: np.ndarray
    strata: dict  # (edge_count, L1, N1, L2) -> exact subset count

    def l1_marginal(self) -> dict:
        out: dict = {}
        for (l1, _, _), q in zip(self.support, self.probability):
            out[l1] = out.get(l1, 0.0) + float(q)
        return out

    def mean_l1(self) -> float:
        return float(sum(l1 * q for (l1, _, _), q in zip(self.support, self.probability)))


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _connected_counts(n: int, r: int) -> list:
    """c[s][e]: connected r-uniform hypergraphs on s labelled vertices with e edges."""
    g = [[math.comb(math.comb(s, r), e) for e in range(math.comb(s, r) + 1)] for s in range(n + 1)]
    c = [[], [1]]
    for s in range(2, n + 1):
        cs = list(g[s])
        for k in range(1, s):
            for e, x in enumerate(_poly_mul(c[k], g[s - k])):
                cs[e] -= math.comb(s - 1, k - 1) * x
        c.append(cs)
    return c


def _capped_counts(m: int, cap: int, r: int, c: list) -> dict:
    """(M, j) -> edge polynomial of the hypergraphs on m labelled vertices whose
    components have order <= cap, with largest order M and j of order cap."""
    d = [{(0, 0): [1]}]
    for size in range(1, m + 1):
        acc: dict = {}
        for k in range(1, min(cap, size) + 1):
            root = [math.comb(size - 1, k - 1) * x for x in c[k]]
            for (big, j), poly in d[size - k].items():
                out = acc.setdefault((max(big, k), j + (k == cap)), [0] * (math.comb(size, r) + 1))
                for e, x in enumerate(_poly_mul(root, poly)):
                    out[e] += x
        d.append(acc)
    return d[m]


def enumerate_all(n: int, r: int, p: float, workers: int = 1) -> ExactDistribution:
    """Exact joint law of (L1, N1, L2) by counting hypergraphs per stratum.
    Ties in L1 go to the component containing the smallest vertex.  `workers`
    is accepted for compatibility and unused: the count takes milliseconds.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not 1 <= n <= MAX_N or r < 2:
        raise ValueError(f"need r >= 2 and 1 <= n <= {MAX_N}, the enumeration limit")
    ne = _binom_within(n, r, MAX_EDGES, f"binom(n, r) at n = {n}")

    c = _connected_counts(n, r)
    counts: dict = {}
    for big in range(1, n + 1):
        rest = _capped_counts(n - big, big, r, c)
        for e1, connected in enumerate(c[big]):
            if not connected:
                continue
            marked = math.comb(n, big) * connected
            n1 = 1 + (r - 1) * e1 - big
            for (l2, j), poly in rest.items():
                for e, x in enumerate(poly):
                    if x:
                        key = (e1 + e, big, n1, l2)
                        counts[key] = counts.get(key, 0) + marked * x // (j + 1)
    strata = {key: counts[key] for key in sorted(counts)}
    support, probability = _law(strata, ne, p, 1)
    return ExactDistribution(n=n, r=r, p=p, support=support, probability=probability, strata=strata)


# ---------------------------------------------------------------------------
# single-step outcome enumeration
# ---------------------------------------------------------------------------


@dataclass
class StepLaw:
    """Exact joint law of (E_t, eta_t, xi_t, zeta_t) for one step."""

    n: int
    r: int
    p: float
    t: int
    v: int
    active_excl: int
    unseen_excl: int
    support: list
    probability: np.ndarray

    def moments(self) -> dict:
        tot = {"eta": 0.0, "eta2": 0.0, "xi": 0.0, "xi2": 0.0, "xieta": 0.0, "zeta": 0.0}
        for (e, eta, xi, zeta), q in zip(self.support, self.probability):
            q = float(q)
            tot["eta"] += q * eta
            tot["eta2"] += q * eta * eta
            tot["xi"] += q * xi
            tot["xi2"] += q * xi * xi
            tot["xieta"] += q * xi * eta
            tot["zeta"] += q * zeta
        return {
            "mean_eta": tot["eta"],
            "var_eta": tot["eta2"] - tot["eta"] ** 2,
            "mean_xi": tot["xi"],
            "var_xi": tot["xi2"] - tot["xi"] ** 2,
            "cov_xi_eta": tot["xieta"] - tot["xi"] * tot["eta"],
            "mean_zeta": tot["zeta"],
        }


def enumerate_step(n: int, r: int, p: float, explored, active) -> StepLaw:
    """Exact outcome law of the next exploration step from a given prefix.

    `explored` is the ordered list of already-explored vertices and `active`
    the current active set; the stepped vertex is the minimum active vertex
    if any, else the minimum unseen vertex, and every subset of the
    binom(n - t, r - 1) tested r-sets is enumerated.
    """
    if not 1 <= n <= MAX_N or r < 2:
        raise ValueError(f"need r >= 2 and 1 <= n <= {MAX_N}, the enumeration limit")
    explored = list(explored)
    active = set(active)
    if len(set(explored)) != len(explored):
        raise ValueError("explored vertices must be distinct")
    if active & set(explored):
        raise ValueError("active set must be disjoint from explored vertices")
    outside = sorted(v for v in active.union(explored) if not 0 <= v < n)
    if outside:
        raise ValueError(f"vertex ids must lie in range({n}), got {outside}")
    if len(explored) == n:
        raise ValueError(f"the prefix explores all {n} vertices, so no step is left")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    t = len(explored) + 1
    m = n - t  # the unexplored vertices besides the stepped one
    fam_n = _binom_within(m, r - 1, MAX_STEP_FAMILY, "the step family's binom(n - t, r - 1)")
    unexplored = sorted(set(range(n)) - set(explored))
    unseen = sorted(set(unexplored) - active)
    v = min(active) if active else min(unseen)
    others = [u for u in unexplored if u != v]
    act_mask = 0
    for i, u in enumerate(others):
        if u in active:
            act_mask |= 1 << i
    family = sorted(combinations(range(m), r - 1), key=colex_rank)
    fam_masks = [sum(1 << i for i in s) for s in family]
    pair_overlap = []
    for i in range(fam_n - 1):
        si = set(family[i])
        for j in range(i + 1, fam_n):
            ov = len(si.intersection(family[j]))
            if ov:
                pair_overlap.append((i, j, ov))

    total = 1 << fam_n
    strata: dict = {}
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        idx = np.arange(lo, hi, dtype=np.uint32)
        union = np.zeros(idx.shape, dtype=np.uint32)
        for b, fm in enumerate(fam_masks):
            has = -((idx >> np.uint32(b)) & np.uint32(1))  # 0 or all-ones
            union |= has & np.uint32(fm)
        e = np.bitwise_count(idx).astype(np.int64)
        xi = np.bitwise_count(union & np.uint32(act_mask)).astype(np.int64)
        eta = np.bitwise_count(union).astype(np.int64) - xi
        zeta = np.zeros(idx.shape, dtype=np.int64)
        for i, j, ov in pair_overlap:
            both = ((idx >> np.uint32(i)) & (idx >> np.uint32(j)) & np.uint32(1)).astype(np.int64)
            zeta += both * ov
        zmax = int(zeta.max()) + 1
        key = ((e * (m + 1) + eta) * (m + 1) + xi) * zmax + zeta
        cnt = np.bincount(key)
        for flat in np.nonzero(cnt)[0]:
            rest, zz = divmod(int(flat), zmax)
            rest, xx = divmod(rest, m + 1)
            ee, hh = divmod(rest, m + 1)
            k = (ee, hh, xx, zz)
            strata[k] = strata.get(k, 0) + int(cnt[flat])

    support, probability = _law(strata, fam_n, p, 0)
    ax = len(active - {v})
    return StepLaw(n=n, r=r, p=p, t=t, v=v, active_excl=ax, unseen_excl=m - ax,
                   support=support, probability=probability)
