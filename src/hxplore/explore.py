"""Step-by-step exploration of the random r-uniform hypergraph H^r(n, p).

At step t the minimum-index active vertex (else the minimum-index unseen
vertex) is explored, revealing every edge that contains it and no previously
explored vertex.  The walk X_t = A_t - C_t drops to a new record low exactly
when a component finishes.

Two modes produce identically distributed traces:

* implicit -- never materializes the hypergraph.  The number of edges found
  at step t is an exact Binomial(binom(n-t, r-1), p) draw, and each revealed
  edge's companion (r-1)-set is a uniform subset of the n-t unexplored
  "others" (resampled on within-step duplicates, so the revealed edges form
  a uniform subset of the tested r-sets).  Since vertices of equal status
  are exchangeable, the companions live in an abstract index space where
  indices below A'_t are active; everything observable in the trace is a
  function of counts alone.
* explicit -- materializes the full edge list up front and replays the same
  bookkeeping on real vertex identities; feasible while binom(n, r) <= 1e8.

The implicit engine draws edge counts 4,096 steps at a time and walks each
such chunk as a block of numpy operations, with exactly the random stream
and the outputs of a step-by-step loop.  Two facts make that exact:

* The stream does not depend on the state.  Which uniforms a step reads
  (its edge count, its companion indices, the refills of the one-edge
  uniform block) is a function of (seed, n, r, p, t) alone; only the number
  xi_t of active companions depends on A'_t = max(A_{t-1} - 1, 0).  So the
  union size s_t (which is eta_t when xi_t = 0), zeta_t and a threshold
  theta_t with xi_t = 0 exactly when A'_t <= theta_t are read off the stream
  first.
* The Lindley map A_t = A'_t + s_t - xi_t is monotone in A_{t-1}, since a
  larger A'_t raises xi_t by at most its own increase.  So the path with
  every xi = 0 bounds A from above, only the few steps whose theta_t lies
  below that bound can have xi_t > 0, and between two of them A follows the
  partial sums of s - 1 exactly.  Those steps are visited in order and get
  their exact xi from the step kernel; one cumulative sum and one running
  minimum then give the whole A column.

Chunks shorter than _SHORT_CHUNK steps, where numpy's per-call cost would
outweigh the block walk, run the step-by-step loop itself.

The law of a chunk's edge counts depends on (n, r, p, t) alone, so the runs
of one law can share its inversion tables (randvar.binomial_table), with
read-only arrays: run_exploration takes a dict from chunk start t to table,
which a Monte Carlo cell owns, and fills it as its runs reach new chunks.
Without one, a run builds each chunk's table when it reaches that chunk and
keeps none.  The component table is kept as close times and cumulative edge
counts, as int64 arrays in the full record; the census reduces long tables
with numpy and short ones in Python ints.

A run draws from a generator in the state np.random.default_rng(seed) gives,
so its stream is a function of the seed alone.  util.seeded_generators makes
it: run_exploration seeds one on its own, and a Monte Carlo cell computes the
states for a range of replicates and passes each run its generator.

A single run is strictly sequential; distinct runs with distinct seeds share
no state and may execute concurrently.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .randvar import BinomialTable, binomial_table, sample_binomial, sample_binomial_table
from .theory import MAX_R
from .util import colex_unrank, comb0, comb_float, seeded_generators

__all__ = [
    "ExplorationConfig",
    "ComponentRecord",
    "RunResult",
    "run_exploration",
    "explore",
    "materialize",
    "census",
]

EXPLICIT_EDGE_LIMIT = 10**8
BRANCHING_LIMIT = 16.0  # cap on p * binom(n, r-1); keeps E_t means O(1)
_E_CHUNK = 4096
_U_CHUNK = 8192
_SHORT_CHUNK = 512  # edge-count chunks shorter than this are walked step by step
_SHORT_TABLE = 32  # component tables up to this length are reduced in Python ints


@dataclass(frozen=True)
class ExplorationConfig:
    n: int
    r: int
    p: float
    seed: int
    mode: str = "implicit"
    stop_rule: str = "full"
    margin: int = 0
    census_t0: int | None = None  # cutoff anchoring Z / T_0 / T_1

    def __post_init__(self):
        if not 1 <= self.n < 2**63:
            raise ValueError(f"n must lie in [1, 2**63), got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not (2 <= self.r <= MAX_R):
            raise ValueError(f"r must be an integer in [2, {MAX_R}], got {self.r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        if self.mode not in ("implicit", "explicit"):
            raise ValueError(f"mode must be 'implicit' or 'explicit', got {self.mode!r}")
        if self.stop_rule not in ("full", "giant"):
            raise ValueError(f"stop_rule must be 'full' or 'giant', got {self.stop_rule!r}")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if self.stop_rule == "giant" and self.census_t0 is None:
            raise ValueError("stop_rule 'giant' needs census_t0 to locate the giant window")
        if self.census_t0 is not None and self.census_t0 < 0:
            raise ValueError(f"census_t0 must be nonnegative, got {self.census_t0}")
        if self.p * comb0(self.n, self.r - 1) > BRANCHING_LIMIT:
            raise ValueError("p binom(n, r-1) too large; the exploration assumes an O(1) branching factor")
        if self.mode == "explicit" and comb0(self.n, self.r) > EXPLICIT_EDGE_LIMIT:
            raise ValueError(f"explicit mode requires binom(n, r) <= {EXPLICIT_EDGE_LIMIT}")


class ComponentRecord(NamedTuple):
    index: int
    t_start: int  # close time of the previous component
    t_end: int  # record-low time of this component
    vertices: int
    edges: int
    nullity: int


@dataclass
class RunResult:
    """Everything one exploration run produces.  The census fields (L1 to
    giant_nullity) are anchored at config.census_t0; the per-step arrays and
    the component table are kept at record level 'full' only.  L2 is a lower
    bound when the run is not complete."""

    config: ExplorationConfig
    n_steps: int
    complete: bool
    components_closed: int
    total_edges: int
    total_nullity: int
    L1: int
    L2: int
    M1: int
    N1: int
    l1_tie: bool
    Z: int
    T0: int
    T1: int | None
    c_t0p1: int | None  # C_{t0+1}
    giant_vertices: int | None
    giant_nullity: int | None  # nullity gathered between T0 and T1
    close_t: np.ndarray | None = None  # the component table at level 'full': close times
    close_e: np.ndarray | None = None  # and the cumulative edge counts at each close
    A: np.ndarray | None = None
    xi: np.ndarray | None = None
    edge_counts: np.ndarray | None = None
    eta: np.ndarray | None = None
    zeta: np.ndarray | None = None
    nullity_inc: np.ndarray | None = None
    C: np.ndarray | None = None
    X: np.ndarray | None = None
    new_component: np.ndarray | None = None

    @cached_property
    def components(self) -> list:
        """The component table, built on first access from close_t and close_e."""
        if self.close_t is None:
            return []
        close_t, close_e = self.close_t.tolist(), self.close_e.tolist()
        return [_component(close_t, close_e, self.config.r - 1, i) for i in range(len(close_t))]


# ---------------------------------------------------------------------------
# implicit-mode step law
# ---------------------------------------------------------------------------


def _draw_distinct(rand, m: int, k: int) -> tuple:
    """Sorted tuple of k distinct uniform indices from range(m), built from
    the uniforms that successive rand() calls return."""
    if k == 1:
        return (int(rand() * m),)
    if k == 2:
        a = int(rand() * m)
        b = int(rand() * (m - 1))
        if b >= a:
            b += 1
        return (a, b) if a < b else (b, a)
    if m < 3 * k:
        pool = list(range(m))
        out = []
        for j in range(k):
            i = int(rand() * (m - j))
            out.append(pool.pop(i))
        return tuple(sorted(out))
    out = set()
    while len(out) < k:
        out.add(int(rand() * m))
    return tuple(sorted(out))


def _companion_sets(rand, m: int, rr: int, k: int) -> list:
    """The companion (r-1)-sets of a step revealing k >= 2 edges, as sorted
    tuples drawn from the uniforms of rand(), each redrawn until it differs
    from the earlier ones, so that conditional on the count they form a
    uniform k-subset of the tested r-sets."""
    sets = []
    for _ in range(k):
        s = _draw_distinct(rand, m, rr)
        while s in sets:
            s = _draw_distinct(rand, m, rr)
        sets.append(s)
    return sets


def _step_counts(rand, m: int, ap: int, rr: int, k: int, u) -> tuple:
    """(eta, xi, zeta) for a step revealing k >= 1 edges among the m = n - t
    unexplored others, indexed so that the `ap` active ones come first.

    k = 1: the single companion (r-1)-set is sampled sequentially from the
    rr uniforms in `u`.  k >= 2: the companion sets come from
    _companion_sets.
    """
    if k == 1:
        rem_act, rem_tot = ap, m  # the active others and all others not drawn yet
        for x in u:
            if x * rem_tot < rem_act:
                rem_act -= 1
            rem_tot -= 1
        return rr - ap + rem_act, ap - rem_act, 0
    sets = _companion_sets(rand, m, rr, k)
    union = set().union(*sets)
    xi = len([v for v in union if v < ap]) if ap else 0
    zeta = k * rr - len(union)  # the sum of |S_i & S_j| over pairs when no vertex is in 3 sets
    if k > 2 and zeta:  # C(c, 2) for a vertex in c of the sets
        zeta = sum(c * (c - 1) // 2 for c in Counter(v for s in sets for v in s).values())
    return len(union) - xi, xi, zeta


# ---------------------------------------------------------------------------
# run engines
# ---------------------------------------------------------------------------


def run_exploration(config: ExplorationConfig, record: str = "none", rng=None,
                    tables: dict | None = None) -> RunResult:
    """Run one exploration to completion (or to the stop rule).

    record: 'none' keeps only the census summary, 'full' also stores every
    per-step column and the component table.  rng: the run's generator, in
    the state util.seeded_generators gives config.seed; seeded here when
    None.  tables: chunk start t -> edge-count table, shared by the runs of
    one (n, r, p); the implicit engine takes each chunk's table from it, or
    builds the table and stores it there.  None keeps no table.
    """
    if record not in ("none", "full"):
        raise ValueError(f"record must be 'none' or 'full', got {record!r}")
    if rng is None:
        rng = next(seeded_generators([config.seed]))
    if config.mode == "explicit":
        return _run_explicit(config, record, rng)
    return _run_implicit(config, record, rng, tables)


def _uniform_groups(rng, rr: int, steps_left: int) -> np.ndarray:
    """The next _U_CHUNK uniforms of the stream as rows of rr, one row per
    one-edge step.  Only the rows that the remaining steps can use are
    drawn; the stream skips over the rest."""
    rows = min(_U_CHUNK // rr, steps_left)
    u = rng.random(rows * rr).reshape(rows, rr)
    rng.bit_generator.advance(_U_CHUNK - rows * rr)  # one 64-bit state step per uniform
    return u


def _union_stats(c: np.ndarray, ks: np.ndarray, rr: int) -> tuple:
    """For multi-edge steps with edge counts ks whose companion sets are the
    rows of c (one row per edge, steps in order): each step's union size,
    least union vertex and zeta, the unions sorted and concatenated, and
    whether every row holds rr distinct vertices and the rows of every step
    are pairwise distinct sets."""
    entries = ks * rr
    off = np.zeros(ks.size, dtype=np.int64)
    np.cumsum(entries[:-1], out=off[1:])
    base = np.repeat(off * int(c.max() + 1), entries)  # step-major keys, as offsets keep step order
    key = base + c.ravel()
    key.sort()
    vals = key - base
    new = np.empty(key.size, dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    size = np.add.reduceat(new, off, dtype=np.int64)
    zeta = np.zeros(ks.size, dtype=np.int64)
    valid = True
    for i in np.flatnonzero(size < entries).tolist():  # the rare steps whose sets overlap
        counts = Counter(vals[off[i]:off[i] + entries[i]].tolist()).values()
        zeta[i] = sum(x * (x - 1) // 2 for x in counts)
        sets = {frozenset(row) for row in c[off[i] // rr:off[i] // rr + ks[i]].tolist()}
        valid = valid and len(sets) == ks[i] and all(len(x) == rr for x in sets)
    return size, vals[off], zeta, vals[new], valid


def _segment_sets(rng, m: np.ndarray, ks: np.ndarray, rr: int) -> tuple:
    """_union_stats of a run of multi-edge steps (m = n - t and the edge
    count per step) that read consecutive uniforms.  Their companion sets
    are read as one vector of uniforms, the same ones _draw_distinct reads
    when no set is redrawn and no pool is used; otherwise the stream is
    rewound and the steps are replayed through _companion_sets."""
    set_m = np.repeat(m, ks)
    u = rng.random(set_m.size * rr).reshape(-1, rr)
    c = (u * set_m[:, None]).astype(np.int64)
    if rr == 2:  # the second index skips over the first
        b = (u[:, 1] * (set_m - 1)).astype(np.int64)
        c[:, 1] = b + (b >= c[:, 0])
    if rr < 3 or set_m.min() >= 3 * rr:
        *stats, valid = _union_stats(c, ks, rr)
        if valid:
            return stats
    rng.bit_generator.advance(-u.size)  # PCG64 takes one 64-bit step per uniform
    rows = [s for mi, k in zip(m.tolist(), ks.tolist()) for s in _companion_sets(rng.random, mi, rr, k)]
    return _union_stats(np.array(rows, dtype=np.int64), ks, rr)[:-1]


def _lindley(Q: np.ndarray, A0: int) -> np.ndarray:
    """A after each step of a chunk that starts at A0, given Q = (0, the
    partial sums of eta - 1): A_t = Q_t - min(-A0, min_{u<t} Q_u - 1)."""
    low = np.minimum.accumulate(Q[:-1])
    low -= 1
    np.minimum(low, -A0, out=low)
    return np.subtract(Q[1:], low, out=low)


def _block_chunk(rng, ks: np.ndarray, t: int, n: int, rr: int, A0: int, u_rows: np.ndarray,
                 j: int) -> tuple:
    """Steps t+1 .. t+len(ks) of an implicit run, with edge counts ks, from
    A_t = A0 and row j of the uniform block u_rows, read from the stream in
    the order of the step loop.  Returns the chunk's A, xi, eta and zeta
    columns and the uniform block and row that the next chunk starts from."""
    L = ks.size
    groups = _U_CHUNK // rr
    top = n - t - 1  # m = n - t at the chunk's first step; m = top - i at its step i
    one = np.flatnonzero(ks == 1)
    multi = np.flatnonzero(ks > 1)
    # 1. descriptors: the stream is read in step order, the multi-edge companions
    # between the uniform-block refills of the one-edge steps
    refills = one[groups - j::groups].tolist()  # the one-edge steps that refill the block
    blocks = [u_rows[j:]]
    stats = []
    lo = 0
    for hi in [*np.searchsorted(multi, refills).tolist(), multi.size]:
        if hi > lo:
            stats.append(_segment_sets(rng, top - multi[lo:hi], ks[multi[lo:hi]], rr))
        if len(blocks) <= len(refills):
            blocks.append(_uniform_groups(rng, rr, n - t - refills[len(blocks) - 1]))
        lo = hi
    if refills:
        rows = np.concatenate(blocks)[:one.size]
        u_rows, j = blocks[-1], j + one.size - len(refills) * groups
    else:
        rows, j = u_rows[j:j + one.size], j + one.size
    # s: the union size, which is eta when xi = 0; xi > 0 exactly when A'_t > theta
    s = ks * rr
    zeta = np.zeros(L, dtype=np.int64)
    theta = np.full(L, np.inf)
    m1 = (top - one).astype(np.float64)
    th1 = rows[:, 0] * m1  # min over i of the kernel's x_i * (m - i)
    for i in range(1, rr):
        np.minimum(th1, rows[:, i] * (m1 - i), out=th1)
    theta[one] = th1
    if stats:
        size, least, zeta_m, union = stats[0] if len(stats) == 1 else map(np.concatenate, zip(*stats))
        s[multi], theta[multi], zeta[multi] = size, least, zeta_m
        uoff = np.zeros(multi.size + 1, dtype=np.int64)
        np.cumsum(size, out=uoff[1:])

    # 2. walk: the path with xi = 0 bounds A from above, so only the steps whose
    # theta lies below its A' can have xi > 0; between two of them A is exact
    Q = np.zeros(L + 1, dtype=np.int64)
    np.cumsum(s - 1, out=Q[1:])
    A = _lindley(Q, A0)
    bound = np.empty(L, dtype=np.int64)
    bound[0] = A0 - 1
    np.subtract(A[:-1], 1, out=bound[1:])
    cand = np.flatnonzero(theta < bound)
    xi = np.zeros(L, dtype=np.int64)
    if cand.size == 0:
        return A, xi, s, zeta, u_rows, j
    # A before each candidate from the state after the previous one: A = Q - min(Q - A
    # there, Q - 1 since).  The minimum also takes Q at the candidate, which can only
    # turn A = 0 into A = 1, and A' = 0 either way.
    starts = np.zeros(cand.size, dtype=np.int64)
    starts[1:] = cand[:-1] + 1
    gap_min = np.minimum.reduceat(Q[:cand[-1] + 1], starts)
    slot = np.where(ks[cand] == 1, np.searchsorted(one, cand), np.searchsorted(multi, cand))
    floor = -A0
    for c, k, sc, q, q1, th, g, i in zip(cand.tolist(), ks[cand].tolist(), s[cand].tolist(),
                                         Q[cand].tolist(), Q[cand + 1].tolist(),
                                         theta[cand].tolist(), gap_min.tolist(), slot.tolist()):
        a = q - min(floor, g - 1)
        ap = a - 1 if a else 0
        x = 0
        if ap > th:
            if k == 1:
                x = _step_counts(None, top - c, ap, rr, 1, rows[i].tolist())[1]
            else:
                x = int(np.searchsorted(union[uoff[i]:uoff[i + 1]], ap))
            xi[c] = x
        floor = q1 - (ap + sc - x)

    # 3. outputs
    eta = s - xi
    np.cumsum(eta - 1, out=Q[1:])
    return _lindley(Q, A0), xi, eta, zeta, u_rows, j


def _edge_count_table(n: int, rr: int, p: float, t: int) -> BinomialTable:
    """The binomial table of the edge counts of steps t+1 .. min(n, t +
    _E_CHUNK), Binomial(binom(n - s, rr), p) at step s, with read-only arrays,
    as the runs of a cell share it."""
    hi = min(n, t + _E_CHUNK)
    table = binomial_table(comb_float(np.arange(n - t - 1, n - hi - 1, -1, dtype=np.float64), rr), p)
    for a in (table.trials, table.cum, table.big):
        a.flags.writeable = False
    return table


def _run_implicit(config: ExplorationConfig, record: str, rng, tables: dict | None) -> RunResult:
    n, r, p = config.n, config.r, config.p
    rr = r - 1
    # the first close after stop_after is T_1, which starts the giant stop rule's margin
    stop_after = int(config.census_t0) if config.stop_rule == "giant" else n
    margin = config.margin

    full = record == "full"
    cols: list = []  # per chunk at level 'full': the recorded columns A, xi, edge counts, eta, zeta
    close_t: list = []  # per chunk, the component table: close times and cumulative edge counts
    close_e: list = []

    groups = _U_CHUNK // rr
    u_rows = _uniform_groups(rng, rr, n)  # presampled uniforms for one-edge steps
    j = 0
    A = 0
    total_edges = 0
    T1 = None
    t_stop = -1

    t = 0
    while t < n:
        # edge counts of steps t+1 .. hi, drawn once the previous chunk is used up
        hi = min(n, t + _E_CHUNK)
        if tables is None:
            table = _edge_count_table(n, rr, p, t)
        elif (table := tables.get(t)) is None:
            table = tables[t] = _edge_count_table(n, rr, p, t)
        ks = sample_binomial_table(rng, table)
        if hi - t >= _SHORT_CHUNK:
            cA, cxi, ceta, czeta, u_rows, j = _block_chunk(rng, ks, t, n, rr, A, u_rows, j)
            z = np.flatnonzero(cA == 0)
            ct = z + (t + 1)
            if T1 is None and ct.size and ct[-1] > stop_after:
                T1 = int(ct[ct.searchsorted(stop_after, "right")])
                t_stop = T1 + margin
            end = t_stop if t < t_stop <= hi else hi
            cut = ct.searchsorted(end, "right")
            edges = np.cumsum(ks)
            close_t.append(ct[:cut])
            close_e.append(edges[z[:cut]] + total_edges)
            L = end - t
            total_edges += int(edges[L - 1])
            A = int(cA[L - 1])
            if full:
                cols.append((cA[:L], cxi[:L], ks[:L], ceta[:L], czeta[:L]))
            t = end
            if t == t_stop:
                break
            continue

        # a short chunk: step by step, as the block walk's fixed cost would not pay; rows[i] is
        # row lo + i of the uniform block, as far as the chunk's steps can read
        lo, rows = j, u_rows[j:j + hi - t].tolist()
        ct, ce = [], []
        rec = ([], [], [], [], [])  # at level 'full', per step: A, xi, edge counts, eta, zeta
        for k in ks.tolist():
            t += 1
            ap = A - 1 if A else 0
            if k == 0:
                A = ap
                eta = xi = zeta = 0
            else:
                if k == 1:
                    if j == groups:
                        u_rows = _uniform_groups(rng, rr, n - t + 1)
                        lo, rows, j = 0, u_rows.tolist(), 0
                    # each companion uniform x has x * (n - t - rr + 1) >= ap, so the kernel
                    # finds no active companion: its xi = 0 outcome
                    if min(rows[j - lo]) * (n - t - rr + 1) >= ap:
                        eta, xi, zeta = rr, 0, 0
                    else:
                        eta, xi, zeta = _step_counts(None, n - t, ap, rr, 1, rows[j - lo])
                    j += 1
                else:
                    eta, xi, zeta = _step_counts(rng.random, n - t, ap, rr, k, None)
                A = ap + eta
                total_edges += k
            if full:
                for col, x in zip(rec, (A, xi, k, eta, zeta)):
                    col.append(x)
            if A == 0:
                ct.append(t)
                ce.append(total_edges)
                if T1 is None and t > stop_after:
                    T1 = t
                    t_stop = t + margin
            if t == t_stop:
                break
        close_t.append(ct)
        close_e.append(ce)
        if full:
            cols.append(rec)
        if t == t_stop:
            break

    recorded = [_joined(col) for col in zip(*cols)] if cols else [None] * 5
    return _result(config, record, t, _joined(close_t), _joined(close_e), total_edges, A, *recorded)


def _joined(parts: list):
    """The one part of a column kept per chunk (a list or an int64 array) as
    it is, else the int64 concatenation of the parts."""
    return parts[0] if len(parts) == 1 else np.concatenate([np.asarray(x, dtype=np.int64) for x in parts])


def _result(config, record, n_steps, close_t, close_e, total_edges, A_end,
            A, xi, E, eta, zeta) -> RunResult:
    """RunResult of either engine from its final counts, its component table
    (the close times and the cumulative edge counts at each close, as lists
    or int64 arrays) and its recorded per-step columns (None or empty below
    the record level that keeps them)."""
    rr = config.r - 1
    C_end = len(close_t) + (A_end > 0)  # components started: the closed ones and an open one
    # every vertex but the C_end roots was discovered once, as part of some eta_t
    res = RunResult(config, n_steps, n_steps >= config.n, len(close_t), total_edges,
                    rr * total_edges - (n_steps + A_end - C_end),
                    *_census(close_t, close_e, rr, -1 if config.census_t0 is None else config.census_t0,
                             n_steps))
    if record == "full":
        res.A = np.asarray(A, dtype=np.int64)
        res.xi = np.asarray(xi, dtype=np.int64)
        res.edge_counts = np.asarray(E, dtype=np.int64)
        res.eta = np.asarray(eta, dtype=np.int64)
        res.zeta = np.asarray(zeta, dtype=np.int64)
        res.nullity_inc = rr * res.edge_counts - res.eta
        res.new_component = np.concatenate(([True], res.A[:-1] == 0))  # step t starts one iff A_{t-1} = 0
        res.C = np.cumsum(res.new_component).astype(np.int64)
        res.X = np.cumsum(res.eta - 1).astype(np.int64)
        res.close_t = np.asarray(close_t, dtype=np.int64)
        res.close_e = np.asarray(close_e, dtype=np.int64)
    return res


def _component(close_t, close_e, rr: int, i: int) -> ComponentRecord:
    """Row i (0-based) of a component table kept as the close times and the
    cumulative edge counts at each close, in Python ints."""
    t_start = int(close_t[i - 1]) if i else 0
    v = int(close_t[i]) - t_start
    e = int(close_e[i]) - (int(close_e[i - 1]) if i else 0)
    return ComponentRecord(i + 1, t_start, t_start + v, v, e, 1 + rr * e - v)  # n(C) = 1 + (r-1) e(C) - |C|


_CENSUS_FIELDS = ("L1", "L2", "M1", "N1", "l1_tie", "Z", "T0", "T1", "c_t0p1", "giant_vertices",
                  "giant_nullity")


def _census(close_t, close_e, rr: int, t0: int, n_steps: int) -> tuple:
    """The values of RunResult's census fields, _CENSUS_FIELDS, in that order, from a
    component table given as the close times and the cumulative edge counts
    at each close (lists or int64 arrays), anchored at cutoff t0 (none when
    t0 < 0): largest and second-largest component orders, the largest
    component's edge count and nullity (ties broken toward the
    earliest-explored component), the window quantities Z, T_0, T_1 with the
    order and nullity of the component closing at T_1, and C_{t0+1}.  Tables
    of at most _SHORT_TABLE components are reduced in Python ints, as numpy's
    per-call cost would not pay."""
    if len(close_t) > _SHORT_TABLE:
        close_t = np.asarray(close_t, dtype=np.int64)
        sizes = close_t.copy()
        np.subtract(close_t[1:], close_t[:-1], out=sizes[1:])
        i = int(sizes.argmax())  # the first largest
        L1 = sizes.item(i)
        sizes[i] = 0
        L2 = sizes.item(sizes.argmax())  # L1 again on a tie
    else:
        if isinstance(close_t, np.ndarray):
            close_t, close_e = close_t.tolist(), close_e.tolist()
        sizes = [b - a for a, b in zip([0, *close_t], close_t)]
        L1 = max(sizes)
        i = sizes.index(L1)
        sizes[i] = 0
        L2 = max(sizes)
    M1 = int(close_e[i]) - (int(close_e[i - 1]) if i else 0)
    Z = bisect_right(close_t, t0) if t0 >= 0 else 0  # components closed by t0
    T0 = int(close_t[Z - 1]) if Z else 0
    T1 = giant_v = giant_null = None
    if 0 <= t0 < close_t[-1]:  # the giant window's component closes at T_1
        T1 = int(close_t[Z])
        giant_v = T1 - T0
        giant_null = 1 + rr * (int(close_e[Z]) - (int(close_e[Z - 1]) if Z else 0)) - giant_v
    # n(C) = 1 + (r-1) e(C) - |C|; C_{t0+1} counts the Z closed components and the current one
    return (L1, L2, M1, 1 + rr * M1 - L1, L2 == L1, Z, T0, T1, Z + 1 if 0 <= t0 < n_steps else None,
            giant_v, giant_null)


def materialize(n: int, r: int, p: float, rng: np.random.Generator) -> list:
    """Materialize H^r(n, p): the edge count is an exact Binomial draw over
    all binom(n, r) possible edges, and the edges are a uniform subset of
    that size, returned as sorted r-tuples ordered by colex rank."""
    total = comb0(n, r)
    if total > EXPLICIT_EDGE_LIMIT:
        raise ValueError(f"binom(n, r) = {total} exceeds the explicit-mode limit {EXPLICIT_EDGE_LIMIT}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    m = sample_binomial(rng, total, p)
    chosen: set = set()
    for j in range(total - m, total):  # Floyd's uniform subset sampling
        pick = int(rng.integers(0, j + 1))
        chosen.add(pick if pick not in chosen else j)
    return [colex_unrank(rank, r) for rank in sorted(chosen)]


def _run_explicit(config: ExplorationConfig, record: str, rng) -> RunResult:
    """Explicit engine: real vertex identities, a status bitmap, and a
    min-heap over active vertices, with the implicit engine's bookkeeping."""
    n, r, p = config.n, config.r, config.p
    edges = materialize(n, r, p, rng)
    incidence = [[] for _ in range(n)]
    for idx, e in enumerate(edges):
        for v in e:
            incidence[v].append(idx)
    alive = bytearray(b"\x01") * len(edges)
    status = bytearray(n)  # 0 unseen, 1 active, 2 explored
    heap: list = []
    cursor = 0

    full = record == "full"
    rec = ([], [], [], [], [])  # at level 'full', per step: A, xi, edge counts, eta, zeta
    close_t: list = []
    close_e: list = []
    A = 0
    total_edges = 0
    t = 0
    stop_after = int(config.census_t0) if config.stop_rule == "giant" else n
    T1 = None
    while t < n:
        t += 1
        if A > 0:
            v = heapq.heappop(heap)  # the heap holds exactly the A active vertices
            ap = A - 1
        else:
            while status[cursor] != 0:
                cursor += 1
            v = cursor
            ap = 0
        status[v] = 2
        revealed = []
        eta = 0  # the unseen vertices of the revealed edges turn active
        for idx in incidence[v]:
            if alive[idx]:
                alive[idx] = 0
                revealed.append(edges[idx])
                for u in edges[idx]:
                    if status[u] == 0:
                        status[u] = 1
                        heapq.heappush(heap, u)
                        eta += 1
        k = len(revealed)
        A = ap + eta
        total_edges += k
        if full:
            xi = len({u for e in revealed for u in e if status[u] == 1}) - eta  # active before this step
            zeta = 0
            for i in range(len(revealed) - 1):
                si = set(revealed[i])
                si.discard(v)
                for j in range(i + 1, len(revealed)):
                    zeta += len(si.intersection(revealed[j]))
            for col, x in zip(rec, (A, xi, k, eta, zeta)):
                col.append(x)
        if A == 0:
            close_t.append(t)
            close_e.append(total_edges)
            if T1 is None and t > stop_after:
                T1 = t
        if T1 is not None and t - T1 >= config.margin:
            break

    return _result(config, record, t, close_t, close_e, total_edges, A, *rec)


def explore(config: ExplorationConfig) -> RunResult:
    """Run to completion (or the stop rule) with the full per-step record."""
    return run_exploration(config, record="full")


def census(run: RunResult, t0: int) -> RunResult:
    """The run with its census fields re-anchored at cutoff t0: largest and
    second-largest component orders, the largest component's edge count and
    nullity (ties broken toward the earliest-explored component), and the
    window quantities Z, T_0, T_1 with the nullity collected between T_0
    and T_1.  Needs a run recorded at level 'full'."""
    if t0 < 0:
        raise ValueError("t0 must be nonnegative")
    if run.close_t is None:
        raise ValueError("census needs a run recorded at level 'full'")
    return replace(run, config=replace(run.config, census_t0=t0),
                   **dict(zip(_CENSUS_FIELDS, _census(run.close_t, run.close_e, run.config.r - 1, t0,
                                                      run.n_steps))))
