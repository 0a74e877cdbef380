import math
from itertools import combinations

import numpy as np
import pytest

from hxplore.oracle import MAX_EDGES, MAX_N, enumerate_all, enumerate_step
from hxplore.util import colex_rank


def _subset_walk(n: int, r: int) -> dict:
    """Reference strata: visit all 2^binom(n, r) edge subsets (bitmask over the
    colex-ranked r-sets) and peel the components of each one."""
    masks = [sum(1 << v for v in e) for e in sorted(combinations(range(n), r), key=colex_rank)]
    strata: dict = {}
    full = (1 << n) - 1
    for word in range(1 << len(masks)):
        vertex_adj = [0] * n
        bits = word
        ecnt = 0
        while bits:
            b = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            ecnt += 1
            em = masks[b]
            mm = em
            while mm:
                v = (mm & -mm).bit_length() - 1
                mm &= mm - 1
                vertex_adj[v] |= em
        remaining = full
        best = second = 0
        bestmask = 0
        while remaining:
            comp = remaining & -remaining
            while True:
                grow = comp
                mm = comp
                while mm:
                    v = (mm & -mm).bit_length() - 1
                    mm &= mm - 1
                    grow |= vertex_adj[v]
                if grow == comp:
                    break
                comp = grow
            sz = comp.bit_count()
            if sz > best:
                second = best
                best = sz
                bestmask = comp
            elif sz > second:
                second = sz
            remaining &= ~comp
        ein = 0
        bits = word
        while bits:
            b = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            if masks[b] & ~bestmask == 0:
                ein += 1
        key = (ecnt, best, 1 + (r - 1) * ein - best, second)
        strata[key] = strata.get(key, 0) + 1
    return strata


def test_hand_checked_triangle():
    # n=3 graphs at p = 1/2: all 8 graphs equally likely
    d = enumerate_all(3, 2, 0.5)
    m = d.l1_marginal()
    assert abs(m[3] - 0.5) < 1e-12
    assert abs(m[2] - 0.375) < 1e-12
    assert abs(m[1] - 0.125) < 1e-12
    assert abs(d.probability.sum() - 1.0) < 1e-10


def test_complete_hypergraph_atom():
    n, r = 5, 3
    d = enumerate_all(n, r, 1.0)
    assert len(d.support) == 1
    l1, n1, l2 = d.support[0]
    assert l1 == n and l2 == 0
    assert n1 == 1 + (r - 1) * math.comb(n, r) - n


def test_empty_hypergraph_atom():
    d = enumerate_all(4, 2, 0.0)
    assert d.support == [(1, 0, 1)]
    assert d.probability[0] == 1.0


def test_total_probability_and_nullity_relation():
    for n, r, p in ((5, 3, 0.15), (6, 2, 0.2), (6, 4, 0.35)):
        d = enumerate_all(n, r, p)
        assert abs(d.probability.sum() - 1.0) < 1e-10
        for (l1, n1, l2) in d.support:
            m1 = (l1 + n1 - 1) / (r - 1)
            assert m1 == int(m1) and m1 >= 0
            assert n1 >= 0 and 1 <= l2 <= l1 <= n or (l2 == 0 and l1 == n)


def test_strata_edge_counts_are_binomial():
    # summed over (L1, N1, L2), the strata at edge count e count every e-subset of the
    # binom(n, r) possible edges: every (n, r) under the size guard up to n = 28, up to r = n + 1
    cases = [(n, r) for n in range(1, 29) for r in range(2, n + 2) if math.comb(n, r) <= MAX_EDGES]
    assert (8, 2) in cases and (6, 3) in cases and (28, 27) in cases
    for n, r in cases:
        ne = math.comb(n, r)
        by_edges = [0] * (ne + 1)
        for (e, *_), cnt in enumerate_all(n, r, 0.3).strata.items():
            by_edges[e] += cnt
        assert by_edges == [math.comb(ne, e) for e in range(ne + 1)], (n, r)


def test_counted_strata_match_subset_walk():
    # every (n, r) with binom(n, r) <= 16, n > 8 among them, and n < r
    cases = [(n, r) for n in range(1, 17) for r in range(2, n + 2) if math.comb(n, r) <= 16]
    assert any(n > 8 for n, _ in cases) and any(n < r for n, r in cases)
    for n, r in cases:
        strata = enumerate_all(n, r, 0.3).strata
        ref = _subset_walk(n, r)
        assert strata == ref, (n, r)
        assert list(strata) == sorted(ref), (n, r)  # the insertion order fixes the float sums


def test_parallel_enumeration_identical():
    a = enumerate_all(6, 2, 0.3, workers=1)
    b = enumerate_all(6, 2, 0.3, workers=2)
    assert a.support == b.support
    assert np.array_equal(a.probability, b.probability)


def test_size_guard():
    with pytest.raises(ValueError):
        enumerate_all(9, 2, 0.1)  # 36 possible edges
    # one possible edge, or none, but n past the vertex limit
    for n, r in ((MAX_N + 1, MAX_N + 1), (MAX_N + 1, MAX_N + 2)):
        with pytest.raises(ValueError, match="enumeration limit"):
            enumerate_all(n, r, 0.1)
        with pytest.raises(ValueError, match="enumeration limit"):
            enumerate_step(n, r, 0.1, explored=[], active=[])
    assert enumerate_all(MAX_N, MAX_N, 0.1).support == [(1, 0, 1), (MAX_N, 0, 0)]


def test_tie_break_smallest_vertex():
    # two disjoint edges {0,1} and {2,3} on 4 vertices: L1 = 2 tie; the
    # component containing vertex 0 wins, so N1 belongs to a tree: N1 = 0
    d = enumerate_all(4, 2, 0.5)
    for (l1, n1, l2), q in zip(d.support, d.probability):
        if l1 == 2 and l2 == 2:
            assert n1 in (0, 1)  # {0,1} edge only, or multi-edge impossible at r=2


def test_step_law_empty_family():
    law = enumerate_step(3, 3, 0.4, explored=[0], active=[])
    # one unexplored other: no testable 2-sets
    assert law.support == [(0, 0, 0, 0)]
    assert law.probability.tolist() == [1.0]


def test_step_law_single_bernoulli():
    # n = r: exactly one testable set at t = 1
    law = enumerate_step(3, 3, 0.2, explored=[], active=[])
    d = dict(zip(law.support, law.probability))
    assert abs(d[(0, 0, 0, 0)] - 0.8) < 1e-12
    assert abs(d[(1, 2, 0, 0)] - 0.2) < 1e-12


def test_step_law_total_probability():
    law = enumerate_step(8, 3, 0.1, explored=[], active=[])
    assert abs(law.probability.sum() - 1.0) < 1e-10
    # eta <= (r-1) E on the whole support
    for (e, eta, xi, zeta) in law.support:
        assert eta + xi <= 2 * e
        assert xi <= zeta + (2 * e - eta)  # xi bounded by hit slots


def test_step_law_validates_prefix():
    with pytest.raises(ValueError):
        enumerate_step(6, 3, 0.1, explored=[0, 0], active=[])
    with pytest.raises(ValueError):
        enumerate_step(6, 3, 0.1, explored=[0], active=[0])
