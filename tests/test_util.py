import importlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hxplore.theory import MAX_R
from hxplore.util import (
    colex_rank, colex_unrank, comb0, comb_float, derive_seed, seeded_generators, splitmix64,
)

util_module = importlib.import_module("hxplore.util")


def test_comb0_zero_conventions():
    assert comb0(5, -1) == 0
    assert comb0(-1, 0) == 0
    assert comb0(3, 5) == 0
    assert comb0(5, 0) == 1
    assert comb0(10, 3) == math.comb(10, 3)


def test_comb_float_matches_exact():
    m = np.arange(0, 50, dtype=np.float64)
    for k in range(0, 9):
        got = comb_float(m, k)
        want = np.array([float(comb0(int(x), k)) for x in m])
        assert np.allclose(got, want, rtol=1e-12)


def test_colex_rank_order_is_dense():
    from itertools import combinations

    sets = sorted(combinations(range(7), 3), key=colex_rank)
    assert [colex_rank(s) for s in sets] == list(range(len(sets)))


@given(st.integers(min_value=0, max_value=200000), st.integers(min_value=1, max_value=6))
def test_colex_roundtrip(rank, r):
    assert colex_rank(colex_unrank(rank, r)) == rank


def test_colex_unrank_inverts_rank_up_to_max_r():
    from itertools import combinations

    n = 12
    for r in range(2, MAX_R + 1):
        sets = sorted(combinations(range(n), r), key=colex_rank)
        assert [colex_unrank(k, r) for k in range(len(sets))] == sets, r
        assert all(colex_rank(colex_unrank(k, r)) == k for k in range(math.comb(n, r))), r


def test_derive_seed_is_deterministic_and_spread():
    a = derive_seed(42, 0, 0)
    assert a == derive_seed(42, 0, 0)
    seeds = {derive_seed(42, c, k) for c in range(4) for k in range(256)}
    assert len(seeds) == 4 * 256
    # one-bit change in the master seed flips roughly half the output bits
    x, y = splitmix64(12345), splitmix64(12345 ^ 1)
    assert 16 <= bin(x ^ y).count("1") <= 48


def test_derive_seed_maps_an_index_array_elementwise():
    reps = np.arange(0, 300, 7, dtype=np.uint64)
    seeds = derive_seed(2**64 - 1, 5, reps)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive_seed(2**64 - 1, 5, k) for k in reps.tolist()]


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("as_array", [False, True])
def test_seeded_generators_match_default_rng(monkeypatch, block, as_array):
    # the first generator is default_rng itself; every later one has its state set,
    # in blocks that a small block size makes many of
    if block is not None:
        monkeypatch.setattr(util_module, "_SEED_BLOCK", block)
    draw = np.random.default_rng(2026)
    seeds = [12345, *EDGE_SEEDS,
             *draw.integers(0, 2**64 - 1, 200, dtype=np.uint64, endpoint=True).tolist(), *EDGE_SEEDS]
    batch = np.array(seeds, dtype=np.uint64) if as_array else seeds
    for seed, rng in zip(seeds, seeded_generators(batch), strict=True):
        ref = np.random.default_rng(seed)
        assert rng.bit_generator.state == ref.bit_generator.state, seed
        assert np.array_equal(rng.random(1000), ref.random(1000)), seed
        assert np.array_equal(rng.integers(0, 1000, 50), ref.integers(0, 1000, 50)), seed
        # scalar draws below 2^32 keep half of a 64-bit output for the next one
        assert [int(rng.integers(0, k)) for k in range(1, 40)] == [int(ref.integers(0, k)) for k in range(1, 40)]
        assert rng.bit_generator.state == ref.bit_generator.state, seed
    assert list(seeded_generators([])) == []
    # a lone seed may have any size, as default_rng's may
    lone = next(seeded_generators([2**70 + 3]))
    assert lone.bit_generator.state == np.random.default_rng(2**70 + 3).bit_generator.state
