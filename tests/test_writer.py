"""The CSV block writer of `hxplore run` against Python's own formatting:
`cli._float_fields` must write exactly the bytes of '%.17g', `cli._int_fields`
those of '%d', and the three tables of `run --doob` those of a per-row
'%d' / '%.17g' template."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from hxplore import cli
from hxplore.doob import approx_gap, decompose
from hxplore.explore import explore
from hxplore.mc import CellSpec, ExperimentPlan, fmt17, make_context
from hxplore.theory import drift_sequences


def _fields(table):
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in table]


def _check_floats(x):
    x = np.asarray(x, np.float64)
    got = _fields(cli._float_fields(x))
    want = ["%.17g" % v for v in x.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and bad == []


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_floats_match_percent_g_hypothesis(xs):
    _check_floats(xs)


def test_floats_match_percent_g_on_random_bit_patterns():
    bits = np.random.default_rng(20261019).integers(0, 2**64, 200_000, np.uint64, endpoint=False)
    _check_floats(bits.view(np.float64))


def test_floats_match_percent_g_on_scaled_normals():
    rng = np.random.default_rng(7)
    _check_floats(rng.standard_normal(100_000) * 10.0 ** rng.uniform(-12, 18, 100_000))


def test_floats_match_percent_g_at_powers_of_ten():
    p10 = np.array([float(f"1e{j}") for j in range(-20, 25)])
    _check_floats(np.concatenate([p10, np.nextafter(p10, 0), np.nextafter(p10, np.inf), -p10]))


def test_floats_match_percent_g_on_integers_and_zeros():
    ints = np.concatenate([np.arange(-3000, 3000), 2**53 + np.arange(-3, 3), 10 ** np.arange(17)])
    rng = np.random.default_rng(3)
    _check_floats(np.concatenate([ints.astype(np.float64), [0.0, -0.0],
                                  rng.integers(-2**53, 2**53, 50_000).astype(np.float64)]))


def test_floats_match_percent_g_at_rounding_ties():
    # (N + 1/2) 10**(X - 16) for a 17-digit N is c 2**(X - 17) with the odd c =
    # (2N + 1) / 5**(16 - X): exact for c < 2**53, and '%.17g' rounds it half to even;
    # X runs from -8, below which 5**(16 - X) exceeds every 2N + 1
    rng = np.random.default_rng(11)
    ties = []
    for x in range(-8, 15):
        five = 5 ** (16 - x)
        lo, hi = -(-(2 * 10**16 + 1) // five), min(2 * 10**17 // five, 2**53)
        for c in rng.integers(lo, hi, 200).tolist():
            c |= 1
            ties += [math.ldexp(c, x - 17), -math.ldexp(c, x - 17)]
    ties += [2.0**-25, 3 * 2.0**-25, 2.0**-26]
    _check_floats(ties)


def test_fast_range_edges():
    # q = 27 is the exponent k = -11, whose smallest value is the double after 1e-11 (just
    # below 10**-11) and takes the largest shift, 62 bits; q = 0 (k = 16) always shifts by
    # less than 1 bit, and a 1-bit shift ends at 2**51: every value past an edge takes the
    # '%' path
    inside = [np.nextafter(1e-11, 1), np.nextafter(2.0**51, 0), 1e15, 2.0**50]
    outside = [1e-11, 2.0**51, 1e16, 9.999999999999998e16, 5e-324]
    x = np.array(inside + outside)
    _, _, ok = cli._significands(x)
    assert ok.tolist() == [True] * len(inside) + [False] * len(outside)
    _check_floats(np.concatenate([x, -x, np.nextafter(x, np.inf), np.nextafter(x, 0)]))


def test_floats_match_percent_g_in_every_layout():
    # for each exponent k of the fast range and each count m = 1 .. 17 of significant
    # digits, the first of a fixed list of decimals d.ddd..e k whose double '%.17g' writes
    # with m digits: the 17-digit case, trailing zeros inside the digits, and m = 1, where
    # the point is dropped; no double is written with one digit at k = -7, -6 and -5
    values, missing = [], []
    for k in range(cli._MIN_K, 16):
        for m in range(1, 18):
            ends = [str(d) for d in range(1, 10)] if m == 1 else [
                f"{t:02d}" for t in range(11, 100) if t % 10]
            for end in ends:
                digits = "141421356237309"[: m - len(end)] + end
                v = float(f"{digits[0]}.{digits[1:]}e{k}")
                if len(("%.17g" % v).partition("e")[0].replace(".", "").strip("0")) == m:
                    values.append(v)
                    break
            else:
                missing.append((k, m))
    assert missing == [(-7, 1), (-6, 1), (-5, 1)]
    x = np.array(values)
    _, k, ok = cli._significands(x)
    assert ok.all() and sorted(set(k.tolist())) == list(range(cli._MIN_K, 16))
    _check_floats(np.concatenate([x, -x]))


def test_ints_match_percent_d():
    rng = np.random.default_rng(5)
    edges = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 1, -9999, 9999,
                      10_000, -10_000, 10**18, -(10**18)], np.int64)
    for v in (edges, rng.integers(-2**63, 2**63 - 1, 20_000, endpoint=True),
              rng.integers(0, 10 ** rng.integers(0, 19, 20_000), endpoint=True),
              np.array([True, False, True]), np.arange(7)):
        assert _fields(cli._int_fields(v)) == ["%d" % i for i in np.asarray(v).tolist()]


def _reference_tables(spec, seed):
    """trace.csv, components.csv and doob.csv of `run --doob`, one '%d' / '%.17g' row at a
    time."""
    ctx = make_context(spec, ExperimentPlan(cells=(spec,), replicates=1, master_seed=seed))
    run = explore(ctx.config(seed))
    dt = decompose(run, drift_sequences(ctx.n, ctx.r, ctx.p, ctx.t1), t1=ctx.t1)
    assert run.n_steps % cli._BLOCK and ctx.t1 % cli._BLOCK  # Shat ends inside a block

    def table(header, rows, template):
        return header + "\n" + "".join(template % row + "\n" for row in rows)

    steps = zip(range(1, run.n_steps + 1), *(getattr(run, c).tolist() for c in cli.TRACE_COLUMNS))
    trace = table(cli.TRACE_HEADER, steps, ",".join(["%d"] * 10))
    components = table(cli.COMPONENTS_HEADER, run.components, ",".join(["%d"] * 6))
    cols = [c.tolist() for c in (dt.D, dt.Delta, dt.Dstar, dt.DeltaStar, dt.S, dt.Xtilde)]
    rows = list(zip(range(1, dt.n_steps + 1), *cols))
    doob = (table(cli.DOOB_HEADER, [(*row, s) for row, s in zip(rows, dt.Shat.tolist())],
                  "%d" + ",%.17g" * 7)
            + "".join(("%d" + ",%.17g" * 6 + ",\n") % row for row in rows[dt.t1 :])
            + f"# V1={fmt17(dt.V1)} V2={fmt17(dt.V2)} V12={fmt17(dt.V12)} "
            f"lindeberg1={fmt17(dt.lindeberg1)} lindeberg2={fmt17(dt.lindeberg2)} "
            f"c1={fmt17(approx_gap(run, dt))}\n")
    return {"trace.csv": trace, "components.csv": components, "doob.csv": doob}


def test_run_tables_match_a_per_row_template(tmp_path):
    spec = CellSpec(n=20_000, r=3, lam=1.15, stop="full", margin=0)
    want = _reference_tables(spec, seed=4)
    assert cli.main(["run", "--n", "20000", "--r", "3", "--lambda", "1.15", "--seed", "4",
                     "--doob", "--out", str(tmp_path / "run")]) == 0
    for suffix, text in want.items():
        assert (tmp_path / f"run.{suffix}").read_text() == text, suffix
