"""The layer pass of the traced run: a fixed, seed-determined replay of the
three workloads, decomposed into direct calls to each layer's public
functions, each call wrapped in a span.

Every call here is made by the benchmark, not by the program, so a layer's
time is the wall time of the calls the benchmark makes into it.  The exact
counts are taken at the same call boundaries and depend only on the seed.
Machine speed drifts within seconds on a shared host, so every timing that
is cheap to repeat is taken over ROUNDS rounds, comparisons alternate their
order from round to round, and each metric is the median over rounds.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

from hxplore import cli, doob, mc, oracle, randvar, stats, theory, util
from hxplore.explore import ExplorationConfig, census, explore, run_exploration

import workloads as wl

ROUNDS = 3
CLT_REPLICATES = 8
TINY_REPLICATES = 500
E_CHUNK = 4096  # the implicit engine draws edge counts in chunks of this many steps
CLT_CHUNKS = 13  # a CLT-cell replicate runs about 51k steps
SCALAR_DRAWS = 5000  # per tiny case and round
CLT_TARGET_CALLS = 100
CHI_SQUARE_CALLS = 50
KS_SAMPLES, KS_CALLS = 4000, 2

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("randvar.binom_array_ns_per_draw", "ns"),
    ("randvar.binom_scalar_us", "us"),
    ("explore.none_us_per_step", "us"),
    ("explore.tiny_implicit_us_per_run", "us"),
    ("explore.tiny_explicit_us_per_run", "us"),
    ("explore.full_us_per_step", "us"),
    ("explore.census_ms", "ms"),
    ("theory.clt_targets_us", "us"),
    ("theory.drift_sequences_ms", "ms"),
    ("doob.decompose_ms", "ms"),
    ("doob.approx_gap_ms", "ms"),
    ("mc.overhead_frac", "fraction"),
    ("mc.tiny_overhead_frac", "fraction"),
    ("mc.parallel_speedup", "x"),
    ("mc.tiny_parallel_speedup", "x"),
    ("oracle.enumerate_all_s", "s"),
    ("oracle.subsets_per_s", "1/s"),
    ("stats.chi_square_ms", "ms"),
    ("stats.ks_ms", "ms"),
    ("cli.writer_s", "s"),
    ("explore.steps", "count"),
    ("explore.components_closed", "count"),
    ("explore.multi_edge_steps", "count"),
    ("randvar.draws", "count"),
    ("oracle.subsets", "count"),
    ("mc.tasks", "count"),
    ("cli.bytes_written", "B"),
    ("self_s.randvar", "s"),
    ("self_s.explore", "s"),
    ("self_s.theory", "s"),
    ("self_s.doob", "s"),
    ("self_s.mc", "s"),
    ("self_s.oracle", "s"),
    ("self_s.stats", "s"),
    ("self_s.cli", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "fraction"),
)

COUNTS = tuple(name for name, unit in PER_LAYER if unit in ("count", "B"))


def _call(tr, name, fn, *args, **kw):
    """(fn(*args, **kw), wall seconds), inside a span called `name`."""
    with tr.span(name):
        t0 = time.perf_counter()
        out = fn(*args, **kw)
        return out, time.perf_counter() - t0


def _seconds_per_call(tr, name, calls, fn, *args) -> float:
    """Median over ROUNDS spans of the wall seconds per call, each span
    making `calls` back-to-back calls of fn(*args)."""
    def repeat():
        for _ in range(calls):
            fn(*args)
    return statistics.median(_call(tr, name, repeat)[1] / calls for _ in range(ROUNDS))


def _direct_runs(tr, spec, plan, cell_index: int):
    """Run every replicate of the cell with run_exploration, on the seeds and
    configuration run_cell gives it.  Returns (seconds, results)."""
    ctx = mc.make_context(spec, plan)
    total, runs = 0.0, []
    for k in range(plan.replicates):
        cfg = ExplorationConfig(
            n=ctx.n, r=ctx.r, p=ctx.p, seed=util.derive_seed(plan.master_seed, cell_index, k),
            mode=ctx.mode, stop_rule=ctx.stop, margin=ctx.margin if ctx.stop == "giant" else 0,
            census_t0=ctx.t0,
        )
        res, dt = _call(tr, "explore.run_exploration", run_exploration, cfg)
        total += dt
        runs.append(res)
        tr.count("explore.steps", res.n_steps)
        tr.count("explore.components_closed", res.components_closed)
    return total, runs


def _time_cell(tr, spec, plan, cell_index: int, reverse: bool, checks) -> dict:
    """Wall seconds of run_cell at 1 and WORKERS workers and of the same
    replicates run directly, in that order or reversed.  Checks that the
    three agree.  Returns the three times under 'w1', 'w2' and 'direct',
    the steps run directly under 'steps' and the 1-worker result as 'cell'."""
    order = ("w1", "direct", "w2")
    out, results = {}, {}
    for job in reversed(order) if reverse else order:
        if job == "direct":
            out[job], runs = _direct_runs(tr, spec, plan, cell_index)
        else:
            workers = 1 if job == "w1" else wl.WORKERS
            results[job], out[job] = _call(tr, "mc.run_cell", mc.run_cell, spec, plan,
                                           cell_index=cell_index, workers=workers)
            tr.count("mc.tasks", plan.replicates)
    out["steps"] = sum(x.n_steps for x in runs)
    out["cell"] = results["w1"]
    biv = results["w1"].aggregate.biv
    mean_l1 = sum(x.L1 for x in runs) / len(runs)
    mean_n1 = sum(x.N1 for x in runs) / len(runs)
    checks.append((f"{spec.name()} {spec.mode}: direct runs reproduce run_cell",
                   abs(mean_l1 - biv.mean_x) <= 1e-9 * max(1.0, mean_l1)
                   and abs(mean_n1 - biv.mean_y) <= 1e-9 * max(1.0, abs(mean_n1))))
    checks.append((f"{spec.name()} {spec.mode}: cell row independent of workers",
                   mc.format_cell_row(results["w1"]) == mc.format_cell_row(results["w2"])))
    return out


def _clt_section(seed, tr, m, checks):
    n, r, eps = wl.CLT_CELL["n"], wl.CLT_CELL["r"], wl.CLT_CELL["eps"]
    m["theory.clt_targets_us"] = _seconds_per_call(
        tr, "theory.clt_targets", CLT_TARGET_CALLS, theory.clt_targets, n, r, eps) * 1e6

    spec, plan = wl.clt_spec_plan(CLT_REPLICATES, seed)
    rounds = [_time_cell(tr, spec, plan, 0, k % 2 == 1, checks) for k in range(ROUNDS)]
    m["explore.none_us_per_step"] = statistics.median(x["direct"] / x["steps"] for x in rounds) * 1e6
    m["mc.overhead_frac"] = statistics.median(1.0 - x["direct"] / x["w1"] for x in rounds)
    m["mc.parallel_speedup"] = statistics.median(x["w1"] / x["w2"] for x in rounds)

    p = theory.p_from_lambda(n, r, 1.0 + eps)
    chunks = [util.comb_float(np.arange(n - lo, n - lo - E_CHUNK, -1, dtype=np.float64), r - 1)
              for lo in range(1, 1 + CLT_CHUNKS * E_CHUNK, E_CHUNK)]
    rng = np.random.default_rng(util.derive_seed(seed, 1))
    per_pass = _seconds_per_call(tr, "randvar.sample_binomial_array", 1,
                                  lambda: [randvar.sample_binomial_array(rng, c, p) for c in chunks])
    m["randvar.binom_array_ns_per_draw"] = per_pass / (CLT_CHUNKS * E_CHUNK) * 1e9
    tr.count("randvar.draws", ROUNDS * CLT_CHUNKS * E_CHUNK)


def _tiny_section(seed, tr, m, checks):
    enum_s, subsets, laws = 0.0, 0, {}
    for n, r, p in wl.TINY_CASES:
        law, dt = _call(tr, "oracle.enumerate_all", oracle.enumerate_all, n, r, p, workers=wl.WORKERS)
        laws[(n, r, p)] = law
        enum_s += dt
        subsets += 2 ** util.comb0(n, r)
        checks.append((f"exact law {(n, r, p)} sums to 1", abs(float(law.probability.sum()) - 1.0) < 1e-9))
    m["oracle.enumerate_all_s"] = enum_s
    m["oracle.subsets_per_s"] = subsets / enum_s
    tr.count("oracle.subsets", subsets)

    rng = np.random.default_rng(util.derive_seed(seed, 2))
    trials = [(util.comb0(n, r), p) for n, r, p in wl.TINY_CASES]  # explicit mode's edge-count draw

    def scalar_draws():
        for count, p in trials:
            for _ in range(SCALAR_DRAWS):
                randvar.sample_binomial(rng, count, p)
    draws = SCALAR_DRAWS * len(trials)
    m["randvar.binom_scalar_us"] = _seconds_per_call(tr, "randvar.sample_binomial", 1, scalar_draws) / draws * 1e6
    tr.count("randvar.draws", ROUNDS * draws)

    cells = wl.tiny_cells(TINY_REPLICATES, seed)
    rounds = []
    for k in range(ROUNDS):
        rounds.append({(ci, mode): _time_cell(tr, spec, plan, ci, k % 2 == 1, checks)
                       for ci, _, mode, spec, plan in cells})

    def total(x, job, mode=None):
        return sum(v[job] for (_, md), v in x.items() if mode is None or md == mode)
    for mode in wl.TINY_MODES:
        runs = TINY_REPLICATES * sum(md == mode for _, _, md, _, _ in cells)
        m[f"explore.tiny_{mode}_us_per_run"] = statistics.median(
            total(x, "direct", mode) / runs for x in rounds) * 1e6
    m["mc.tiny_overhead_frac"] = statistics.median(1.0 - total(x, "direct") / total(x, "w1") for x in rounds)
    m["mc.tiny_parallel_speedup"] = statistics.median(total(x, "w1") / total(x, "w2") for x in rounds)

    ci, case, mode, _, _ = cells[0]
    counts = rounds[0][(ci, mode)]["cell"].aggregate.l1_counts
    m["stats.chi_square_ms"] = _seconds_per_call(
        tr, "stats.chi_square_gof", CHI_SQUARE_CALLS, stats.chi_square_gof, counts,
        laws[case].l1_marginal()) * 1e3
    z = np.random.default_rng(util.derive_seed(seed, 3)).standard_normal(KS_SAMPLES)
    m["stats.ks_ms"] = _seconds_per_call(tr, "stats.ks_distance", KS_CALLS, stats.ks_distance, z) * 1e3


def _trace_section(seed, tr, m, checks, workdir):
    prefix = os.path.join(workdir, "layers")
    rc, t_cli = _call(tr, "cli.main", cli.main, wl.cli_argv(seed, prefix))
    checks.append(("cli exit code 0", rc == 0))
    if rc != 0:
        raise RuntimeError(f"hxplore run exited with {rc}")
    eps = wl.cli_eps()
    file_checks, _, v1_written = wl.check_cli_outputs(prefix, wl.CLI_N, eps)
    checks.extend(file_checks)
    tr.count("cli.bytes_written", sum(os.path.getsize(f"{prefix}.{s}") for s in wl.TRACE_SUFFIXES))

    n, r, lam = wl.CLI_N, wl.CLI_R, wl.CLI_LAMBDA
    p = theory.p_from_lambda(n, r, lam)
    trace, t_explore = _call(tr, "explore.explore", explore, ExplorationConfig(n=n, r=r, p=p, seed=seed))
    m["explore.full_us_per_step"] = t_explore / trace.n_steps * 1e6
    tr.count("explore.steps", trace.n_steps)
    tr.count("explore.components_closed", len(trace.components))
    tr.count("explore.multi_edge_steps", int(np.count_nonzero(trace.edge_counts >= 2)))
    t0 = int(math.floor(4.0 * math.sqrt(n / eps)))
    m["explore.census_ms"] = _call(tr, "explore.census", census, trace, t0)[1] * 1e3

    # the calls cmd_run makes after explore, with its arguments
    t1 = min(int(math.floor(theory.rho_r(r, 1.0 + eps) * n)), trace.n_steps)
    seq, t_seq = _call(tr, "theory.drift_sequences", theory.drift_sequences, n, r, p, t1)
    dtrace, t_dec = _call(tr, "doob.decompose", doob.decompose, trace, seq, t1=t1)
    _, t_gap = _call(tr, "doob.approx_gap", doob.approx_gap, trace, dtrace)
    m["theory.drift_sequences_ms"] = t_seq * 1e3
    m["doob.decompose_ms"] = t_dec * 1e3
    m["doob.approx_gap_ms"] = t_gap * 1e3
    m["cli.writer_s"] = t_cli - (t_explore + t_seq + t_dec + t_gap)
    checks.append(("V1 written by the cli equals a direct decompose", v1_written == dtrace.V1))


def layer_pass(seed: int, tr, workdir: str) -> tuple:
    """Run the layer pass once.  Returns (metrics, checks): the timed
    per-layer metrics (counts stay in tr.counts) and (name, passed) pairs."""
    m: dict = {}
    checks: list = []
    with tr.span("bench.layer_pass"):
        _clt_section(seed, tr, m, checks)
        _tiny_section(seed, tr, m, checks)
        _trace_section(seed, tr, m, checks, workdir)
    return m, checks
