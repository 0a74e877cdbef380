"""Command-line surface: theory constants, single exploration runs with
trace/doob dumps, Monte Carlo cells, tail experiments, exact oracles, and
the acceptance suite.

Exit codes: 0 success, 1 acceptance-suite failure, 2 usage error, 3 runtime
fault.  Errors are single-line machine-parseable messages on stderr.  Output
files are byte-identical across repeated invocations with equal arguments
and across --threads values.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import acceptance
from .doob import approx_gap, decompose
from .explore import explore
from .mc import (
    CELL_CSV_HEADER,
    TAILS_CSV_HEADER,
    DEFAULT_OMEGA,
    CellSpec,
    ExperimentPlan,
    fmt17,
    format_cell_row,
    format_tail_row,
    make_context,
    resolve_workers,
    run_experiment,
    tail_experiment,
)
from .oracle import enumerate_all, enumerate_step
from .theory import (
    check_drift_args, clt_targets, derived_constants, drift_sequences, lambda_from_p, p_from_lambda,
)

TRACE_HEADER = "t,edges,eta,xi,zeta,nullity_inc,A,C,X,new_component"
TRACE_COLUMNS = ("edge_counts", "eta", "xi", "zeta", "nullity_inc", "A", "C", "X", "new_component")
COMPONENTS_HEADER = "index,t_start,t_end,vertices,edges,nullity"
DOOB_HEADER = "t,D,Delta,Dstar,DeltaStar,S,Xtilde,Shat"
_BLOCK = 2048  # CSV rows formatted per text chunk
_MAX_Q = 27  # 5**27 < 2**63: the largest power of five _significands multiplies by


class UsageError(Exception):
    pass


# Each flag's add_argument keywords; its dest is _dest(flag).
_FLAGS = {
    "n": dict(type=int),
    "r": dict(type=int),
    "eps": dict(type=float),
    "lambda": dict(type=float),
    "p": dict(type=float),
    "seed": dict(type=int),
    "replicates": dict(type=int),
    "out": dict(type=str),
    "format": dict(choices=("csv", "json")),
    "threads": dict(type=int),
    "mode": dict(choices=("implicit", "explicit")),
    "omega": dict(type=float),
    "stop": dict(type=str, help="full or giant:MARGIN"),
    "doob": dict(action="store_true"),
    "kind": dict(choices=("sub", "super")),
    "L-grid": dict(type=str, help="comma-separated component-size thresholds"),
    "omega-grid": dict(type=str, default="2,3,4,5"),
    "bound-c": dict(type=float, default=10.0),
    "step": dict(action="store_true"),
    "explored": dict(type=str, default=""),
    "active": dict(type=str, default=""),
    "criteria": dict(type=str, help="comma-separated criterion numbers (default: all)"),
    "config": dict(type=str, help="JSON file with flag defaults"),
}

# command -> (help, the flags it reads besides --config)
_SUBCOMMANDS = {
    "theory": ("print solved constants (and CLT targets when --n is given) as JSON",
               "r eps lambda n out"),
    "run": ("run one exploration; write trace and component CSVs (--doob adds the decomposition)",
            "n r eps lambda p seed out format mode omega stop doob"),
    "mc": ("run a Monte Carlo cell; write the per-cell CSV and a JSON report",
           "n r eps lambda p seed replicates out threads mode omega stop"),
    "tails": ("tail-probability experiment (--kind sub|super)",
              "kind n r eps seed replicates out threads L-grid omega-grid bound-c"),
    "oracle": ("exact enumeration (full law, or one step with --step)",
               "n r p out step explored active"),
    "verify": ("run the acceptance suite; nonzero exit on failure", "criteria threads"),
}


def _dest(flag: str) -> str:
    return "lam" if flag == "lambda" else flag.replace("-", "_").lower()


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hxplore", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (helptext, flags) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=helptext)
        for flag in flags.split() + ["config"]:
            # an unset flag reads None here; _merge_config fills it from --config, then its default
            sp.add_argument(f"--{flag}", dest=_dest(flag), **{**_FLAGS[flag], "default": None})
    return ap


def _config_value(source: str, flag: str, val):
    """A --config file's value for --flag, parsed as the flag's text on the command line is."""
    kw = _FLAGS[flag]
    try:
        if kw.get("action") == "store_true":
            if isinstance(val, bool):
                return val
        elif isinstance(val, (str, int, float)) and not isinstance(val, bool):
            out = kw.get("type", str)(str(val))
            if out in kw.get("choices", (out,)):
                return out
    except ValueError:
        pass
    raise UsageError(f"{source}: invalid value {val!r} for --{flag}")


def _merge_config(args) -> None:
    """Fill each flag the command line leaves unset from the --config file, then from the
    flag's default."""
    flags = _SUBCOMMANDS[args.command][1].split()
    given = {}
    if args.config:
        source = f"--config {args.config}"
        try:
            with open(args.config) as fh:
                defaults = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"{source}: {exc}") from None
        if not isinstance(defaults, dict):
            raise UsageError(f"{source}: expected a JSON object")
        by_dest = {_dest(flag): flag for flag in flags}
        for key, val in defaults.items():
            flag = by_dest.get(_dest(key))
            if flag is None:
                raise UsageError(f"{source}: {key!r} is not a flag of {args.command}")
            given[flag] = _config_value(source, flag, val)
    for flag in flags:
        if getattr(args, _dest(flag)) is None:
            setattr(args, _dest(flag), given.get(flag, _FLAGS[flag].get("default")))


def _checked(fn, *args, **kw):
    """fn(*args, **kw), with the ValueError it raises on bad input reported as a usage error."""
    try:
        return fn(*args, **kw)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _resolve_p(args) -> float:
    given = [x is not None for x in (args.eps, args.lam, args.p)]
    if sum(given) != 1:
        raise UsageError("give exactly one of --eps, --lambda, --p")
    if args.p is not None:
        return args.p  # make_context checks it with --n and --r
    lam = args.lam if args.lam is not None else 1.0 + args.eps
    return _checked(p_from_lambda, args.n, args.r, lam)


def _parse_stop(args):
    """(rule, margin); margin is None for 'giant' without an explicit value,
    meaning the default 2 t0."""
    if args.stop is None or args.stop == "full":
        return "full", 0
    rule, sep, margin = args.stop.partition(":")
    if rule != "giant":
        raise UsageError(f"unknown stop rule {args.stop!r}")
    if not sep:
        return "giant", None
    if not margin.isdecimal():
        raise UsageError(f"giant stop margin must be a nonnegative integer, got {margin!r}")
    return "giant", int(margin)


def _parse_list(text, conv, flag) -> list:
    try:
        return [conv(x) for x in text.split(",") if x]
    except ValueError:
        raise UsageError(f"{flag} takes comma-separated numbers, got {text!r}") from None


def _emit(out_path, sections) -> None:
    """sections: (suffix, iterable of text chunks ending in a newline) pairs, streamed to
    the files PREFIX.suffix, or to stdout with a blank line between sections."""
    for i, (suffix, chunks) in enumerate(sections):
        if out_path:
            with open(f"{out_path}.{suffix}", "w") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.write("\n" if i else "")
            sys.stdout.writelines(chunks)


def _plan(args, spec, replicates=1, collect=("census",)) -> ExperimentPlan:
    """The plan of the one-cell experiment spec."""
    return _checked(ExperimentPlan, cells=(spec,), replicates=replicates, master_seed=args.seed,
                    omega=args.omega if args.omega is not None else DEFAULT_OMEGA,
                    collect=collect)


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")


def cmd_theory(args) -> int:
    _require(args, "r")
    if (args.lam is None) == (args.eps is None):
        raise UsageError("give exactly one of --eps, --lambda")
    lam = args.lam if args.lam is not None else 1.0 + args.eps
    cons = _checked(derived_constants, args.r, lam)
    out = {
        "r": args.r,
        "lambda": lam,
        "eps": lam - 1.0,
        "rho_lambda": cons.rho_lambda,
        "lambda_star": cons.lambda_star,
        "rho_r": cons.rho_r,
        "rho_star": cons.rho_star,
    }
    if args.n is not None:
        out["p"] = _checked(p_from_lambda, args.n, args.r, lam)
        t = clt_targets(args.n, args.r, lam - 1.0)
        out["clt_targets"] = {
            "mean_L1": t.mean_L1, "sd_L1": t.sd_L1,
            "mean_N1": t.mean_N1, "sd_N1": t.sd_N1, "corr": t.corr,
        }
    _emit(args.out, [("json", [json.dumps(out, indent=2, sort_keys=True) + "\n"])])
    return 0


@functools.cache
def _digit_tables():
    """Lookup tables of the CSV writer, built on first use and read-only.

    Each 4-digit group 0000 .. 9999 as ASCII read as one little-endian word, then the
    same with its leading zeros as NUL bytes (0000 all NUL), each group's count of trailing
    zeros (4 for 0000), the masks of the low j bytes of a word for j = 0 .. 8, and 5**q for
    q = 0 .. _MAX_Q."""
    d = np.arange(10_000)
    place = np.array([1000, 100, 10, 1])
    chars = (d[:, None] // place % 10 + 48).astype(np.uint8)
    lead = np.where(d[:, None] < place, 0, chars).astype(np.uint8)
    zeros = sum(d % 10**j == 0 for j in range(1, 5)).astype(np.uint8)
    low_bytes = np.array([2 ** (8 * j) - 1 for j in range(9)], np.uint64)
    tables = (chars.view("<u4").ravel().astype(np.uint64), lead.view("<u4").ravel(), zeros,
              low_bytes, np.uint64(5) ** np.arange(_MAX_Q + 1, dtype=np.uint64))
    for a in tables:
        a.flags.writeable = False
    return tables


def _int_fields(v):
    """The integers v as '%d' writes them: one row of ASCII bytes each, NUL-padded to the
    4-digit groups of the widest value, after a sign column if one is negative."""
    quad, quad_lead, *_ = _digit_tables()
    v = np.asarray(v, np.int64)
    neg = v < 0
    u = np.abs(v).view(np.uint64)  # |int64 min| wraps to int64 min, which reads as 2**63
    groups = max(1, (len(str(u.max(initial=0))) + 3) // 4)
    out = np.empty((len(u), groups), "<u4")
    rest = u
    for j in range(groups - 1, 0, -1):
        rest, low = np.divmod(rest, 10_000)
        # a group at or above the leading digit drops its leading zeros
        out[:, j] = np.where(u < 10 ** (4 * (groups - j)), quad_lead[low], quad[low])
    out[:, 0] = quad_lead[rest]
    digits = out.view(np.uint8)
    digits[u == 0, -1] = 48
    return np.column_stack([np.where(neg, 45, 0).astype(np.uint8), digits]) if neg.any() else digits


def _significands(v):
    """For finite v > 0: the 17 digits n of each, 10**16 <= n < 10**17, correctly rounded
    (half to even), its decimal exponent k, and whether n and k are exact.

    With v = M * 2**(E - 53), k = floor(log10 v) and q = 16 - k, v * 10**q is
    M * 5**q / 2**s: a product below 2**116, held as two uint64 words of 32-bit half
    products and shifted right by s bits. That is exact for 0 <= q <= _MAX_Q and
    s = 1 .. 63, and k is right only if n lands in range, since log10 can miss a power
    of ten by one; the flag is false where either fails."""
    bits = v.view(np.uint64)  # a subnormal gets a wrong M here, but lies outside the range
    M = (bits & (2**52 - 1)) | 2**52
    E = (bits >> 52).astype(np.int16) - 1022
    k = np.floor(np.log10(v)).astype(np.int16)
    q = 16 - k
    s = 53 - E - q
    ok = (q >= 0) & (q <= _MAX_Q) & (s >= 1) & (s <= 63)
    f = _digit_tables()[-1][np.where(ok, q, 0)]
    fl, fh, ml, mh = (w.astype(np.uint32) for w in (f, f >> 32, M, M >> 32))
    s = np.where(ok, s, 1).astype(np.uint8)
    hi = np.multiply(mh, fh, dtype=np.uint64)
    mid = np.multiply(ml, fh, dtype=np.uint64)
    mid += np.multiply(mh, fl, dtype=np.uint64)
    lo = np.multiply(ml, fl, dtype=np.uint64)
    hi += mid >> 32
    mid <<= 32
    lo += mid
    hi += lo < mid  # the carry out of the low word
    n = hi << (64 - s)
    n |= lo >> s
    half = np.uint64(1) << (s - 1)
    up = ((lo & half) != 0) & (((lo & (half - 1)) != 0) | ((n & 1) != 0))
    ok &= (n >= 10**16) & (n + up < 10**17)
    return n + up, k.astype(np.int8), ok


def _digit_bytes(n, k, neg):
    """The byte table that _layout reads, one row of four little-endian words per
    significand n of exponent k: sign, point (NUL when no digit follows it), 'e', '-',
    '000' and the 17 digits with the trailing zeros after the point as NULs, then the two
    digits of -k."""
    quad, _, zeros4, low_bytes, _ = _digit_tables()
    lead, rest = np.divmod(n, 10**16)
    g1, g2 = np.divmod((rest // 10**8).astype(np.uint32), 10_000)
    g3, g4 = np.divmod((rest % 10**8).astype(np.uint32), 10_000)
    tz = zeros4[g4] + (g4 == 0) * (zeros4[g3] + (g3 == 0) * (zeros4[g2] + (g2 == 0) * zeros4[g1]))
    whole = np.where(k >= 0, k + 1, k < -4)  # digits before the point, never dropped
    keep = np.maximum(17 - tz, whole)
    table = np.empty((len(n), 4), "<u8")
    table[:, 0] = quad[lead] << 32 | 101 << 16 | 45 << 24
    table[:, 0] |= np.where(neg, np.uint64(45), 0) | np.where(keep > whole, np.uint64(46 << 8), 0)
    table[:, 1] = (quad[g1] | quad[g2] << 32) & low_bytes[np.clip(keep - 1, 0, 8)]
    table[:, 2] = (quad[g3] | quad[g4] << 32) & low_bytes[np.clip(keep - 9, 0, 8)]
    e = -k.astype(np.int16)  # read below -4 only
    table[:, 3] = (48 + e // 10 | (48 + e % 10) << 8).astype(np.uint64)
    return table.view(np.uint8)


# the bytes of _digit_bytes' rows
_SIGN, _POINT, _E, _MINUS, _ZERO, _DIGITS, _EXP = 0, 1, 2, 3, 4, range(7, 24), 24


@functools.cache
def _layout(x):
    """The bytes of a _digit_bytes row that spell a value of decimal exponent x (cached,
    read-only): fixed notation for -4 <= x <= 16, d.ddde-XX below."""
    digits = list(_DIGITS)
    if x >= 0:
        cols = [_SIGN, *digits[: x + 1], _POINT, *digits[x + 1 :]]
    elif x >= -4:
        cols = [_SIGN, _ZERO, _POINT, *[_ZERO] * (-x - 1), *digits]
    else:
        cols = [_SIGN, digits[0], _POINT, *digits[1:], _E, _MINUS, _EXP, _EXP + 1]
    cols = np.array(cols)
    cols.flags.writeable = False
    return cols


def _float_fields(x):
    """The floats x as '%.17g' writes them: one row of ASCII bytes each, NUL-padded.

    Zeros are written in bulk. A finite x with 1e-11 < |x| < 2**51 gets its 17 correctly
    rounded digits from _significands, its trailing zeros after the point dropped by a
    mask, and one _layout per decimal exponent; nan, inf and the rest go through the '%'
    operator one at a time."""
    neg = np.signbit(x)
    fast = np.flatnonzero(np.isfinite(x) & (x != 0))
    n, k, ok = _significands(np.abs(x[fast]))
    slow = np.concatenate([np.flatnonzero(~np.isfinite(x)), fast[~ok]])
    exact = np.flatnonzero(ok)
    order = exact[np.argsort(k[exact], kind="stable")]  # by exponent: a radix sort of int8
    fast, n, k = fast[order], n[order], k[order]
    table = _digit_bytes(n, k, neg[fast])

    ends = np.flatnonzero(np.diff(k)) + 1
    groups = [(a, b, _layout(int(k[a]))) for a, b in zip([0, *ends], [*ends, len(k)]) if b > a]
    zero = np.flatnonzero(x == 0)
    text = [("%.17g" % v).encode() for v in x[slow].tolist()]
    width = max([2 * (len(zero) > 0), *(len(c) for _, _, c in groups), *map(len, text)])
    out = np.zeros((len(x), width), np.uint8)
    for a, b, c in groups:
        out[fast[a:b], : len(c)] = table[a:b, c]
    out[zero, 0] = np.where(neg[zero], 45, 0)
    out[zero, 1] = 48
    if text:
        out[slow] = np.array(text, f"S{width}").view(np.uint8).reshape(len(text), width)
    return out


def _csv_block(fields, end):
    """The ASCII bytes of one block of CSV rows: the arrays fields joined by commas, each
    row ending with end. Integer arrays are written as '%d' writes them, float arrays as
    mc.fmt17 does (all of them in one _float_fields call); the fields are NUL-padded byte
    rows, and one compaction drops the NULs."""
    rows = len(fields[0])
    floats = [f for f in fields if f.dtype.kind == "f"]
    if floats:
        text = iter(_float_fields(np.column_stack(floats).ravel())
                    .reshape(rows, len(floats), -1).swapaxes(0, 1))
    comma = np.full((rows, 1), 44, np.uint8)
    parts = []
    for f in fields:
        parts += [next(text) if f.dtype.kind == "f" else _int_fields(f), comma]
    parts[-1] = np.broadcast_to(np.frombuffer(end.encode(), np.uint8), (rows, len(end)))
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def _csv_rows(cols, lo, hi, end="\n"):
    """Rows lo+1 .. hi of a CSV table as text chunks of _BLOCK rows: the row number, then
    the fields of rows a+1 .. b in the arrays cols(a, b), then end."""
    for a in range(lo, hi, _BLOCK):
        b = min(a + _BLOCK, hi)
        yield _csv_block([np.arange(a + 1, b + 1), *cols(a, b)], end).decode("ascii")


def _trace_csv(run):
    yield TRACE_HEADER + "\n"
    yield from _csv_rows(lambda a, b: [getattr(run, name)[a:b] for name in TRACE_COLUMNS],
                         0, run.n_steps)


def _components_csv(run):
    """The full-record run's component table; columns made per block keep the memory small."""
    ends = np.concatenate(([0], run.close_t))  # 0, then the close times
    cum = np.concatenate(([0], run.close_e))  # the cumulative edge counts at each
    def cols(a, b):
        t, e = ends[a : b + 1], np.diff(cum[a : b + 1])
        v = np.diff(t)
        return [t[:-1], t[1:], v, e, 1 + (run.config.r - 1) * e - v]  # n(C) = 1 + (r-1) e(C) - |C|
    yield COMPONENTS_HEADER + "\n"
    yield from _csv_rows(cols, 0, len(ends) - 1)


def _doob_csv(dt, gap):
    """Rows t <= t1 carry Shat, later rows leave it empty; every real has mc.fmt17's
    bytes, through _csv_rows' block formatter."""
    cols = [dt.D, dt.Delta, dt.Dstar, dt.DeltaStar, dt.S, dt.Xtilde]
    yield DOOB_HEADER + "\n"
    yield from _csv_rows(lambda a, b: [c[a:b] for c in cols + [dt.Shat]], 0, dt.t1)
    yield from _csv_rows(lambda a, b: [c[a:b] for c in cols], dt.t1, dt.n_steps, end=",\n")
    yield (f"# V1={fmt17(dt.V1)} V2={fmt17(dt.V2)} V12={fmt17(dt.V12)} "
           f"lindeberg1={fmt17(dt.lindeberg1)} lindeberg2={fmt17(dt.lindeberg2)} c1={fmt17(gap)}\n")


def cmd_run(args) -> int:
    _require(args, "n", "r", "seed")
    stop, margin = _parse_stop(args)
    spec = CellSpec(n=args.n, r=args.r, p=_resolve_p(args), mode=args.mode or "implicit",
                    stop=stop, margin=margin)
    ctx = _checked(make_context, spec, _plan(args, spec))
    if args.doob:
        _checked(check_drift_args, ctx.n, ctx.r, ctx.p, ctx.t1)
    trace = explore(_checked(ctx.config, args.seed))
    if args.format == "json":
        names = TRACE_HEADER.split(",")
        cols = [range(1, trace.n_steps + 1)] + [getattr(trace, c).tolist() for c in TRACE_COLUMNS]
        doc = {
            "trace": [dict(zip(names, row)) for row in zip(*cols)],
            "components": [c._asdict() for c in trace.components],
            "complete": trace.complete,
        }
        sections = [("json", [json.dumps(doc, indent=2, sort_keys=True) + "\n"])]
    else:
        sections = [("trace.csv", _trace_csv(trace)), ("components.csv", _components_csv(trace))]
    if args.doob:
        if trace.n_steps < ctx.t1:  # mc's rule, so that a failed replicate's replay fails too
            raise RuntimeError(
                f"replicate too short for the t1 horizon: {trace.n_steps} < {ctx.t1}")
        seq = drift_sequences(ctx.n, ctx.r, ctx.p, ctx.t1)
        dt = decompose(trace, seq, t1=ctx.t1)
        sections.append(("doob.csv", _doob_csv(dt, approx_gap(trace, dt))))
    _emit(args.out, sections)
    return 0


def cmd_mc(args) -> int:
    _require(args, "n", "r", "seed", "replicates")
    p = _resolve_p(args)
    super_cell = _checked(lambda_from_p, args.n, args.r, p) > 1.0
    stop, margin = _parse_stop(args) if args.stop else (("giant", None) if super_cell else ("full", 0))
    spec = CellSpec(n=args.n, r=args.r, p=p, mode=args.mode or "implicit", stop=stop, margin=margin)
    plan = _plan(args, spec, args.replicates, ("census", "windows") if super_cell else ("census",))
    # replicates run on derived seeds, so any --seed is valid here
    _checked(make_context, spec, plan)
    workers = _checked(resolve_workers, args.threads)
    results = run_experiment(plan, workers=workers)
    csv_text = CELL_CSV_HEADER + "\n" + "\n".join(format_cell_row(r) for r in results) + "\n"
    report = []
    for res in results:
        s = res.summary()
        report.append({
            "cell": s["cell"],
            "summary": s,
            **res.aggregate.windows(),
            "verdicts": {
                f"ks_z1_below_{acceptance.CLT_KS_Z1}": None if s["ks_z1"] is None
                else bool(s["ks_z1"] < acceptance.CLT_KS_Z1),
                f"corr_within_{acceptance.CLT_CORR_TOL}_of_sqrt35": None if s["corr"] is None
                else bool(abs(s["corr"] - acceptance.CLT_CORR) < acceptance.CLT_CORR_TOL),
            },
        })
    json_text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    _emit(args.out, [("cells.csv", [csv_text]), ("report.json", [json_text])])
    return 0


def cmd_tails(args) -> int:
    _require(args, "kind", "n", "r", "eps", "seed", "replicates")
    workers = _checked(resolve_workers, args.threads)
    grid = _parse_list(args.l_grid, int, "--L-grid") if args.l_grid else None
    omega_grid = _parse_list(args.omega_grid, float, "--omega-grid")
    rep = _checked(tail_experiment, args.kind, args.n, args.r, args.eps, grid, args.replicates,
                   args.seed, workers=workers, omega_grid=omega_grid, c_bound=args.bound_c)
    rows = [TAILS_CSV_HEADER, *map(format_tail_row, rep.rows)]
    sections = [("tails.csv", [f"{row}\n" for row in rows])]
    meta = {
        "kind": rep.kind, "n": rep.n, "r": rep.r, "eps": rep.eps, "R": rep.R,
        "c_bound": rep.c_bound, "measurable": rep.measurable,
        "strictly_decreasing": rep.strictly_decreasing,
        "log_fit": {"slope": rep.slope, "intercept": rep.intercept,
                    "max_residual": rep.max_fit_residual},
        "omega_rows": [{"omega": om, "count": c, "freq": f} for om, c, f in rep.omega_rows],
    }
    sections.append(("report.json", [json.dumps(meta, indent=2, sort_keys=True) + "\n"]))
    _emit(args.out, sections)
    return 0


def cmd_oracle(args) -> int:
    _require(args, "n", "r", "p")
    if args.step:
        explored = _parse_list(args.explored, int, "--explored")
        active = _parse_list(args.active, int, "--active")
        law = _checked(enumerate_step, args.n, args.r, args.p, explored, active)
        out = {
            "n": args.n, "r": args.r, "p": args.p, "t": law.t, "v": law.v,
            "support": [list(k) for k in law.support],
            "probability": [float(q) for q in law.probability],
            "moments": law.moments(),
        }
    else:
        dist = _checked(enumerate_all, args.n, args.r, args.p)
        out = {
            "n": args.n, "r": args.r, "p": args.p,
            "support": [list(k) for k in dist.support],
            "probability": [float(q) for q in dist.probability],
        }
    _emit(args.out, [("json", [json.dumps(out, indent=2, sort_keys=True) + "\n"])])
    return 0


def cmd_verify(args) -> int:
    keys = None
    if args.criteria:
        keys = _parse_list(args.criteria, int, "--criteria")
        unknown = sorted(set(keys) - {number for number, _ in acceptance.CRITERIA})
        if unknown:
            raise UsageError(f"unknown criteria {unknown}")
    workers = _checked(resolve_workers, args.threads)
    results = acceptance.run_all(keys=keys, workers=workers, progress=print)
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "theory": cmd_theory,
    "run": cmd_run,
    "mc": cmd_mc,
    "tails": cmd_tails,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        _merge_config(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage-error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
