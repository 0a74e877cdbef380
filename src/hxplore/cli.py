"""Command-line surface: theory constants, single exploration runs with
trace/doob dumps, Monte Carlo cells, tail experiments, exact oracles, and
the acceptance suite.

Exit codes: 0 success, 1 acceptance-suite failure, 2 usage error, 3 runtime
fault.  Errors are single-line machine-parseable messages on stderr.  Output
files are byte-identical across repeated invocations with equal arguments
and across worker counts: --threads values and HXPLORE_MAX_WORKERS caps.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import shutil
import sys
import tempfile

import numpy as np

from . import acceptance
from .doob import approx_gap
from .explore import explore
from .mc import (
    CELL_CSV_HEADER,
    TAILS_CSV_HEADER,
    DEFAULT_OMEGA,
    CellSpec,
    ExperimentPlan,
    _fork_map,
    fmt17,
    format_cell_row,
    format_tail_row,
    make_context,
    resolve_workers,
    run_cell,
    tail_experiment,
)
from .oracle import enumerate_all, enumerate_step
from .theory import clt_targets, derived_constants, lambda_from_p, p_from_lambda

TRACE_HEADER = "t,edges,eta,xi,zeta,nullity_inc,A,C,X,new_component"
TRACE_COLUMNS = ("edge_counts", "eta", "xi", "zeta", "nullity_inc", "A", "C", "X", "new_component")
COMPONENTS_HEADER = "index,t_start,t_end,vertices,edges,nullity"
DOOB_HEADER = "t,D,Delta,Dstar,DeltaStar,S,Xtilde,Shat"
_BLOCK = 2048  # CSV rows formatted per text chunk
_MAX_Q = 27  # 5**27 < 2**63: the largest power of five _significands multiplies by
_MIN_K = 16 - _MAX_Q  # the smallest decimal exponent it handles


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


def _no_rows(lo, hi):
    """The body of a table that is all head."""
    return ()


def _json(doc):
    """The table of a JSON section: a head with no rows."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode(), 0, _no_rows, b""


def _emit(out_path, sections, workers=1) -> None:
    """sections: (suffix, table) pairs; a table is (head, R, body, tail), the ASCII bytes of
    its head, its row count, body(lo, hi) the byte chunks of rows lo .. hi - 1, and the bytes
    of its tail. Streamed to stdout in order with a blank line between sections, or written
    to the files PREFIX.suffix: process w of workers writes rows R * w // workers ..
    R * (w + 1) // workers - 1 of every table, process 0 the heads and the last process the
    tails. Process 0 is this one and writes into the files, so it alone writes a section of
    one head; process w >= 1, a child forked by mc._fork_map, writes into unnamed temporary
    files that this process appends in order after the join. mc._fork_map raises the error
    of the lowest process that meets one."""
    if not out_path:
        for i, (_, (head, rows, body, tail)) in enumerate(sections):
            sys.stdout.write(("\n" if i else "") + head.decode())
            sys.stdout.writelines(chunk.decode() for chunk in body(0, rows))
            sys.stdout.write(tail.decode())
        return
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(f"{out_path}.{suffix}", "wb")) for suffix, _ in sections]
        folder = os.path.dirname(out_path) or "."
        spill = [[stack.enter_context(tempfile.TemporaryFile(dir=folder)) for _ in sections]
                 for _ in range(1, workers)]

        def run_share(w):
            for fh, (_, (head, rows, body, tail)) in zip([files, *spill][w], sections):
                fh.write(head if w == 0 else b"")
                fh.writelines(body(rows * w // workers, rows * (w + 1) // workers))
                fh.write(tail if w == workers - 1 else b"")
                fh.flush()

        _fork_map(run_share, workers)
        for fh, *spilled in zip(files, *spill):
            for tmp in spilled:
                tmp.seek(0)
                shutil.copyfileobj(tmp, fh)


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
    _emit(args.out, [("json", _json(out))])
    return 0


@functools.cache
def _digit_tables():
    """Lookup tables of the CSV writer, built on first use and read-only.

    Each 4-digit group 0000 .. 9999 as ASCII read as one little-endian word, then the same
    with its leading zeros as NUL bytes (0000 all NUL), and 5**q for q = 0 .. _MAX_Q. Then
    the layouts of _float_fields, one row per decimal exponent k = _MIN_K .. 15, byte
    K = 0 .. 17 of the last significant digit and sign, in that order: the three words of
    the mask of the digits before the point, of the mask of the digits after it and of the
    constant bytes (sign, '0.', the leading zeros, '.' and 'e-XX'), then the bits that move
    the digits after the point left, and their complement to 64."""
    d = np.arange(10_000)
    place = np.array([1000, 100, 10, 1])
    chars = (d[:, None] // place % 10 + 48).astype(np.uint8)
    lead = np.where(d[:, None] < place, 0, chars).astype(np.uint8)
    k = np.arange(_MIN_K, 16)[:, None, None, None]
    K, sign, at = np.arange(18)[:, None, None], np.arange(2)[:, None], np.arange(24)
    small = (k < 0) & (k >= -4)  # 0.000ddd, with no digit before the point
    whole = np.where(k >= 0, k + 1, k < -4)  # the digits before the point, at bytes 1 ..
    shape = (len(k), len(K), len(sign), len(at))
    text = np.where(small & (at >= 1) & (at <= 1 - k), 48, 45 * sign * (at == 0))
    text = np.where((at == np.where(small, 2, whole + 1)) & (K > whole), 46, text)
    exp = np.where(at == 19, 101, np.where(at == 20, 45, 48 + np.where(at == 21, -k // 10, -k % 10)))
    text = np.where((k < -4) & (at >= 19) & (at <= 22), exp, text)
    words = [np.broadcast_to(b, shape).astype(np.uint8).reshape(-1, 24).view("<u8").T.copy()
             for b in (255 * ((at >= 1) & (at <= whole)), 255 * ((at > whole) & (at <= K)), text)]
    left = np.broadcast_to(8 * np.where(small, 1 - k, 1)[..., 0], shape[:3]).ravel()
    tables = (chars.view("<u4").ravel().astype(np.uint64), lead.view("<u4").ravel(),
              np.uint64(5) ** np.arange(_MAX_Q + 1, dtype=np.uint64), *words,
              left.astype(np.uint64), (64 - left).astype(np.uint64))
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
        high = rest // 10_000
        low = rest - high * 10_000
        # a group at or above the leading digit drops its leading zeros
        out[:, j] = np.where(u < 10 ** (4 * (groups - j)), quad_lead[low], quad[low])
        rest = high
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
    k = np.floor(np.log10(v)).astype(np.intp)
    q = 16 - k
    s = 1075 - (bits >> 52).view(np.intp) - q  # 53 - E - q
    ok = (q >= 0) & (q <= _MAX_Q) & (s >= 1) & (s <= 63)
    f = np.take(_digit_tables()[2], np.where(ok, q, 0))
    s = np.where(ok, s, 1).view(np.uint64)
    fl, fh, ml, mh = f & 2**32 - 1, f >> 32, M & 2**32 - 1, M >> 32
    hi = mh * fh
    mid = ml * fh
    mid += mh * fl
    lo = ml * fl
    hi += mid >> 32
    mid <<= 32
    lo += mid
    hi += lo < mid  # the carry out of the low word
    n = hi << (64 - s)
    n |= lo >> s
    half = np.uint64(1) << (s - 1)
    up = (lo & ((half << 1) - 1)) + (n & 1) > half  # the remainder passes half, or ties at odd n
    ok &= (n >= 10**16) & (n + up < 10**17)
    return n + up, k, ok


def _digit_words(n):
    """The 17 digits of each n < 10**17 as ASCII in three little-endian words, digit i at
    byte i + 1, and the byte of the last nonzero digit (0 for n = 0)."""
    quad = _digit_tables()[0]
    a = n // 10**10  # d0 .. d6
    b = n // 100
    c = n - b * 100  # d15 d16
    b -= a * 10**8  # d7 .. d14
    hi_a, hi_b = a // 10**4, b // 10**4
    a -= hi_a * 10**4
    b -= hi_b * 10**4
    words = [np.take(quad, hi_a.view(np.intp)), np.take(quad, hi_b.view(np.intp)),
             np.take(quad, c.view(np.intp)) >> 16]
    words[0] ^= 48  # byte 0 of the group d0 d1 d2 is a '0'
    words[0] |= np.take(quad, a.view(np.intp)) << 32
    words[1] |= np.take(quad, b.view(np.intp)) << 32
    # the top set bit of a word's digit values, read off their float64 exponent, over 8
    top = [(w & 0x0F0F0F0F0F0F0F0F).view(np.intp).astype(np.float64).view(np.intp) >> 52
           for w in words]
    last = np.maximum(np.maximum(top[0], top[1] + 64), top[2] + 128) - 1023 >> 3
    return words, np.maximum(last, 0, out=last)


def _float_fields(x):
    """The floats x as '%.17g' writes them: one row of 24 ASCII bytes each, NUL-padded.

    A finite x with 1e-11 < |x| < 2**51 gets its 17 correctly rounded digits from
    _significands, as the words of _digit_words. Its row keeps the digits before the point
    where they are, moves the rest left past the point (or past '0.' and the leading
    zeros), drops the trailing zeros after the point, and ORs in the sign, '0.', the
    leading zeros, '.' and 'e-XX': every mask, shift and constant is read from the
    _digit_tables layout of its exponent, last significant digit and sign. A zero reads
    as the digits 000..., which the layout of exponent 0 writes as '0'; nan, inf and the
    rest go through the '%' operator one at a time."""
    *_, before, after, const, left, right = _digit_tables()
    fast = np.isfinite(x) & (x != 0)
    n, k, ok = _significands(np.where(fast, np.abs(x), 1.0))
    ok &= fast
    n[~ok] = 0
    k[~ok] = 0
    words, last = _digit_words(n)
    del n
    row = ((k - _MIN_K) * 18 + last) * 2 + np.signbit(x)
    up, down = np.take(left, row), np.take(right, row)
    out = np.empty((len(x), 3), np.uint64)
    carry = 0
    for j, word in enumerate(words):
        rest = word & np.take(after[j], row)
        word &= np.take(before[j], row)
        word |= np.take(const[j], row)
        word |= rest << up
        word |= carry
        out[:, j] = word
        carry = rest >> down
    slow = np.flatnonzero(~ok & (x != 0))
    text = [("%.17g" % v).encode() for v in x[slow].tolist()]
    out = out.view(np.uint8)
    if text:
        out[slow] = np.array(text, "S24").view(np.uint8).reshape(len(text), 24)
    return out


def _csv_block(fields, end):
    """The ASCII bytes of one block of CSV rows: the arrays fields joined by commas, each
    row ending with end. Integer arrays are written as '%d' writes them, float arrays as
    mc.fmt17 does: all of them in one _float_fields call, row by row, whose 24-byte rows
    are then dealt back to their columns. The fields are NUL-padded byte rows, and one
    compaction drops the NULs."""
    rows = len(fields[0])
    floats = [f for f in fields if f.dtype.kind == "f"]
    if floats:
        text = iter(_float_fields(np.column_stack(floats).ravel())
                    .reshape(rows, len(floats), 24).swapaxes(0, 1))
    comma = np.full((rows, 1), 44, np.uint8)
    parts = []
    for f in fields:
        parts += [next(text) if f.dtype.kind == "f" else _int_fields(f), comma]
    parts[-1] = np.broadcast_to(np.frombuffer(end.encode(), np.uint8), (rows, len(end)))
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def _csv_rows(cols, lo, hi, end="\n"):
    """Rows lo+1 .. hi of a CSV table as byte chunks of _BLOCK rows: the row number, then
    the fields of rows a+1 .. b in the arrays cols(a, b), then end."""
    for a in range(lo, hi, _BLOCK):
        b = min(a + _BLOCK, hi)
        yield _csv_block([np.arange(a + 1, b + 1), *cols(a, b)], end)


def _trace_csv(run):
    return f"{TRACE_HEADER}\n".encode(), run.n_steps, functools.partial(
        _csv_rows, lambda a, b: [getattr(run, name)[a:b] for name in TRACE_COLUMNS]), b""


def _components_csv(run):
    """The full-record run's component table; columns made per block keep the memory small."""
    ends = np.concatenate(([0], run.close_t))  # 0, then the close times
    cum = np.concatenate(([0], run.close_e))  # the cumulative edge counts at each
    def cols(a, b):
        t, e = ends[a : b + 1], np.diff(cum[a : b + 1])
        v = np.diff(t)
        return [t[:-1], t[1:], v, e, 1 + (run.config.r - 1) * e - v]  # n(C) = 1 + (r-1) e(C) - |C|
    return f"{COMPONENTS_HEADER}\n".encode(), len(ends) - 1, functools.partial(_csv_rows, cols), b""


def _doob_csv(dt, gap):
    """Rows t <= t1 carry Shat, later rows leave it empty; every real has mc.fmt17's
    bytes, through _csv_rows' block formatter."""
    cols = [dt.D, dt.Delta, dt.Dstar, dt.DeltaStar, dt.S, dt.Xtilde]

    def body(lo, hi):
        yield from _csv_rows(lambda a, b: [c[a:b] for c in cols + [dt.Shat]], lo, min(hi, dt.t1))
        yield from _csv_rows(lambda a, b: [c[a:b] for c in cols], max(lo, dt.t1), hi, end=",\n")
    trailer = (f"# V1={fmt17(dt.V1)} V2={fmt17(dt.V2)} V12={fmt17(dt.V12)} "
               f"lindeberg1={fmt17(dt.lindeberg1)} lindeberg2={fmt17(dt.lindeberg2)} "
               f"c1={fmt17(gap)}\n").encode()
    return f"{DOOB_HEADER}\n".encode(), dt.n_steps, body, trailer


def cmd_run(args) -> int:
    _require(args, "n", "r", "seed")
    stop, margin = _parse_stop(args)
    spec = CellSpec(n=args.n, r=args.r, p=_resolve_p(args), mode=args.mode or "implicit",
                    stop=stop, margin=margin)
    workers = _checked(resolve_workers, None)
    collect = ("census", "gap") if args.doob else ("census",)  # c1 is the gap a cell collects
    ctx = _checked(make_context, spec, _plan(args, spec, collect=collect))
    trace = explore(_checked(ctx.config, args.seed))
    if args.format == "json":
        names = TRACE_HEADER.split(",")
        cols = [range(1, trace.n_steps + 1)] + [getattr(trace, c).tolist() for c in TRACE_COLUMNS]
        doc = {
            "trace": [dict(zip(names, row)) for row in zip(*cols)],
            "components": [c._asdict() for c in trace.components],
            "complete": trace.complete,
        }
        sections = [("json", _json(doc))]
    else:
        sections = [("trace.csv", _trace_csv(trace)), ("components.csv", _components_csv(trace))]
    if ctx.traced:
        dt = ctx.replay(trace)  # the cell's replay, so that a failed replicate's replay fails too
        sections.append(("doob.csv", _doob_csv(dt, approx_gap(trace, dt))))
    _emit(args.out, sections, workers)
    return 0


def cmd_mc(args) -> int:
    _require(args, "n", "r", "seed", "replicates")
    p = _resolve_p(args)
    super_cell = _checked(lambda_from_p, args.n, args.r, p) > 1.0
    stop, margin = _parse_stop(args) if args.stop else (("giant", None) if super_cell else ("full", 0))
    spec = CellSpec(n=args.n, r=args.r, p=p, mode=args.mode or "implicit", stop=stop, margin=margin)
    plan = _plan(args, spec, args.replicates, ("census", "windows") if super_cell else ("census",))
    workers = _checked(resolve_workers, args.threads)
    # make_context checks the cell; replicates run on derived seeds, so any --seed is valid here
    res = _checked(run_cell, spec, plan, workers=workers)
    csv_text = f"{CELL_CSV_HEADER}\n{format_cell_row(res)}\n".encode()
    s = res.summary()
    clt = {rec.name: rec for rec in acceptance.clt_records(s)}
    verdicts = {f"ks_z1_below_{acceptance.CLT_KS_Z1}": clt["KS z1"],
                f"corr_within_{acceptance.CLT_CORR_TOL}_of_sqrt35": clt["corr"]}
    report = [{
        "cell": s["cell"],
        "summary": s,
        **res.aggregate.windows(),
        "verdicts": {key: None if rec.value is None else rec.passed for key, rec in verdicts.items()},
    }]
    _emit(args.out, [("cells.csv", (csv_text, 0, _no_rows, b"")), ("report.json", _json(report))])
    return 0


def cmd_tails(args) -> int:
    _require(args, "kind", "n", "r", "eps", "seed", "replicates")
    workers = _checked(resolve_workers, args.threads)
    grid = _parse_list(args.l_grid, int, "--L-grid") if args.l_grid else None
    omega_grid = _parse_list(args.omega_grid, float, "--omega-grid")
    rep = _checked(tail_experiment, args.kind, args.n, args.r, args.eps, grid, args.replicates,
                   args.seed, workers=workers, omega_grid=omega_grid, c_bound=args.bound_c)
    rows = [TAILS_CSV_HEADER, *map(format_tail_row, rep.rows)]
    sections = [("tails.csv", ("".join(f"{row}\n" for row in rows).encode(), 0, _no_rows, b""))]
    meta = {
        "kind": rep.kind, "n": rep.n, "r": rep.r, "eps": rep.eps, "R": rep.R,
        "c_bound": rep.c_bound, "measurable": rep.measurable,
        "strictly_decreasing": rep.strictly_decreasing,
        "log_fit": {"slope": rep.slope, "intercept": rep.intercept,
                    "max_residual": rep.max_fit_residual},
        "omega_rows": [{"omega": om, "count": c, "freq": f} for om, c, f in rep.omega_rows],
    }
    sections.append(("report.json", _json(meta)))
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
    _emit(args.out, [("json", _json(out))])
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
    except MemoryError as exc:  # numpy raises a private subclass
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
