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
import json
import math
import sys

import numpy as np

from . import acceptance
from .doob import approx_gap, decompose
from .explore import ExplorationConfig, explore
from .mc import (
    CELL_CSV_HEADER,
    TAILS_CSV_HEADER,
    DEFAULT_OMEGA,
    CellSpec,
    ExperimentPlan,
    check_omega,
    fmt17,
    format_cell_row,
    format_tail_row,
    resolve_workers,
    run_experiment,
    tail_grid,
    tail_p,
    tail_subcritical,
    tail_supercritical,
)
from .oracle import enumerate_all, enumerate_step
from .theory import (
    MAX_R, clt_targets, derived_constants, drift_sequences, lambda_from_p, p_from_lambda, rho_r,
)

TRACE_HEADER = "t,edges,eta,xi,zeta,nullity_inc,A,C,X,new_component"
TRACE_COLUMNS = ("edge_counts", "eta", "xi", "zeta", "nullity_inc", "A", "C", "X", "new_component")
COMPONENTS_HEADER = "index,t_start,t_end,vertices,edges,nullity"
DOOB_HEADER = "t,D,Delta,Dstar,DeltaStar,S,Xtilde,Shat"
_BLOCK = 4096  # CSV rows formatted per text chunk


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
            sp.add_argument(f"--{flag}", dest=_dest(flag), **_FLAGS[flag])
    return ap


def _merge_config(args) -> None:
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                defaults = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"--config {args.config}: {exc}") from None
        if not isinstance(defaults, dict):
            raise UsageError(f"--config {args.config}: expected a JSON object")
        for key, val in defaults.items():
            dest = _dest(key)
            if dest in ("command", "config") or not hasattr(args, dest):
                raise UsageError(f"--config {args.config}: {key!r} is not a flag of {args.command}")
            if getattr(args, dest) is None:
                setattr(args, dest, val)


def _checked(fn, *args, **kw):
    """fn(*args, **kw), with the ValueError it raises on bad input reported as a usage error."""
    try:
        return fn(*args, **kw)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_r(args) -> None:
    if not 2 <= args.r <= MAX_R:
        raise UsageError(f"--r must be an integer in [2, {MAX_R}], got {args.r}")


def _resolve_p(args) -> float:
    given = [x is not None for x in (args.eps, args.lam, args.p)]
    if sum(given) != 1:
        raise UsageError("give exactly one of --eps, --lambda, --p")
    if args.n is None or args.r is None:
        raise UsageError("--n and --r are required")
    _check_r(args)
    if args.p is not None:
        return args.p
    lam = args.lam if args.lam is not None else 1.0 + args.eps
    return p_from_lambda(args.n, args.r, lam)


def _eps_of(args, p) -> float:
    return lambda_from_p(args.n, args.r, p) - 1.0


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


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")
    if "replicates" in names and args.replicates < 1:
        raise UsageError(f"--replicates must be >= 1, got {args.replicates}")


def cmd_theory(args) -> int:
    if args.r is None:
        raise UsageError("--r is required")
    if args.n is not None and args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
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
        t = clt_targets(args.n, args.r, lam - 1.0)
        out["clt_targets"] = {
            "mean_L1": t.mean_L1, "sd_L1": t.sd_L1,
            "mean_N1": t.mean_N1, "sd_N1": t.sd_N1, "corr": t.corr,
        }
        out["p"] = p_from_lambda(args.n, args.r, lam)
    _emit(args.out, [("json", [json.dumps(out, indent=2, sort_keys=True) + "\n"])])
    return 0


def _csv_rows(template, cols, lo, hi):
    """Rows lo+1 .. hi of a CSV table in chunks of _BLOCK rows: the row number, then
    the fields of rows a+1 .. b in the arrays cols(a, b), through a %-template of one row."""
    for a in range(lo, hi, _BLOCK):
        b = min(a + _BLOCK, hi)
        block = np.column_stack([np.arange(a + 1, b + 1), *cols(a, b)])
        yield (template + "\n") * (b - a) % tuple(block.ravel().tolist())


def _trace_csv(run):
    yield TRACE_HEADER + "\n"
    yield from _csv_rows(",".join(["%d"] * (len(TRACE_COLUMNS) + 1)),
                         lambda a, b: [getattr(run, name)[a:b] for name in TRACE_COLUMNS],
                         0, run.n_steps)


def _components_csv(run):
    """The full-record run's component table; columns made per block keep the memory small."""
    ends = np.fromiter([0, *run.close_t], np.int64)  # 0, then the close times
    cum = np.fromiter([0, *run.close_e], np.int64)  # the cumulative edge counts at each
    def cols(a, b):
        t, e = ends[a : b + 1], np.diff(cum[a : b + 1])
        v = np.diff(t)
        return [t[:-1], t[1:], v, e, 1 + (run.config.r - 1) * e - v]  # n(C) = 1 + (r-1) e(C) - |C|
    yield COMPONENTS_HEADER + "\n"
    yield from _csv_rows("%d,%d,%d,%d,%d,%d", cols, 0, len(ends) - 1)


def _doob_csv(dt, gap):
    """Rows t <= t1 carry Shat, later rows leave it empty; "%.17g" writes mc.fmt17's bytes."""
    cols = [dt.D, dt.Delta, dt.Dstar, dt.DeltaStar, dt.S, dt.Xtilde]
    yield DOOB_HEADER + "\n"
    yield from _csv_rows("%d" + ",%.17g" * 7, lambda a, b: [c[a:b] for c in cols + [dt.Shat]],
                         0, dt.t1)
    yield from _csv_rows("%d" + ",%.17g" * 6 + ",", lambda a, b: [c[a:b] for c in cols],
                         dt.t1, dt.n_steps)
    yield (f"# V1={fmt17(dt.V1)} V2={fmt17(dt.V2)} V12={fmt17(dt.V12)} "
           f"lindeberg1={fmt17(dt.lindeberg1)} lindeberg2={fmt17(dt.lindeberg2)} c1={fmt17(gap)}\n")


def cmd_run(args) -> int:
    _require(args, "n", "r", "seed")
    p = _resolve_p(args)
    stop, margin = _parse_stop(args)
    omega = args.omega if args.omega is not None else DEFAULT_OMEGA
    _checked(check_omega, omega)
    eps = _eps_of(args, p)
    t0 = int(math.floor(omega * math.sqrt(args.n / eps))) if eps > 0 else None
    if stop == "giant":
        if t0 is None:
            raise UsageError("stop rule 'giant' needs a supercritical cell")
        if margin is None:
            margin = 2 * t0
    cfg = _checked(
        ExplorationConfig, n=args.n, r=args.r, p=p, seed=args.seed,
        mode=args.mode or "implicit", stop_rule=stop,
        margin=margin or 0, census_t0=t0 if stop == "giant" else None,
    )
    trace = explore(cfg)
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
        t1 = int(math.floor(rho_r(args.r, 1.0 + eps) * args.n)) if eps > 0 else 0
        t1 = min(t1, trace.n_steps)
        seq = drift_sequences(args.n, args.r, p, t1)
        dt = decompose(trace, seq, t1=t1)
        sections.append(("doob.csv", _doob_csv(dt, approx_gap(trace, dt))))
    _emit(args.out, sections)
    return 0


def cmd_mc(args) -> int:
    _require(args, "n", "r", "seed", "replicates")
    p = _resolve_p(args)
    eps = _eps_of(args, p)
    stop, margin = _parse_stop(args) if args.stop else (("giant", None) if eps > 0 else ("full", 0))
    if stop == "giant" and eps <= 0:
        raise UsageError("stop rule 'giant' needs a supercritical cell")
    # replicates run on derived seeds, so any --seed is valid here
    _checked(ExplorationConfig, n=args.n, r=args.r, p=p, seed=0, mode=args.mode or "implicit")
    spec = CellSpec(n=args.n, r=args.r, p=p, mode=args.mode or "implicit",
                    stop=stop, margin=margin if stop == "giant" else None)
    collect = ("census", "windows") if eps > 0 else ("census",)
    plan = _checked(ExperimentPlan, cells=(spec,), replicates=args.replicates,
                    master_seed=args.seed,
                    omega=args.omega if args.omega is not None else DEFAULT_OMEGA,
                    collect=collect)
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
    if args.kind not in ("sub", "super"):
        raise UsageError(f"--kind must be sub or super, got {args.kind!r}")
    workers = _checked(resolve_workers, args.threads)
    if args.l_grid:
        grid = _parse_list(args.l_grid, int, "--L-grid")
    else:
        grid = tail_grid(args.eps)
    _check_r(args)
    _checked(tail_p, args.kind, args.n, args.r, args.eps)
    if args.kind == "sub":
        rep = tail_subcritical(args.n, args.r, args.eps, grid, args.replicates,
                               args.seed, workers=workers, c_bound=args.bound_c)
    else:
        omega_grid = _parse_list(args.omega_grid, float, "--omega-grid")
        rep = tail_supercritical(args.n, args.r, args.eps, omega_grid, grid,
                                 args.replicates, args.seed, workers=workers,
                                 c_bound=args.bound_c)
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
    if not 0.0 <= args.p <= 1.0:
        raise UsageError(f"--p must lie in [0, 1], got {args.p}")
    if args.step:
        explored = _parse_list(args.explored, int, "--explored")
        active = _parse_list(args.active, int, "--active")
        law = enumerate_step(args.n, args.r, args.p, explored, active)
        out = {
            "n": args.n, "r": args.r, "p": args.p, "t": law.t, "v": law.v,
            "support": [list(k) for k in law.support],
            "probability": [float(q) for q in law.probability],
            "moments": law.moments(),
        }
    else:
        dist = enumerate_all(args.n, args.r, args.p)
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
