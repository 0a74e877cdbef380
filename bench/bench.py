"""Layered benchmark for hxplore.

Run from the root of a source checkout:

    python3 bench/bench.py --workload clt_cell --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
the traced layer pass and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Human-readable lines, the provenance and the failed fraction
come before it, and a full record of the run is written under .bench/.

Workloads run in this one process with at most two fork-pool workers, and
numpy's thread pools are pinned to one thread.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from tracer import Tracer

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench")
WORKLOAD_NAMES = ("clt_cell", "tiny_oracle", "trace_doob")

END_TO_END = (
    ("replicates_per_s", "1/s"),
    ("cpu_s_per_replicate", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
MIN_CALLS = 3
SETUP_PROBES = 11


def _import_workloads():
    """Put the checkout's src/ first on sys.path and import the workloads,
    which import hxplore; exit 2 when the checkout holds no hxplore sources."""
    if not os.path.isfile(os.path.join(SRC, "hxplore", "__init__.py")):
        print(f"bench: no hxplore sources under {SRC}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import workloads  # noqa: PLC0415 -- imports hxplore, after sys.path is set
    return workloads


def _cpu_seconds() -> float:
    """CPU seconds of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _git_revision() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _provenance(args, workload) -> dict:
    import numpy  # noqa: PLC0415 -- already loaded with hxplore
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": _git_revision(),
        "workload": workload.name,
        "seed": args.seed,
        "workers": workload.workers,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Tally:
    """Replicates and checks attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def checks(self, checks) -> None:
        for name, passed in checks:
            self.attempted += 1
            if not passed:
                self.failed += 1
                self.failures.append(name)


def _one_call(workload, st, tr, tally: Tally):
    """One closed-loop call: (wall seconds, cpu seconds) of the call into
    hxplore, then its checks.  A call that raises counts all its replicates
    as failed."""
    tally.attempted += workload.replicates
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        out = workload.run(st, tr)
    except Exception:
        traceback.print_exc()
        tally.failed += workload.replicates
        tally.failures.append(f"{workload.name} call raised")
        return None
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    tally.checks(workload.check(st, out))
    return wall, cpu


def _closed_loop(seconds: float, call, min_calls: int) -> list:
    """Call `call()` back to back, at least `min_calls` times, while the next
    call is expected to end within `seconds`.  Returns the non-None results."""
    results, walls = [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        res = call()
        walls.append(time.perf_counter() - t0)
        if res is not None:
            results.append(res)
        elapsed = time.perf_counter() - t_start
        if len(walls) >= min_calls and elapsed + statistics.median(walls) > seconds:
            return results


def _setup_probe_seconds(args) -> float:
    """Median over SETUP_PROBES fresh interpreters of the time to import
    hxplore and build the workload's inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def setup_probe(args) -> None:
    t0 = time.perf_counter()
    wl = _import_workloads()
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        wl.WORKLOADS[args.workload].setup(args.seed, workdir)
        print(repr(time.perf_counter() - t0))


def run_untraced(args, workload, st, tally) -> dict:
    tr = Tracer(workload.name, enabled=False)
    _one_call(workload, st, tr, tally)  # warm-up; sets the reference outputs
    calls = _closed_loop(args.seconds, lambda: _one_call(workload, st, tr, tally), MIN_CALLS)
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workload.workers else 0
    if not calls:
        raise RuntimeError("every timed call failed")
    walls = sorted(w for w, _ in calls)
    print(f"{len(walls)} timed calls; wall seconds min {walls[0]!r} median "
          f"{statistics.median(walls)!r} max {walls[-1]!r}")
    return {
        "replicates_per_s": statistics.median(workload.replicates / w for w, _ in calls),
        "cpu_s_per_replicate": statistics.median(c / workload.replicates for _, c in calls),
        # peak RSS of this process plus the largest worker's, once per worker
        "peak_rss_mb": (own_kb + workload.workers * worker_kb) / 1024.0,
        "setup_s": _setup_probe_seconds(args),
    }


def run_traced(args, workload, st, tally, layers) -> dict:
    tr = Tracer(workload.name)
    off = Tracer(workload.name, enabled=False)
    _one_call(workload, st, off, tally)  # warm-up; sets the reference outputs
    t_start = time.perf_counter()
    metrics, checks = layers.layer_pass(args.seed, tr, st.workdir)
    tally.checks(checks)
    counts = dict(tr.counts)  # the layer pass alone: exact for a seed

    orders = itertools.cycle([(False, True), (True, False)])

    def pair():
        """One untraced and one traced call, in alternating order."""
        out = {}
        for traced in next(orders):
            if traced:
                with tr.span("bench.call"):
                    out[traced] = _one_call(workload, st, tr, tally)
            else:
                out[traced] = _one_call(workload, st, off, tally)
        return None if None in out.values() else (out[False][0], out[True][0])

    pairs = _closed_loop(args.seconds - (time.perf_counter() - t_start), pair, 1)
    plain = statistics.median(p for p, _ in pairs)
    traced = statistics.median(t for _, t in pairs)
    metrics["trace.overhead_s"] = traced - plain
    metrics["trace.overhead_frac"] = (traced - plain) / plain
    self_s = tr.self_seconds()
    metrics["trace.unattributed_s"] = self_s.pop("bench")
    metrics.update({f"self_s.{layer}": sec for layer, sec in self_s.items()})
    metrics.update({name: counts.get(name, 0) for name in layers.COUNTS})
    tr.write(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.json"))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args)
        return 0
    wl = _import_workloads()
    workload = wl.WORKLOADS[args.workload]
    provenance = _provenance(args, workload)
    os.makedirs(OUT_DIR, exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        st = workload.setup(args.seed, workdir)
        if args.trace:
            import layers  # noqa: PLC0415 -- imports hxplore; only the traced run needs it
            values = run_traced(args, workload, st, tally, layers)
            declared = layers.PER_LAYER
        else:
            values = run_untraced(args, workload, st, tally)
            declared = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared}
    failed_frac = tally.failed / tally.attempted
    record = {"provenance": provenance, "metrics": metrics, "failed_frac": failed_frac,
              "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures}
    with open(os.path.join(OUT_DIR, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2)

    print("provenance " + json.dumps(provenance))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']!r} {m['unit']}")
    print(f"{'failed_frac':36s} {failed_frac!r} fraction")
    for name in tally.failures:
        print(f"FAILED: {name}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
