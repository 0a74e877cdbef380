"""The three benchmark workloads.

Each workload is a closed-loop batch job: `run` makes one call into hxplore
and the next call starts when it returns.  Every call of a run repeats the
same seed-derived inputs, so the outputs of all calls must be identical and
the correctness checks see one sample per seed.

* clt_cell    -- `mc.run_cell` at the bivariate-CLT cell (n = 3e5, r = 3,
                 eps = 0.15, giant stop, census only) on two fork-pool
                 workers: the implicit step loop at record 'none' and the
                 vectorised binomial sampler do nearly all the work.
* tiny_oracle -- the exact L1 law by enumeration at (5, 3, 0.15) and
                 (7, 2, 0.2), Monte Carlo cells at both in implicit and
                 explicit mode (runs of at most 7 steps, so the fixed cost
                 of a run, mc dispatch and the explicit engine dominate),
                 and a chi-square test of each cell against the exact law.
* trace_doob  -- `hxplore run --n 300000 --r 3 --lambda 1.15 --doob` through
                 `cli.main` in this process: a full-record trace, the Doob
                 replay and about 47 MB of CSV.
"""

from __future__ import annotations

import hashlib
import math
import os
import warnings
from dataclasses import dataclass, field

from hxplore import cli, mc, oracle, stats, theory

# Tiny supercritical cells sit inside the critical window by design; the
# warning that says so is expected here.
warnings.filterwarnings("ignore", message=".*inside the critical window.*")

WORKERS = 2
CLT_CELL = dict(n=300_000, r=3, eps=0.15)
TINY_CASES = ((5, 3, 0.15), (7, 2, 0.2))
TINY_MODES = ("implicit", "explicit")
CLI_N, CLI_R, CLI_LAMBDA = 300_000, 3, 1.15
TRACE_SUFFIXES = ("trace.csv", "components.csv", "doob.csv")


def clt_spec_plan(replicates: int, seed: int):
    spec = mc.CellSpec(n=CLT_CELL["n"], r=CLT_CELL["r"], eps=CLT_CELL["eps"], stop="giant")
    plan = mc.ExperimentPlan(cells=(spec,), replicates=replicates, master_seed=seed,
                             omega=4.0, collect=("census",))
    return spec, plan


def tiny_cells(replicates: int, seed: int) -> list:
    """(cell_index, (n, r, p), mode, spec, plan) for every tiny cell."""
    out = []
    for ci, (n, r, p) in enumerate(TINY_CASES):
        for mode in TINY_MODES:
            spec = mc.CellSpec(n=n, r=r, p=p, mode=mode, stop="full")
            plan = mc.ExperimentPlan(cells=(spec,), replicates=replicates, master_seed=seed,
                                     collect=("census", "l1law"))
            out.append((2 * ci + (mode == "explicit"), (n, r, p), mode, spec, plan))
    return out


def cli_argv(seed: int, prefix: str) -> list:
    return ["run", "--n", str(CLI_N), "--r", str(CLI_R), "--lambda", str(CLI_LAMBDA),
            "--seed", str(seed), "--doob", "--out", prefix]


def check_cli_outputs(prefix: str, n: int, eps: float) -> tuple:
    """Checks on the files of one `hxplore run --doob`; returns
    (list of (name, passed), digest of the three files, V1 as written)."""
    blobs = {}
    for suffix in TRACE_SUFFIXES:
        with open(f"{prefix}.{suffix}", "rb") as fh:
            blobs[suffix] = fh.read()
    trace = blobs["trace.csv"]
    last = trace.rstrip(b"\n").rsplit(b"\n", 1)[1].split(b",")
    steps, last_x = int(last[0]), int(last[8])
    comp_rows = blobs["components.csv"].rstrip(b"\n").split(b"\n")[1:]
    vertices = sum(int(row.split(b",")[3]) for row in comp_rows)
    tail = blobs["doob.csv"].rstrip(b"\n").rsplit(b"\n", 1)[1].decode()
    v1 = float(dict(kv.split("=") for kv in tail.lstrip("# ").split())["V1"])
    v1_ratio = v1 / (2.0 * eps * n)
    checks = [
        ("trace rows = steps + 1", trace.count(b"\n") == steps + 1),
        ("component vertices sum to n", vertices == n),
        ("last X = -(component count)", last_x == -len(comp_rows)),
        ("V1 / 2 eps n in [0.9, 1.1]", 0.9 <= v1_ratio <= 1.1),
    ]
    digest = hashlib.sha256(b"".join(blobs[s] for s in TRACE_SUFFIXES)).hexdigest()
    return checks, digest, v1


def cli_eps() -> float:
    """eps exactly as `hxplore run` derives it from --lambda."""
    p = theory.p_from_lambda(CLI_N, CLI_R, CLI_LAMBDA)
    return p * float(CLI_N) ** (CLI_R - 1) / math.factorial(CLI_R - 2) - 1.0


@dataclass
class State:
    workdir: str
    inputs: dict
    reference: dict = field(default_factory=dict)  # outputs of the first call


class CltCell:
    name = "clt_cell"
    workers = WORKERS
    replicates = 24

    def setup(self, seed: int, workdir: str) -> State:
        spec, plan = clt_spec_plan(self.replicates, seed)
        targets = theory.clt_targets(CLT_CELL["n"], CLT_CELL["r"], CLT_CELL["eps"])
        return State(workdir, dict(spec=spec, plan=plan, targets=targets))

    def run(self, st: State, tr):
        with tr.span("mc.run_cell"):
            res = mc.run_cell(st.inputs["spec"], st.inputs["plan"], workers=self.workers)
        with tr.span("mc.format_cell_row"):
            row = mc.format_cell_row(res)
        return res, row

    def check(self, st: State, out) -> list:
        res, row = out
        biv, tg, R = res.aggregate.biv, st.inputs["targets"], res.aggregate.count
        st.reference.setdefault("row", row)
        return [
            ("mean L1 within 5 SE of target",
             abs(biv.mean_x - tg.mean_L1) <= 5.0 * math.sqrt(biv.var_x / R)),
            ("mean N1 within 5 SE of target",
             abs(biv.mean_y - tg.mean_N1) <= 5.0 * math.sqrt(biv.var_y / R)),
            ("format_cell_row identical across repeats", row == st.reference["row"]),
        ]


class TinyOracle:
    name = "tiny_oracle"
    workers = WORKERS
    replicates = 2000  # per cell; four cells per call

    def setup(self, seed: int, workdir: str) -> State:
        return State(workdir, dict(cells=tiny_cells(self.replicates, seed)))

    def run(self, st: State, tr):
        laws, pvalues = {}, {}
        for case in TINY_CASES:
            with tr.span("oracle.enumerate_all"):
                laws[case] = oracle.enumerate_all(*case, workers=self.workers)
        for ci, case, mode, spec, plan in st.inputs["cells"]:
            with tr.span("mc.run_cell"):
                res = mc.run_cell(spec, plan, cell_index=ci, workers=self.workers)
            with tr.span("stats.chi_square_gof"):
                _, _, pv = stats.chi_square_gof(res.aggregate.l1_counts, laws[case].l1_marginal())
            pvalues[(case, mode)] = pv
        return laws, pvalues

    def check(self, st: State, out) -> list:
        laws, pvalues = out
        checks = [(f"exact law {case} sums to 1", abs(float(law.probability.sum()) - 1.0) < 1e-9)
                  for case, law in laws.items()]
        checks += [(f"{case} {mode} chi-square p > 0.001", pv > 0.001)
                   for (case, mode), pv in pvalues.items()]
        return checks


class TraceDoob:
    name = "trace_doob"
    workers = 0
    replicates = 1

    def setup(self, seed: int, workdir: str) -> State:
        prefix = os.path.join(workdir, "run")
        return State(workdir, dict(argv=cli_argv(seed, prefix), prefix=prefix, eps=cli_eps()))

    def run(self, st: State, tr):
        with tr.span("cli.main"):
            return cli.main(st.inputs["argv"])

    def check(self, st: State, rc) -> list:
        if rc != 0:
            return [("cli exit code 0", False)]
        checks, digest, _ = check_cli_outputs(st.inputs["prefix"], CLI_N, st.inputs["eps"])
        st.reference.setdefault("digest", digest)
        return [("cli exit code 0", True)] + checks + [
            ("output files identical across repeats", digest == st.reference["digest"]),
        ]


WORKLOADS = {w.name: w for w in (CltCell(), TinyOracle(), TraceDoob())}
