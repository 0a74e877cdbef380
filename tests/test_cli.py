import importlib
import json
import math
import os
import time
import tracemalloc
import warnings

import pytest

from hxplore import cli
from hxplore.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_theory_json_values(capsys):
    code, out, _ = _run(capsys, ["theory", "--r", "3", "--lambda", "2"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["rho_lambda"] - 0.796812) < 1e-5
    assert abs(doc["lambda_star"] - 0.406376) < 1e-5
    assert abs(doc["rho_r"] - (1 - math.sqrt(1 - doc["rho_lambda"]))) < 1e-12


def test_theory_with_targets(capsys):
    code, out, _ = _run(capsys, ["theory", "--r", "3", "--eps", "0.15", "--n", "300000"])
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["clt_targets"]["sd_L1"] - 2000.0) < 1e-9
    assert abs(doc["clt_targets"]["corr"] - math.sqrt(0.6)) < 1e-12


def test_theory_at_a_large_lambda(capsys):
    # rho_lambda lies within an ulp of 1 from lambda near 36.4 up to the 700 guard
    code, out, _ = _run(capsys, ["theory", "--r", "3", "--lambda", "36.5"])
    assert code == 0
    assert 0.0 < json.loads(out)["rho_lambda"] <= 1.0


def test_theory_near_one_and_at_large_lambda(capsys):
    code, out, _ = _run(capsys, ["theory", "--r", "3", "--eps", "1e-8"])
    assert code == 0
    assert abs(json.loads(out)["lambda_star"] - 0.99999999) < 1e-15
    code, out, _ = _run(capsys, ["theory", "--r", "3", "--lambda", "300"])
    assert code == 0 and json.loads(out)["lambda_star"] > 0.0
    # 1 - rho_lambda rounds to 0 at lambda = 40, yet rho_r stays below 1 and mean_L1 below n
    code, out, _ = _run(capsys, ["theory", "--r", "10", "--lambda", "40", "--n", "2000"])
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["rho_r"] - 0.988256) < 1e-6
    assert doc["clt_targets"]["mean_L1"] < 2000.0


def test_theory_usage_conflicts(capsys):
    code, _, err = _run(capsys, ["theory", "--r", "3", "--lambda", "2", "--eps", "0.1"])
    assert code == 2 and "usage-error" in err
    code, _, err = _run(capsys, ["theory", "--r", "3"])
    assert code == 2


def test_run_isolated_vertex_component_row(capsys):
    code, out, _ = _run(capsys, ["run", "--n", "1", "--r", "3", "--p", "0.1", "--seed", "7"])
    assert code == 0
    trace_part, comp_part = out.split("\n\n")
    assert comp_part.splitlines()[0] == "index,t_start,t_end,vertices,edges,nullity"
    assert comp_part.splitlines()[1] == "1,0,1,1,0,0"
    assert trace_part.splitlines()[0] == "t,edges,eta,xi,zeta,nullity_inc,A,C,X,new_component"


def test_run_writes_files(tmp_path, capsys):
    prefix = str(tmp_path / "out")
    code, _, _ = _run(capsys, [
        "run", "--n", "50", "--r", "3", "--lambda", "1.2", "--seed", "3",
        "--doob", "--out", prefix,
    ])
    assert code == 0
    trace = (tmp_path / "out.trace.csv").read_text()
    comps = (tmp_path / "out.components.csv").read_text()
    doob = (tmp_path / "out.doob.csv").read_text()
    assert trace.splitlines()[0] == "t,edges,eta,xi,zeta,nullity_inc,A,C,X,new_component"
    assert len(trace.splitlines()) == 51
    assert comps.splitlines()[0] == "index,t_start,t_end,vertices,edges,nullity"
    assert doob.splitlines()[0] == "t,D,Delta,Dstar,DeltaStar,S,Xtilde,Shat"
    assert doob.splitlines()[-1].startswith("# V1=")


def _writer_peak(tmp_path, monkeypatch) -> tuple:
    """(this process's traced peak while `run --doob` at n = 1e5 writes its files, once
    the Doob replay is done; the bytes written)."""
    real_gap = cli.approx_gap

    def gap_then_trace(*args):
        gap = real_gap(*args)
        tracemalloc.start()
        return gap

    monkeypatch.setattr(cli, "approx_gap", gap_then_trace)
    try:
        code = main(["run", "--n", "100000", "--r", "3", "--lambda", "1.15", "--seed", "1",
                     "--doob", "--out", str(tmp_path / "big")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak, sum(f.stat().st_size for f in tmp_path.iterdir())


def test_run_writer_memory_is_bounded(tmp_path, monkeypatch):
    """On one worker, writing all three files holds less than a quarter of the
    bytes written; a whole-file string alone would hold all of them."""
    monkeypatch.setenv("HXPLORE_MAX_WORKERS", "1")
    peak, written = _writer_peak(tmp_path, monkeypatch)
    assert peak < 0.25 * written, (peak, written)


def test_run_writer_memory_is_bounded_at_the_default_count(tmp_path, monkeypatch):
    """The same bound for this process when a forked child writes the Doob file."""
    monkeypatch.delenv("HXPLORE_MAX_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the fork happens on one CPU too
    peak, written = _writer_peak(tmp_path, monkeypatch)
    assert peak < 0.25 * written, (peak, written)


_SMALL_RUN = ["run", "--n", "300", "--r", "3", "--lambda", "1.4", "--seed", "6", "--doob"]


@pytest.mark.parametrize("worker_cap, to_file, forks", [
    (None, True, 1), ("1", True, 0), (None, False, 0),
])
def test_run_forks_only_to_write_its_last_file(capsys, monkeypatch, tmp_path,
                                               worker_cap, to_file, forks):
    # on two CPUs, `run --out` forks one child, which writes the second half of every
    # table's rows; one worker, or stdout, writes everything in this process
    if worker_cap is None:
        monkeypatch.delenv("HXPLORE_MAX_WORKERS", raising=False)
    else:
        monkeypatch.setenv("HXPLORE_MAX_WORKERS", worker_cap)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    calls = []
    real_fork = os.fork

    def counted_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    argv = _SMALL_RUN + (["--out", str(tmp_path / "run")] if to_file else [])
    code, out, err = _run(capsys, argv)
    assert (code, err, len(calls)) == (0, "", forks)
    assert bool(out) != to_file


def test_run_tables_split_alike_on_every_cpu_count(capsys, monkeypatch, tmp_path):
    # components.csv has a single row here, so most shares of it are empty, yet its header
    # and the Doob trailer are each written once
    monkeypatch.delenv("HXPLORE_MAX_WORKERS", raising=False)
    argv = ["run", "--n", "6", "--r", "2", "--eps", "0.5", "--seed", "7", "--stop", "giant",
            "--doob", "--out"]
    outputs = []
    for cpus in (1, 2, 3, 5):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        out = tmp_path / f"cpus-{cpus}"
        out.mkdir()
        code, _, err = _run(capsys, argv + [str(out / "run")])
        assert (code, err) == (0, "")
        assert sorted(f.name for f in out.iterdir()) == [
            "run.components.csv", "run.doob.csv", "run.trace.csv"]
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert outputs[0]["run.components.csv"].count(b"\n") == 2
    assert outputs[0]["run.doob.csv"].count(b"# V1=") == 1
    assert all(files == outputs[0] for files in outputs[1:])


def test_run_write_error_is_reported_at_every_worker_count(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    (tmp_path / "run.doob.csv").mkdir()  # opening the last file for writing fails
    errors = []
    for cap in ("1", "2"):
        monkeypatch.setenv("HXPLORE_MAX_WORKERS", cap)
        code, _, err = _run(capsys, _SMALL_RUN + ["--out", str(tmp_path / "run")])
        assert code == 3 and err.startswith("error: IsADirectoryError:"), err
        errors.append(err)
        with pytest.raises(ChildProcessError):  # no child is left behind
            os.waitpid(-1, os.WNOHANG)
    assert errors[0] == errors[1]


def test_mc_deterministic_across_invocations_and_threads(tmp_path, capsys):
    base = ["mc", "--n", "20000", "--r", "3", "--eps", "0.2",
            "--replicates", "12", "--seed", "42"]
    outs = []
    for tag, threads in (("a", "1"), ("b", "2"), ("c", "1")):
        prefix = str(tmp_path / tag)
        code, _, _ = _run(capsys, base + ["--threads", threads, "--out", prefix])
        assert code == 0
        outs.append(((tmp_path / f"{tag}.cells.csv").read_bytes(),
                     (tmp_path / f"{tag}.report.json").read_bytes()))
    assert outs[0] == outs[1] == outs[2]


def test_mc_stdout_sections(capsys):
    code, out, _ = _run(capsys, ["mc", "--n", "20000", "--r", "3", "--eps", "0.2",
                                 "--replicates", "5", "--seed", "1"])
    assert code == 0
    csv_part = out.split("\n\n")[0]
    header = csv_part.splitlines()[0]
    assert header == ("cell,n,r,eps,R,mean_L1,var_L1,mean_N1,var_N1,cov,corr,"
                      "z1_mean,z1_var,z2_mean,z2_var,ks_z1,ks_z2")


def test_mc_corr_verdict_is_criterion_5s_closed_band(tmp_path, capsys, monkeypatch):
    # with corr in [0.5, 1), the band CLT_CORR -+ 0.5 with CLT_CORR = corr - 0.5 has
    # corr exactly on its upper edge, which criterion 5's closed band accepts
    from hxplore import acceptance

    argv = ["mc", "--n", "20000", "--r", "3", "--eps", "0.2", "--replicates", "12", "--seed", "1",
            "--out", str(tmp_path / "m")]
    assert _run(capsys, argv)[0] == 0
    corr = json.loads((tmp_path / "m.report.json").read_text())[0]["summary"]["corr"]
    assert 0.5 <= corr < 1.0
    monkeypatch.setattr(acceptance, "CLT_CORR", corr - 0.5)
    monkeypatch.setattr(acceptance, "CLT_CORR_TOL", 0.5)
    assert _run(capsys, argv)[0] == 0
    verdicts = json.loads((tmp_path / "m.report.json").read_text())[0]["verdicts"]
    assert verdicts["corr_within_0.5_of_sqrt35"] is True


def test_tails_csv_schema(tmp_path, capsys):
    prefix = str(tmp_path / "t")
    code, _, _ = _run(capsys, [
        "tails", "--kind", "sub", "--n", "2000", "--r", "3", "--eps", "0.3",
        "--replicates", "60", "--seed", "9", "--L-grid", "10,20", "--out", prefix,
    ])
    assert code == 0
    lines = (tmp_path / "t.tails.csv").read_text().splitlines()
    assert lines[0] == "L,exceed_count,R,p_hat,wilson_lo,wilson_hi,bound"
    assert len(lines) == 3
    rep = json.loads((tmp_path / "t.report.json").read_text())
    assert rep["kind"] == "subcritical"


def test_tails_super_omega_rows(tmp_path, capsys):
    prefix = str(tmp_path / "s")
    code, _, _ = _run(capsys, [
        "tails", "--kind", "super", "--n", "20000", "--r", "3", "--eps", "0.2",
        "--replicates", "80", "--seed", "9", "--L-grid", "50,100",
        "--omega-grid", "2,3", "--out", prefix,
    ])
    assert code == 0
    rep = json.loads((tmp_path / "s.report.json").read_text())
    assert rep["kind"] == "supercritical"
    freqs = [row["freq"] for row in rep["omega_rows"]]
    assert freqs == sorted(freqs, reverse=True)


def test_oracle_subcommand(capsys):
    code, out, _ = _run(capsys, ["oracle", "--n", "3", "--r", "2", "--p", "0.5"])
    assert code == 0
    doc = json.loads(out)
    got = {tuple(k): v for k, v in zip(doc["support"], doc["probability"])}
    assert abs(got[(3, 1, 0)] + got[(3, 0, 0)] + got.get((3, 2, 0), 0) + got.get((3, 3, 0), 0)
               - 0.5) < 1e-12


def test_oracle_step_subcommand(capsys):
    code, out, _ = _run(capsys, ["oracle", "--n", "8", "--r", "3", "--p", "0.1", "--step"])
    assert code == 0
    doc = json.loads(out)
    assert abs(sum(doc["probability"]) - 1.0) < 1e-10
    assert doc["t"] == 1 and doc["v"] == 0


def test_run_json_format(capsys):
    code, out, _ = _run(capsys, ["run", "--n", "1", "--r", "3", "--p", "0.1",
                                 "--seed", "7", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["components"] == [
        {"index": 1, "t_start": 0, "t_end": 1, "vertices": 1, "edges": 0, "nullity": 0}
    ]
    assert len(doc["trace"]) == 1 and doc["complete"]


def test_usage_error_exit_code(capsys):
    code, _, err = _run(capsys, ["run", "--n", "10", "--r", "3", "--seed", "1"])
    assert code == 2 and "usage-error" in err
    code, _, err = _run(capsys, ["theory", "--r", "3", "--lambda", "2", "--format", "csv"])
    assert code == 2


def test_runtime_error_exit_code(capsys, tmp_path):
    # a valid run whose trace, stopped at margin 0, ends before the Doob sums' t1 horizon
    code, _, err = _run(capsys, ["run", "--n", "2000", "--r", "3", "--lambda", "1.3", "--seed", "3",
                                 "--stop", "giant:0", "--doob", "--out", str(tmp_path / "P")])
    assert code == 3 and err.startswith("error: RuntimeError: replicate too short"), err


@pytest.mark.parametrize("argv", [
    ["run", "--n", "2000", "--r", "3", "--lambda", "1.3", "--seed", "1", "--doob"],
    ["mc", "--n", "2000", "--r", "3", "--lambda", "1.3", "--seed", "1", "--replicates", "2"],
])
def test_memory_error_exit_code(monkeypatch, capsys, tmp_path, argv):
    # the drift table of a huge traced cell does not fit in memory
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr(importlib.import_module("hxplore.mc"), "drift_sequences", out_of_memory)
    code, _, err = _run(capsys, [*argv, "--out", str(tmp_path / "M")])
    assert code == 3
    assert err == "error: MemoryError: Unable to allocate 7.45 GiB for an array\n"


def test_argparse_usage_exit_code(capsys):
    assert main(["frobnicate"]) == 2


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 3, "lambda": 2.0}))
    code, out, _ = _run(capsys, ["theory", "--config", str(cfg)])
    assert code == 0
    assert abs(json.loads(out)["lambda"] - 2.0) < 1e-15
    # explicit flag wins over the config file
    code, out, _ = _run(capsys, ["theory", "--config", str(cfg), "--lambda", "1.5"])
    assert abs(json.loads(out)["lambda"] - 1.5) < 1e-15


def test_verify_subset(capsys):
    code, out, _ = _run(capsys, ["verify", "--criteria", "1,2", "--threads", "2"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("criterion")]
    assert len(lines) == 2 and all("[PASS]" in l for l in lines)


@pytest.mark.parametrize("argv,worker_cap", [
    (["verify", "--criteria", "1,x"], None),
    (["verify", "--criteria", "99"], None),
    (["verify", "--criteria", "1"], "two"),
    (["run", "--n", "2000", "--r", "3", "--lambda", "1.3", "--seed", "1", "--stop", "giant:abc"], None),
    (["run", "--n", "2000", "--r", "3", "--lambda", "1.3", "--seed", "1", "--stop", "giant:-5"], None),
    (["theory", "--config", '{"r": 3,'], None),
    (["tails", "--kind", "sub", "--n", "2000", "--r", "3", "--eps", "0.3", "--replicates", "10",
      "--seed", "1", "--L-grid", "1,x"], None),
    (["tails", "--kind", "super", "--n", "2000", "--r", "3", "--eps", "0.3", "--replicates", "10",
      "--seed", "1", "--omega-grid", "2,x"], None),
    (["mc", "--n", "2000", "--r", "3", "--eps", "0.3", "--replicates", "0", "--seed", "1"], None),
    (["tails", "--kind", "sub", "--n", "2000", "--r", "3", "--eps", "0.3", "--replicates", "0",
      "--seed", "1", "--L-grid", "1,2"], None),
    (["oracle", "--n", "5", "--r", "3", "--p", "0.1", "--step", "--explored", "1,x"], None),
    # values the exploration or the tail experiments reject, caught before any run starts
    (["run", "--n", "100", "--r", "12", "--p", "0.1", "--seed", "1"], None),
    (["run", "--n", "100", "--r", "3", "--p", "0.5", "--seed", "1"], None),
    (["tails", "--kind", "sub", "--n", "2000", "--r", "3", "--eps", "2", "--replicates", "10",
      "--seed", "1"], None),
    (["mc", "--n", "2000", "--r", "12", "--eps", "0.3", "--replicates", "4", "--seed", "1"], None),
    (["mc", "--n", "2000", "--r", "3", "--eps", "0.3", "--replicates", "4", "--seed", "1",
      "--omega", "0"], None),
    (["mc", "--n", "2000", "--r", "3", "--eps", "0.3", "--replicates", "4", "--seed", "1",
      "--omega", "nan"], None),
    (["mc", "--n", "2000", "--r", "3", "--eps", "0.3", "--replicates", "4", "--seed", "1",
      "--omega", "-1"], None),
    (["oracle", "--n", "4", "--r", "2", "--p", "1.5"], None),
    (["oracle", "--n", "4", "--r", "2", "--p", "-0.1", "--step"], None),
    (["theory", "--r", "3", "--lambda", "0.5"], None),
    (["run", "--n", "100", "--r", "3", "--lambda", "1.2", "--seed", "-1"], None),
    (["theory", "--r", "3", "--lambda", "1.5", "--n", "0"], None),
    (["run", "--n", "100", "--r", "3", "--lambda", "1.2", "--seed", "1", "--omega", "nan"], None),
    (["run", "--n", "100", "--r", "3", "--lambda", "1.2", "--seed", "1", "--omega", "0"], None),
    *[([cmd, "--n", "100", "--r", r, "--lambda", "1.2", "--seed", "1", *extra], None)
      for cmd, extra in (("run", []), ("mc", ["--replicates", "2"])) for r in ("0", "1")],
    *[(["tails", "--kind", "super", "--n", "100", "--r", r, "--eps", "0.2", "--seed", "1",
        "--replicates", "2"], None) for r in ("0", "1")],
    # the drift sequences reject (n, r, p): caught before the exploration or any replicate runs
    (["mc", "--n", "3", "--r", "3", "--lambda", "3", "--seed", "1", "--replicates", "2"], None),
    (["run", "--n", "2", "--r", "3", "--lambda", "1.5", "--seed", "1", "--doob"], None),
    (["run", "--n", "3", "--r", "3", "--lambda", "3", "--seed", "1", "--doob"], None),
    # n = 0 reached p_from_lambda's division; eps = 0 and nan reached the default L grid
    (["run", "--n", "0", "--r", "3", "--lambda", "1.2", "--seed", "1"], None),
    (["mc", "--n", "0", "--r", "3", "--lambda", "1.2", "--seed", "1", "--replicates", "2"], None),
    (["tails", "--kind", "sub", "--n", "0", "--r", "3", "--eps", "0.3", "--seed", "1",
      "--replicates", "2"], None),
    (["tails", "--kind", "sub", "--n", "100", "--r", "3", "--eps", "0", "--seed", "1",
      "--replicates", "2"], None),
    (["tails", "--kind", "sub", "--n", "100", "--r", "3", "--eps", "nan", "--seed", "1",
      "--replicates", "2"], None),
    # the oracles' own argument checks
    (["oracle", "--n", "5", "--r", "1", "--p", "0.1"], None),
    (["oracle", "--n", "5", "--r", "1", "--p", "0.1", "--step"], None),
    # vertex ids outside range(n), and a prefix that leaves no vertex to step
    *[(["oracle", "--n", "5", "--r", "3", "--p", "0.1", "--step", *extra], None)
      for extra in (["--active", "9"], ["--active", "-1"], ["--explored", "7"],
                    ["--explored", "0,1,2,3,4"])],
    # --config values that the flag's own parser rejects
    *[(["run", "--r", "3", "--lambda", "1.2", "--seed", "1", "--config", cfg], None)
      for cfg in ('{"n": 50.5}', '{"n": "x"}', '{"n": true}', '{"n": null}', '{"n": [50]}')],
    *[(["run", "--n", "50", "--r", "3", "--seed", "1", "--config", cfg], None)
      for cfg in ('{"lambda": "1.2x"}', '{"doob": "yes"}', '{"doob": 1}', '{"mode": "lazy"}')],
    *[(["oracle", "--n", "5", "--r", "3", "--p", "0.1", "--config", cfg], None)
      for cfg in ('{"step": "true"}', '{"step": true, "explored": [0]}')],
    *[(["tails", "--kind", "sub", "--n", "100", "--r", "3", "--eps", "0.3", "--seed", "1",
        "--replicates", "2", "--config", cfg], None)
      for cfg in ('{"bound-c": "x"}', '{"omega-grid": [2, 3]}', '{"kind": "foo"}')],
    # the full-law oracle's size guard: binom(9, 2) = 36 exceeds the enumeration limit
    (["oracle", "--n", "9", "--r", "2", "--p", "0.1"], None),
    # lambda_from_p rejects r = 1 before mc picks the cell's stop rule
    (["mc", "--n", "100", "--r", "1", "--p", "0.1", "--seed", "1", "--replicates", "2"], None),
    # omegas that are not finite and positive: a NaN in report.json, a row counting every run
    *[(["tails", "--kind", "super", "--n", "30", "--r", "3", "--eps", "0.5", "--seed", "1",
        "--replicates", "2", "--omega-grid", grid], None) for grid in ("nan,-1", "2,-1")],
    # worker counts and caps below 1, which ran on one worker
    *[(["mc", "--n", "200", "--r", "3", "--lambda", "0.8", "--seed", "1", "--replicates", "2",
        "--threads", k], None) for k in ("0", "-4")],
    (["verify", "--criteria", "1", "--threads", "0"], None),
    *[(["verify", "--criteria", "1"], cap) for cap in ("0", "-1")],
    # a cap that run's writer count rejects
    *[(["run", "--n", "100", "--r", "3", "--lambda", "1.2", "--seed", "1"], cap)
      for cap in ("0", "abc")],
])
def test_bad_input_is_a_usage_error(capsys, monkeypatch, tmp_path, argv, worker_cap):
    if worker_cap is not None:
        monkeypatch.setenv("HXPLORE_MAX_WORKERS", worker_cap)
    argv = list(argv)
    for i, a in enumerate(argv):
        if a.startswith("{"):  # the text of a --config file
            (tmp_path / "cfg.json").write_text(a)
            argv[i] = str(tmp_path / "cfg.json")
    code, out, err = _run(capsys, argv)
    assert code == 2 and err.startswith("usage-error:"), err
    assert "criterion" not in out


def test_oversized_step_family_is_rejected_before_it_is_built(capsys):
    for argv in (
        ["--n", "30", "--r", "10", "--p", "1e-5", "--step"],  # binom(29, 9) = 10,015,005 sets
        # binomials of thousands of digits, whose text Python refuses to print
        ["--n", "1000000000", "--r", "100000", "--p", "0.1"],
        ["--n", "1000000000", "--r", "400000", "--p", "0.1", "--step"],
    ):
        start = time.perf_counter()
        code, _, err = _run(capsys, ["oracle", *argv])
        assert code == 2 and err.startswith("usage-error:") and "enumeration limit" in err, err
        assert time.perf_counter() - start < 2.0


def test_only_mc_warns_inside_the_critical_window(capsys):
    window = ["--n", "50", "--r", "3", "--lambda", "1.2", "--seed", "1"]  # eps^3 n = 0.4
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for argv in (["run", *window],
                     ["tails", "--kind", "super", "--n", "100", "--r", "3", "--eps", "0.2",
                      "--seed", "1", "--replicates", "20", "--threads", "1"]):
            code, out, err = _run(capsys, argv)
            assert code == 0 and out and not err
    assert [str(w.message) for w in caught] == []
    with pytest.warns(UserWarning, match="inside the critical window"):
        code, _, _ = _run(capsys, ["mc", *window, "--replicates", "5", "--threads", "1"])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["tails", "--kind", "sub", "--n", "2000", "--r", "3", "--eps", "0.3", "--replicates", "10",
     "--seed", "1", "--mode", "explicit"],
    ["mc", "--n", "2000", "--r", "3", "--eps", "0.3", "--replicates", "3", "--seed", "1",
     "--format", "json"],
    ["verify", "--criteria", "1", "--seed", "5"],
    ["verify", "--criteria", "1", "--out", "X"],
    ["oracle", "--n", "3", "--r", "2", "--p", "0.5", "--seed", "3"],
    ["oracle", "--n", "3", "--r", "2", "--p", "0.5", "--replicates", "9"],
    ["oracle", "--n", "3", "--r", "2", "--p", "0.5", "--threads", "2"],
    ["theory", "--r", "3", "--lambda", "2", "--format", "json"],
])
def test_flag_the_command_does_not_read_is_a_usage_error(capsys, argv):
    code, out, _ = _run(capsys, argv)
    assert code == 2 and not out


def test_config_key_must_name_a_flag_of_the_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 3, "lambda": 2.0, "seed": 5}))
    code, out, err = _run(capsys, ["theory", "--config", str(cfg)])
    assert code == 2 and not out and "'seed' is not a flag of theory" in err
    cfg.write_text(json.dumps({"n": 2000, "r": 3, "eps": 0.3, "seed": 1,
                               "replicates": 20, "L-grid": "5,10"}))
    code, out, _ = _run(capsys, ["tails", "--kind", "sub", "--config", str(cfg)])
    assert code == 0 and len(out.split("\n\n")[0].splitlines()) == 3


@pytest.mark.parametrize("flags,config,same", [
    # each value parsed as on the command line, including the flags that have a parser default
    (["run", "--r", "3", "--seed", "1"], {"n": "50", "lambda": "1.2", "doob": True},
     ["--n", "50", "--lambda", "1.2", "--doob"]),
    (["oracle", "--n", "5", "--r", "3", "--p", "0.1"], {"step": True, "active": "1"},
     ["--step", "--active", "1"]),
    # an explicit flag still wins over the file
    (["oracle", "--n", "5", "--r", "3", "--p", "0.1", "--step", "--active", "2"],
     {"explored": "0", "active": "1"}, ["--explored", "0"]),
    (["run", "--n", "50", "--r", "3", "--lambda", "1.2", "--seed", "1"], {"doob": False}, []),
])
def test_config_values_parse_as_their_flags(tmp_path, capsys, flags, config, same):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = _run(capsys, [*flags, "--config", str(cfg)])
    assert code == 0 and not err
    assert out == _run(capsys, [*flags, *same])[1]


def test_tails_kind_from_config(tmp_path, capsys):
    flags = ["--n", "2000", "--r", "3", "--eps", "0.3", "--seed", "1", "--replicates", "20"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "sub"}))
    code, out, _ = _run(capsys, ["tails", "--config", str(cfg), *flags])
    assert code == 0 and out == _run(capsys, ["tails", "--kind", "sub", *flags])[1]
    cfg.write_text(json.dumps({"kind": "foo"}))
    for argv in (["tails", *flags], ["tails", "--config", str(cfg), *flags]):
        code, out, err = _run(capsys, argv)
        assert code == 2 and not out and err.startswith("usage-error:") and "--kind" in err


@pytest.mark.parametrize("argv", [
    ["mc", "--n", "2000", "--r", "3", "--eps", "0.3", "--replicates", "3"],
    ["tails", "--kind", "sub", "--n", "2000", "--r", "3", "--eps", "0.3", "--replicates", "10",
     "--L-grid", "5,10"],
])
def test_negative_master_seed_is_accepted(capsys, argv):
    # mc and tails run on seeds derived from the master seed, which may be negative
    code, out, err = _run(capsys, argv + ["--seed", "-1"])
    assert code == 0 and out and not err
