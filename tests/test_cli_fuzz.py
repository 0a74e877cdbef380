"""CLI fuzz gate: every argument vector drawn from the README's flag table exits 0
(a valid run) or 2 (a usage error), with no traceback on stderr, within a few seconds.

The vectors come from a seeded generator: per command, each flag it reads is given
or left out at random, and the given flags take small valid values, up to two of them
a boundary value instead (0, -1, nan, inf, r from 0 to 11, n < r, malformed grids and
lists).  Sizes stay tiny (n <= 30, at most 2 replicates) so that the whole gate runs
in seconds on one worker.

One runtime fault is reachable from valid input: a giant stop with a small margin
can end a trace before the t1 horizon that the Doob sums and the window events
need, and the run fails as its Monte Carlo replicate would.  That exit 3 is accepted
with exactly its message.

A shorter leg runs `run --doob --out` vectors on two workers, where a forked child
writes the second half of every table's rows, and checks that they write the bytes of
one worker.
"""

import os
import random
import time
from pathlib import Path

import pytest

from hxplore.cli import main

CASES_PER_COMMAND = 250
FORKED_WRITER_CASES = 50
SECONDS_PER_CASE = 5.0
T1_FAULT = "replicate too short for the t1 horizon"

# each flag's valid values, then its boundary values (None: a switch, given bare)
_VALUES = {
    "n": (["4", "5", "6", "8", "12", "30"], ["0", "-1", "1", "2", "3", "9"]),
    "r": (["2", "3", "4"], ["0", "1", "5", "10", "11"]),
    "eps": (["0.2", "0.5", "1"], ["0", "-1", "nan", "inf", "-inf", "1e-3", "3"]),
    "lambda": (["0.5", "1.2", "1.5", "3"], ["0", "-1", "1", "nan", "inf", "-inf", "1e-3"]),
    "p": (["0.05", "0.1", "0.2"], ["0", "1", "-1", "1.5", "nan", "inf", "1e-5"]),
    "seed": (["0", "1", "7"], ["-1", str(2**64)]),
    "replicates": (["1", "2"], ["-1", "0"]),
    "out": (["o"], []),  # a file prefix in the test's working directory
    "format": (["csv", "json"], []),
    "threads": (["1", "2"], ["-1", "0"]),
    "mode": (["implicit", "explicit"], []),
    "omega": (["0.5", "4"], ["0", "-1", "nan", "inf"]),
    "stop": (["full", "giant", "giant:0", "giant:3", "giant:50"],
             ["giant:-1", "giant:x", "giant:", "foo"]),
    "doob": ([None], []),
    "kind": (["sub", "super"], []),
    "L-grid": (["1", "1,2,5", "3,2"], ["0", "-1", ",", "x", "1,x"]),
    "omega-grid": (["2,3", "1"], ["0", "-1", "nan", ",", "x", "1,"]),
    "bound-c": (["10", "1"], ["0", "-1", "nan", "inf"]),
    "step": ([None], []),
    "explored": (["0", "0,1", "1,3"], ["0,0", "9", "-1", "x", "0,1,2,3,4"]),
    "active": (["2", "2,4"], ["0", "9", "-1", "x", "1,1"]),
    "criteria": ([], ["0", "99", "x", "1,x", "-1"]),  # a valid list would run criteria
}
_ALWAYS = {"criteria"}  # without it, verify runs every criterion
# command -> (flags it reads, the flags most runs give it); --eps, --lambda and --p
# stand for one choice, and each of the other two is added now and then
_COMMANDS = {
    "theory": ("r eps lambda n out", "r eps|lambda"),
    "run": ("n r eps lambda p seed out format mode omega stop doob", "n r eps|lambda|p seed"),
    "mc": ("n r eps lambda p seed replicates out threads mode omega stop",
           "n r eps|lambda|p seed replicates"),
    "tails": ("kind n r eps seed replicates out threads L-grid omega-grid bound-c",
              "kind n r eps seed replicates"),
    "oracle": ("n r p out step explored active", "n r p"),
    "verify": ("criteria threads", "criteria"),
}

_TAILS = ["tails", "--n", "30", "--r", "3", "--eps", "0.5", "--seed", "1", "--replicates", "2"]
_HUGE = str(10**400)  # no float and no int64 holds it
# earlier faults, each once an uncaught exception, an exit 3 or an exit 0 on bad input
EXAMPLES = [
    ["theory", "--r", "3", "--lambda", "1.5", "--n", "0"],
    ["run", "--n", "0", "--r", "3", "--lambda", "1.2", "--seed", "1"],
    ["run", "--n", "100", "--r", "3", "--lambda", "1.2", "--seed", "1", "--omega", "nan"],
    ["mc", "--n", "100", "--r", "1", "--p", "0.1", "--seed", "1", "--replicates", "2"],
    ["mc", "--n", "0", "--r", "3", "--lambda", "1.2", "--seed", "1", "--replicates", "2"],
    [*_TAILS, "--kind", "sub", "--eps", "0"],
    [*_TAILS, "--kind", "sub", "--eps", "nan"],
    [*_TAILS, "--kind", "sub", "--L-grid", "0"],
    [*_TAILS, "--kind", "super", "--L-grid", ","],
    [*_TAILS, "--kind", "super", "--bound-c", "0"],
    ["oracle", "--n", "9", "--r", "2", "--p", "0.1"],
    ["oracle", "--n", "5", "--r", "3", "--p", "0.1", "--step", "--active", "9"],
    ["oracle", "--n", "5", "--r", "3", "--p", "0.1", "--step", "--explored", "0,1,2,3,4"],
    # r >= n - 1 keeps binom(n, r) small while the count costs about n^4, and a step of a
    # billion vertices built range(n) before its family guard
    ["oracle", "--n", "200", "--r", "200", "--p", "0.3"],
    ["oracle", "--step", "--n", "1000000000", "--r", "1000000001", "--p", "0.3"],
    # supercritical cells whose t1 = floor(rho_r n) is 0, so no window events
    ["mc", "--n", "8", "--r", "4", "--lambda", "1.2", "--seed", "1", "--replicates", "2"],
    ["mc", "--n", "5", "--r", "3", "--eps", "0.2", "--seed", "0", "--replicates", "2",
     "--omega", "0.5"],
    # integers past a float or an int64, each once an overflow traceback (exit 1) or exit 3
    ["theory", "--r", "3", "--lambda", "2", "--n", _HUGE],
    ["run", "--n", _HUGE, "--r", "3", "--lambda", "2", "--seed", "1"],
    ["mc", "--n", _HUGE, "--r", "3", "--lambda", "2", "--seed", "1", "--replicates", "2"],
    ["tails", "--kind", "sub", "--n", _HUGE, "--r", "3", "--eps", "0.3", "--seed", "1",
     "--replicates", "2"],
    ["run", "--n", "100000000000000000000", "--r", "3", "--lambda", "1.2", "--seed", "1"],
    ["mc", "--n", "30", "--r", "3", "--lambda", "0.8", "--seed", "1", "--replicates", _HUGE],
    ["tails", "--kind", "sub", "--n", "300", "--r", "3", "--eps", "0.3", "--seed", "1",
     "--replicates", "2", "--L-grid", _HUGE],
]


def _argv(command: str, rnd: random.Random) -> list:
    """A vector of valid values with at most two boundary values among them."""
    flags, usual = (s.split() for s in _COMMANDS[command])
    usual = {rnd.choice(u.split("|")) if "|" in u else u for u in usual}
    given = [f for f in flags if f in _ALWAYS or rnd.random() < (0.95 if f in usual else 0.2)]
    bad = [f for f in given if _VALUES[f][1]]
    bad = set(rnd.sample(bad, min(len(bad), rnd.choice((0, 1, 1, 1, 2)))))
    argv = [command]
    for flag in given:
        good, edge = _VALUES[flag]
        value = rnd.choice(edge if flag in bad or not good else good)
        argv += [f"--{flag}"] if value is None else [f"--{flag}", value]
    return argv


def _check(argv, capsys, want=None) -> str | None:
    """None if argv exits 0 or 2 (or 3 with the t1 fault; or exactly `want` if given)
    without a traceback in time, else what went wrong."""
    start = time.perf_counter()
    code = main(argv)
    seconds = time.perf_counter() - start
    err = capsys.readouterr().err
    if "Traceback" in err:
        return f"traceback: {err}"
    if seconds > SECONDS_PER_CASE:
        return f"took {seconds:.1f} s"
    if code == 2 and not err.startswith("usage-error:") and "usage:" not in err:
        return f"exit 2 without a usage message: {err!r}"
    if err.startswith("usage-error:") and err.count("\n") != 1:
        return f"a usage error of more than one line: {err!r}"
    if code == want or want is None and (code in (0, 2) or code == 3 and T1_FAULT in err):
        return None
    return f"exit {code}: {err!r}"


@pytest.fixture
def one_worker(monkeypatch):
    monkeypatch.setenv("HXPLORE_MAX_WORKERS", "1")


@pytest.mark.filterwarnings("ignore:cell .* inside the critical window")
@pytest.mark.parametrize("argv", EXAMPLES)
def test_earlier_faults_exit_2(argv, capsys, one_worker):
    assert _check(argv, capsys, want=2) is None


@pytest.mark.filterwarnings("ignore:cell .* inside the critical window")
@pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_drawn_arguments_exit_0_or_2(command, capsys, one_worker, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where --out writes
    rnd = random.Random(f"cli-fuzz-{command}")
    failures = []
    for _ in range(CASES_PER_COMMAND):
        argv = _argv(command, rnd)
        problem = _check(argv, capsys)
        if problem is not None:
            failures.append((" ".join(argv), problem))
    assert not failures, "\n".join(f"{a}: {p}" for a, p in failures)


def _doob_argv(rnd: random.Random) -> list:
    """A `run --doob --out o` vector of valid values, so that most vectors reach the
    writers: one of --eps, --lambda and --p, and each optional flag given half the time."""
    flags = ["n", "r", rnd.choice(("eps", "lambda", "p")), "seed",
             *[f for f in ("format", "mode", "omega", "stop") if rnd.random() < 0.5]]
    argv = ["run", "--doob", "--out", "o"]
    for flag in flags:
        argv += [f"--{flag}", rnd.choice(_VALUES[flag][0])]
    return argv


def test_forked_writer_matches_one_worker(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rnd = random.Random("cli-fuzz-forked-writer")
    failures = []
    for case in range(FORKED_WRITER_CASES):
        argv = _doob_argv(rnd)
        written = []
        for cap in ("2", "1"):
            monkeypatch.setenv("HXPLORE_MAX_WORKERS", cap)
            workdir = tmp_path / f"{case}-{cap}"
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            problem = _check(argv, capsys)
            if problem is not None:
                failures.append((" ".join(argv), f"cap {cap}: {problem}"))
            written.append({f.name: f.read_bytes() for f in Path().iterdir()})
        if written[0] != written[1]:
            failures.append((" ".join(argv), f"files differ: {sorted(written[0])}"))
    assert not failures, "\n".join(f"{a}: {p}" for a, p in failures)
