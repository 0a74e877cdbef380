"""The benchmark's Monte Carlo workloads, run once each through bench/workloads.py
as the benchmark runs them, so that a change to the names they read from
hxplore fails here and not only in a benchmark run."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore:.*inside the critical window")


@pytest.mark.parametrize("workload", [workloads.CltCell(), workloads.TinyOracle()],
                         ids=lambda w: w.name)
def test_workload_checks_pass(tmp_path, workload):
    st = workload.setup(1, str(tmp_path))
    out = workload.run(st, Tracer("test", enabled=False))
    assert [name for name, passed in workload.check(st, out) if not passed] == []
