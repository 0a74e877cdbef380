"""Tests of the benchmark itself, kept out of the project's test suite:

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import bench  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore:.*inside the critical window")


def _layer_counts(seed: int) -> dict:
    os.makedirs(bench.OUT_DIR, exist_ok=True)
    tr = Tracer("test")
    with tempfile.TemporaryDirectory(dir=bench.OUT_DIR) as workdir:
        _, checks = layers.layer_pass(seed, tr, workdir)
    assert [name for name, passed in checks if not passed] == []
    return dict(tr.counts)


def test_layer_counts_repeat_bit_for_bit():
    first = _layer_counts(5)
    assert sorted(first) == sorted(layers.COUNTS)
    assert all(first[name] > 0 for name in layers.COUNTS)
    assert _layer_counts(5) == first


def test_benchmark_json_declares_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)


def test_fails_without_program_sources():
    with tempfile.TemporaryDirectory(dir=bench.OUT_DIR) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/bench.py", "--workload", "clt_cell", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0
    assert proc.stdout == ""
