"""Tests of the benchmark itself: its gate, its counts and its refusal.

Run with ``python3 -m pytest perfbench`` from the repository root.  They
run real workload passes, so they take about two minutes.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def _worker(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         str(trace), str(time.monotonic_ns())],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env=dict(os.environ, PYTHONHASHSEED=str(seed)),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_perturbed_expectation_makes_fail_ratio_nonzero():
    setup, run_pass = workloads.WORKLOADS["chain-order"]
    inputs = setup(0)
    expected = copy.deepcopy(workloads.EXPECTED["chain-order"])
    expected["classical_lefschetz"]["lambda"] += 1
    gate = workloads.Gate(expected)
    run_pass(inputs, gate)
    assert gate.attempted == 2
    assert len(gate.failures) == 1
    assert gate.failures[0].startswith("classical_lefschetz:")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_between_traced_runs(workload):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] != "s"]
    first, second = (_worker(workload, 7, 1) for _ in range(2))
    assert first["failures"] == second["failures"] == []
    for name in counts:
        assert first["layers"].get(name) == second["layers"].get(name), name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
