"""The benchmark's traced check passes on every workload.

A traced run (`perfbench/run.py --trace 1`) reads incorrect when a
default-seed digest differs from perfbench/expected/digests.json, when
its traced and untraced outputs differ, or when a per-layer counter
reads zero on its home workload, as one whose only caller was bypassed
would. perfbench/ is run as it is, from the repository root, in a
subprocess; each workload takes a few seconds."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert [ln for ln in lines if ln.startswith("# WRONG:")] == []
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(lines[-1])["correct"] is True
