"""The benchmark's contract with the engine.

``bench/`` imports engine functions by name and traces a fixed list of
spans per workload.  Each workload runs here once, traced, at its toy size
in a subprocess, the way the benchmark runner starts it, so a refactor that
renames an imported function or stops calling a traced one fails here.
"""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["diamond-sweep", "oracle-check", "mc-oracle"])
def test_traced_toy_run(workload, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # arguments: workload, seed, trace, toy, setup only, scratch dir, spawn time
    argv = [sys.executable, str(ROOT / "bench" / "worker.py"), workload,
            "3", "1", "1", "0", str(tmp_path), repr(time.perf_counter())]
    proc = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rec["missing_spans"] == []
    assert rec["failed"] == 0, rec["detail"]
