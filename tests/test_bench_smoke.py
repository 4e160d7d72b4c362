"""Smoke test of the benchmark harness: every workload and check at tiny sizes."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tiny_benchmark_runs_and_checks_pass():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--tiny", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
