"""The benchmark's smoke run as a test: every workload's code path, the
verifier and the tracer at the smallest sizes."""

import subprocess
import sys
from pathlib import Path


def test_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.rstrip().endswith("smoke ok")
