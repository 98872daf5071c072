"""One traced pass of each benchmark workload, so that a renamed function or
a dropped keyword the benchmark relies on fails here, not in the benchmark."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "layerbench" / "worker.py"


@pytest.mark.parametrize("workload", ["p11-atlas7", "reduce-atlas7", "rc-synth"])
def test_traced_worker_pass(workload, tmp_path):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)  # the worker imports tanglekit from src itself
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "1",
         "--pass-index", "0", "--trace", "1", "--workdir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    assert result["items"] and all(t is not None for _, t in result["items"])
    assert result["absent"] == []
