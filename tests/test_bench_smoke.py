"""Smoke test of the benchmark worker: one inversion job, untraced and traced.

It runs ``perfbench/worker.py`` the way ``perfbench/run.py`` does, so a
change to a name the benchmark calls fails here rather than in a
benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", [False, True])
def test_inversion_worker_passes_paper_move(tmp_path, trace):
    spec = {"root": str(ROOT), "out": str(tmp_path), "workload": "inversion",
            "job": 0, "trace": trace, "replay": True, "move": None}
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), json.dumps(spec)],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    result = json.loads(lines[-1])
    assert result["ops"]
    for op in result["ops"]:
        assert op["error"] is None and op["check"] is None, op
    assert result["accuracy"]["ff_replay_err_m"] <= 1e-3
    if trace:
        assert result["missing"] == []
        assert result["layers"]["bvp.equilibrium_calls"] == 1
