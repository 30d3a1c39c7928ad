"""Smoke tests of the benchmark worker: one inversion job, untraced and
traced, one closed-loop sweep lane, untraced and traced, and the study.

They run ``perfbench/worker.py`` the way ``perfbench/run.py`` does, so a
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


def run_worker(spec):
    """The worker's result line; asserts it ran and every operation passed."""
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
    return result


@pytest.mark.parametrize("trace", [False, True])
def test_inversion_worker_passes_paper_move(tmp_path, trace):
    result = run_worker({"root": str(ROOT), "out": str(tmp_path),
                         "workload": "inversion", "job": 0, "trace": trace,
                         "replay": True, "move": None})
    assert result["accuracy"]["ff_replay_err_m"] <= 1e-3
    if trace:
        assert result["missing"] == []
        assert result["layers"]["bvp.equilibrium_calls"] == 1


def test_sweep_worker_passes_one_c1_lane(tmp_path):
    # The closed-loop path: the scenario keys a lane writes, the controller
    # state, strict control and the one-argument integrate_closed_loop.
    lane = {"mode": "C1", "params": "simulated", "kappa2": 50.0, "q": 2.0}
    result = run_worker({"root": str(ROOT), "out": str(tmp_path),
                         "workload": "sweep", "job": 0, "trace": False,
                         "replay": False, "lanes": [lane]})
    assert [op["name"] for op in result["ops"]] == ["C1-simulated"]


def test_traced_sweep_lane_sees_the_feedback_layers(tmp_path):
    # The per-layer trace patches the feedback law, the reference and the
    # bounded internal reference where the closed loop looks them up.  The
    # lane evaluates each at least once per step; one it bypassed would
    # count only the worker's set-up calls.
    lane = {"mode": "C1", "params": "simulated", "kappa2": 50.0, "q": 2.0}
    result = run_worker({"root": str(ROOT), "out": str(tmp_path),
                         "workload": "sweep", "job": 0, "trace": True,
                         "replay": False, "lanes": [lane]})
    assert result["missing"] == []
    layers = result["layers"]
    assert layers["simulate.steps"] > 0
    for name in ("funnel.control_calls", "funnel.reference_calls",
                 "funnel.eta_ref_calls"):
        assert layers[name] >= layers["simulate.steps"], name


def test_study_worker_passes(tmp_path):
    # The study path: compare with its forked C2 lane, the inversion
    # captured in this process for the replay, and the report digest.
    result = run_worker({"root": str(ROOT), "out": str(tmp_path),
                         "workload": "study", "job": 0, "trace": False,
                         "replay": True})
    assert result["accuracy"]["ff_replay_err_m"] <= 1e-3
    assert result["digest"] == "73f7605073430a02"
