"""Digests of ``servofunnel compare`` under each CPU dispatch setting.

numpy's bundled OpenBLAS, numpy's own SIMD loops and glibc's libm each
pick their kernels at run time, and each can be steered for one process
by an environment variable.  This script runs ``compare`` once per
setting, each in its own child process whose environment alone carries
the setting; no machine setting changes.  For each setting it prints the
kernels that setting's child process runs (OpenBLAS's core name, numpy's
enabled dispatch targets and ``GLIBC_TUNABLES``), the sha256 of
``report.txt`` and of the three CSVs, the accepted step counts and the
largest relative move of any report metric against the default setting;
then, per metric, the largest relative move over all settings.  Under the
default setting it also runs ``invert`` and ``validate --model`` for each
registered model, each in a child process of its own, and prints the
sha256 of ``bvp.csv`` and of each ``validate`` stdout.  It also runs
jobs 0-29 of the benchmark's sweep workload for seeds 1 and 139, each
through ``perfbench/worker.py`` with tracing and replay off, on the
inputs and BLAS thread settings of ``perfbench/run.py``; it prints every
lane that fails, with its job and its error or check text, and the
sha256 of all 240 lane outcomes.  Together these are the digests a
change that keeps every output byte must keep.

Run from the repository root:

    python3 scripts/dispatch_digests.py [--scenario scenarios/default.cfg]
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``(label, environment entries)``, the default first.
SETTINGS = (
    ("default", {}),
    ("OPENBLAS_CORETYPE=Haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
    ("OPENBLAS_CORETYPE=Prescott", {"OPENBLAS_CORETYPE": "Prescott"}),
    ('NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL"',
     {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL"}),
    ("GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA",
     {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"}),
)

CSV_NAMES = ("c1.csv", "c2.csv", "c3.csv")

#: The names ``validate --model`` accepts.
MODEL_NAMES = ("robot-reference", "robot-simulated", "two-mass-colocated")

#: Sweep jobs ``range(SWEEP_JOBS)`` of each seed give the lane outcomes.
SWEEP_SEEDS = (1, 139)
SWEEP_JOBS = 30

#: The child process: print the kernels it runs as one JSON line, then run
#: the command line given after ``-c``.  The OpenBLAS core name is read from
#: numpy's bundled OpenBLAS; ``None`` where numpy bundles none.
_CHILD = """\
import ctypes, glob, json, os, sys
import numpy
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
corename = None
for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
    fn = ctypes.CDLL(path).scipy_openblas_get_corename64_
    fn.argtypes, fn.restype = [], ctypes.c_char_p
    corename = fn().decode()
print(json.dumps({"openblas": corename,
                  "numpy": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
                  "glibc": os.environ.get("GLIBC_TUNABLES")}), flush=True)
from servofunnel.cli import run_cli
sys.exit(run_cli(sys.argv[1:]))
"""


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run_child(argv, extra_env):
    """The command line ``argv`` in a child process whose environment adds
    ``extra_env``; returns its kernels and the command's own stdout."""
    env = dict(os.environ, **extra_env)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    child = subprocess.run([sys.executable, "-c", _CHILD, *argv],
                           env=env, check=True, stdout=subprocess.PIPE, text=True)
    kernels, stdout = child.stdout.split("\n", 1)
    return json.loads(kernels), stdout


def run_compare(scenario, extra_env):
    """``compare`` in a child process; returns its kernels, digests and metrics."""
    with tempfile.TemporaryDirectory() as out:
        kernels, _ = _run_child(["compare", "--scenario", scenario, "--out", out],
                                extra_env)
        report = os.path.join(out, "report.txt")
        metrics = {}
        with open(report) as fh:
            for line in fh:
                name, value = line.split(":")
                metrics[name.strip()] = float(value)
        return {"kernels": kernels,
                "report": _sha(report),
                "csv": [_sha(os.path.join(out, name)) for name in CSV_NAMES],
                "metrics": metrics}


def run_invert(scenario):
    """sha256 of the ``bvp.csv`` that ``invert`` writes in a child process."""
    with tempfile.TemporaryDirectory() as out:
        _run_child(["invert", "--scenario", scenario, "--out", out], {})
        return _sha(os.path.join(out, "bvp.csv"))


def run_validate(model_name):
    """sha256 of the stdout of ``validate --model`` in a child process."""
    _, stdout = _run_child(["validate", "--model", model_name], {})
    return hashlib.sha256(stdout.encode()).hexdigest()


def _perfbench_run():
    """``perfbench/run.py``, imported by path, for its draws and settings."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_outcomes():
    """One ``seed S job J lane: outcome`` line per lane of the sweep jobs,
    each job run by ``perfbench/worker.py`` as the benchmark runs it."""
    bench = _perfbench_run()
    env = dict(os.environ, **bench.BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    worker = os.path.join(ROOT, "perfbench", "worker.py")
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SWEEP_SEEDS:
            for job in range(SWEEP_JOBS):
                out = os.path.join(tmp, f"{seed}-{job}")
                os.makedirs(out)
                spec = dict(bench.draw_inputs("sweep", seed, job), root=ROOT, out=out,
                            workload="sweep", job=job, trace=False, replay=False)
                child = subprocess.run([sys.executable, worker, json.dumps(spec)],
                                       env=env, cwd=ROOT, check=True,
                                       stdout=subprocess.PIPE, text=True)
                for op in json.loads(child.stdout.splitlines()[-1])["ops"]:
                    outcome = (f"raised {op['error']}" if op["error"]
                               else f"failed check: {op['check']}" if op["check"]
                               else "passed")
                    lines.append(f"seed {seed} job {job} {op['name']}: {outcome}")
    return lines


def relative_move(value, base):
    if value == base:
        return 0.0
    return abs(value - base) / max(abs(base), abs(value))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default=os.path.join(ROOT, "scenarios", "default.cfg"))
    args = parser.parse_args(argv)

    scenario = os.path.abspath(args.scenario)
    runs = [(label, extra_env, run_compare(scenario, extra_env))
            for label, extra_env in SETTINGS]
    base = runs[0][2]["metrics"]
    for label, extra_env, run in runs:
        moves = {name: relative_move(value, base[name])
                 for name, value in run["metrics"].items()}
        worst = max(moves, key=moves.get)
        steps = "/".join(f"{run['metrics'][f'{m}.step_count']:.0f}"
                         for m in ("C1", "C2", "C3"))
        kernels = run["kernels"]
        print(f"{label}")
        print(f"  kernels: OpenBLAS {kernels['openblas']}; numpy "
              + " ".join(kernels["numpy"]) + f"; GLIBC_TUNABLES {kernels['glibc']}")
        print(f"  report {run['report'][:16]}  csv "
              + " ".join(digest[:16] for digest in run["csv"]) + f"  steps {steps}")
        print(f"  largest move {moves[worst]:.3e}"
              + (f" ({worst})" if moves[worst] else ""))
        if not extra_env:
            print(f"  invert bvp.csv {run_invert(scenario)[:16]}")
            print("  validate " + " ".join(
                f"{name} {run_validate(name)[:16]}" for name in MODEL_NAMES))
            lines = sweep_outcomes()
            failed = [line for line in lines if not line.endswith(": passed")]
            print(f"  sweep lanes: {len(lines) - len(failed)} of {len(lines)} passed")
            for line in failed:
                print(f"    {line}")
            digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
            print(f"  sweep lane outcomes {digest[:16]}")
    print("largest relative move per metric, over the settings:")
    for name in base:
        move, label = max((relative_move(run["metrics"][name], base[name]), label)
                          for label, _, run in runs)
        print(f"  {name}: {move:.3e}" + (f" ({label})" if move else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
