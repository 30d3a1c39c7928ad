"""Benchmark of the servofunnel study, inversion and design-sweep jobs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload study|inversion|sweep \
        --seed N --seconds S --trace 0|1

Every timed job runs in a fresh interpreter (``worker.py``), one after the
other, so nothing cached in one job (the module-level BVP cache, say) makes
the next look faster.  Inputs are drawn here from ``--seed`` and handed to
the jobs.  The run prints its environment, the inputs it drew, one line per
job and per failed operation, the metrics under their descriptive names
(``study_s``, ``invert_s``, ``sweep_lanes_per_s``, ``fail_frac`` ...), and
as its last line one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass plus the tracing overhead against an untraced pass of the same jobs.
The end-to-end times are rescaled to a reference machine speed sampled
inside each job (``speed.py``); the raw wall times are printed beside them.
See ``perfbench/README.md`` for what each metric means per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fresh interpreters timed to ready before the jobs, besides the jobs' own.
SETUP_RUNS = 3

#: A job that has not ended after this many seconds fails the run.
JOB_TIMEOUT = 150.0

#: Every job sees the same BLAS threading on every commit.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


def draw_inputs(workload, seed, job):
    """Inputs of job ``job``: the same seed always gives the same inputs."""
    rng = random.Random(f"{workload}-{seed}-{job}")
    if workload == "inversion":
        if job == 0:
            return {"move": None}
        return {"move": {"r_end": [rng.uniform(0.80, 0.95), rng.uniform(-0.95, -0.80)],
                         "t_end": rng.uniform(0.9, 1.2)}}
    if workload == "sweep":
        return {"lanes": [{"mode": mode, "params": params,
                           "kappa2": rng.uniform(30.0, 80.0), "q": rng.uniform(1.5, 2.5)}
                          for mode in ("C1", "C2")
                          for params in ("simulated", "reference")]}
    return {}


def describe_inputs(workload, inputs):
    if workload == "study":
        return "scenarios/default.cfg as shipped (the seed is ignored)"
    if workload == "inversion":
        move = inputs["move"]
        if move is None:
            return "paper move r_end = (0.9, -0.9) m, t_end = 1.0 s"
        return (f"move r_end = ({move['r_end'][0]:.6f}, {move['r_end'][1]:.6f}) m,"
                f" t_end = {move['t_end']:.6f} s")
    return "; ".join(f"{lane['mode']}-{lane['params']} kappa2 = {lane['kappa2']:.6f}"
                     f" q = {lane['q']:.6f}" for lane in inputs["lanes"])


def run_job(spec, env, log):
    """Run one worker; returns its result with ``setup_s`` and ``proc_s``.

    ``setup_s`` is the time to ``ready`` rescaled by the speed the worker
    sampled while it set up (see ``speed.py``); ``setup_raw_s`` is as timed.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, env=env,
                            cwd=ROOT, text=True)
    watchdog = threading.Timer(JOB_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    ended = time.perf_counter()
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or proc.returncode != 0 or not lines:
        raise BenchError(f"job {spec['workload']}/{spec['job']} exited with code "
                         f"{proc.returncode}; see {log.name}")
    result = json.loads(lines[-1])
    result["setup_raw_s"] = ready - started
    result["setup_s"] = (ready - started) * result["setup_scale"]
    result["proc_s"] = ended - started
    return result


def run_jobs(workload, seed, budget, trace, base, env, log):
    """Jobs in sequence until the next would overrun ``budget`` seconds."""
    results = []
    started = time.perf_counter()
    while True:
        if results:
            # Job 0 also replays the paper move, so it is not typical.
            typical = statistics.median(r["proc_s"] for r in results[1:] or results)
            if time.perf_counter() - started + typical > budget:
                return results
        job = len(results)
        inputs = draw_inputs(workload, seed, job)
        out = os.path.join(base["out"], f"{'traced' if trace else 'plain'}-{job}")
        os.makedirs(out)
        spec = dict(base, out=out, workload=workload, job=job, trace=trace,
                    replay=job == 0, **inputs)
        result = run_job(spec, env, log)
        result["inputs"] = describe_inputs(workload, inputs)
        results.append(result)
        failed = [op for op in result["ops"] if op["error"] or op["check"]]
        print(f"job {job}{' (traced)' if trace else ''}: {result['inputs']}; "
              f"timed {result['job_s']:.4f} s rescaled ({result['wall_s']:.4f} s raw), "
              f"ready after {result['setup_s']:.4f} s ({result['setup_raw_s']:.4f} s raw), "
              f"{len(result['ops']) - len(failed)}/{len(result['ops'])} operations passed")
        for op in failed:
            kind = f"raised {op['error']}" if op["error"] else f"failed check: {op['check']}"
            print(f"  {op['name']}: {kind}")


def summary(values):
    values = sorted(values)
    return (f"median {statistics.median(values):.6g} (min {values[0]:.6g}, "
            f"max {values[-1]:.6g}, n = {len(values)})")


def report(workload, jobs, setup):
    """Print this workload's metrics by name; return the JSON ones."""
    ops = [op for r in jobs for op in r["ops"]]
    failed = [op for op in ops if op["error"] or op["check"]]
    by_type = {}
    for op in failed:
        kind = op["error"].split(":", 1)[0] if op["error"] else "check"
        by_type[kind] = by_type.get(kind, 0) + 1
    walls = [r["job_s"] for r in jobs]
    rss = [r["rss_mb"] for r in jobs]
    accuracy = jobs[0]["accuracy"]

    print(f"setup_s: {summary(setup)} s")
    name = {"study": "study_s", "inversion": "invert_s", "sweep": "sweep_s"}[workload]
    print(f"{name}: {summary(walls)} s rescaled to the reference speed; "
          f"raw wall {summary([r['wall_s'] for r in jobs])} s")
    if workload == "sweep":
        passed = sum(1 for op in ops if not (op["error"] or op["check"]))
        print(f"sweep_lanes_per_s: {passed / sum(walls):.6g} 1/s "
              f"({passed} lanes passed in {sum(walls):.4f} s)")
        lanes = [op for op in ops if op["error"] is None]
        print(f"max_drift: {max((op['drift'] for op in lanes), default=0.0):.6g} m")
    if workload == "inversion":
        solved = [r["accuracy"] for r in jobs if r["accuracy"]]
        iterations = sorted(a["newton_iters"] for a in solved)
        print(f"inversion residual: max {max((a['residual'] for a in solved), default=0.0):.6g}"
              f" over {len(solved)} solved moves; Newton iterations {iterations}")
    print(f"fail_frac: {len(failed) / len(ops):.6g} ({len(failed)} of {len(ops)} "
          f"operations; by type {json.dumps(by_type, sort_keys=True)})")
    print(f"peak_rss_mb: {summary(rss)} MB")
    units = {"c1_final_ee_err_m": "m", "c1_c2_out_ratio_max": "1",
             "c2_min_margin": "1", "max_drift": "m", "ff_replay_err_m": "m"}
    for key, unit in units.items():
        if key in accuracy:
            print(f"{key}: {accuracy[key]:.10g} {unit}")
    if workload == "study":
        digests = sorted({r["digest"] for r in jobs})
        print(f"study digest (sha256 of report.txt, first 16 hex): {', '.join(digests)}")
        for line in jobs[0]["report"]:
            print(f"  {line}")

    return {
        "setup_s": statistics.median(setup),
        "job_s": statistics.median(walls),
        "pass_frac": 1.0 - len(failed) / len(ops),
        "peak_rss_mb": statistics.median(rss),
        **{k: v for k, v in accuracy.items() if k == "ff_replay_err_m"},
    }


def layer_report(untraced, traced):
    """Median per-layer metrics over the traced jobs, plus the overhead."""
    keys = traced[0]["layers"]
    layers = {key: statistics.median(r["layers"][key] for r in traced) for key in keys}
    plain = statistics.median(r["job_s"] for r in untraced)
    layers["trace.overhead_frac"] = statistics.median(r["job_s"] for r in traced) / plain - 1.0
    missing = sorted({m for r in traced for m in r["missing"]})
    if missing:
        print(f"trace: not found, so not measured: {', '.join(missing)}")
    print(f"trace: untraced job median {plain:.4f} s, overhead "
          f"{layers['trace.overhead_frac']:+.4f} of it")
    for key, value in layers.items():
        print(f"{key}: {value:.6g}")
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("study", "inversion", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for need in (os.path.join("src", "servofunnel", "__init__.py"),
                 os.path.join("scenarios", "default.cfg")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found under {ROOT}", file=sys.stderr)
            return 2

    out = os.path.join(HERE, "_out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    env = dict(os.environ, **BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    base = {"root": ROOT, "out": out}
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")

    with open(os.path.join(out, "stderr.log"), "w") as log:
        try:
            setup = [run_job(dict(base, workload="setup", job=i, trace=False, replay=False),
                             env, log)
                     for i in range(SETUP_RUNS)]
            versions = setup[0]["versions"]
            print(f"env: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
                  f"python={versions['python']} numpy={versions['numpy']} "
                  f"scipy={versions['scipy']} "
                  + " ".join(f"{k}={env[k]}" for k in sorted(BLAS_THREADS)))
            if args.trace:
                half = args.seconds / 2.0
                untraced = run_jobs(args.workload, args.seed, half, False, base, env, log)
                traced = run_jobs(args.workload, args.seed, half, True, base, env, log)
                jobs = untraced + traced
            else:
                jobs = run_jobs(args.workload, args.seed, args.seconds, False, base, env, log)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1

    plain = untraced if args.trace else jobs
    end_to_end = report(args.workload, plain, [r["setup_s"] for r in setup + plain])
    ops = [op for r in jobs for op in r["ops"]]
    failed = sum(1 for op in ops if op["error"] or op["check"])
    correct = all(op["check"] is None for op in ops)
    if args.workload == "study":
        correct = correct and len({r["digest"] for r in jobs}) == 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    values = layer_report(untraced, traced) if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
