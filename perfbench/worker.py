"""One benchmark job in a fresh interpreter.

Usage (normally started by ``run.py``)::

    python3 perfbench/worker.py '<job spec as JSON>'

The job starts the speed sampler of ``speed.py``, imports the package
from ``<root>/src``, builds what every workload needs (scenario, models,
linearization, bounded internal reference), prints ``ready`` so the parent
can time set-up, runs its timed operation through the library's public
entry points, then checks the results outside the timed region and prints
one JSON line.  Times are reported raw (``wall_s``) and rescaled to the
sampler's reference speed (``job_s``, ``setup_scale``).  An exception
inside an operation is recorded with its type and never aborts the job.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import speed

#: Column layout every study CSV must carry (28 columns).
CSV_HEADER = ("t,q1,q2,q3,q4,q5,v1,v2,v3,v4,v5,y1,y2,yref1,yref2,"
              "uff1,uff2,ufb1,ufb2,u1,u2,lam1,lam2,"
              "ebar_norm,funnel_boundary,g_norm,rapp1,rapp2")

#: Acceptance bounds (test_03, test_04, test_05 and test_09).
RESIDUAL_MAX = 1e-8
REPLAY_MAX = 1e-3
DRIFT_MAX = 1e-6
RATIO_RANGE = (0.3, 0.8)


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


class Job:
    """Set-up state shared by every workload, built before ``ready``."""

    def __init__(self, spec):
        self.spec = spec
        self.root = spec["root"]
        self.out = spec["out"]
        self.cfg = os.path.join(self.root, "scenarios", "default.cfg")
        sys.path.insert(0, os.path.join(self.root, "src"))
        import numpy as np
        import scipy
        import servofunnel
        from servofunnel import bvp, cli, funnel, internal, model, robot, simulate

        package = os.path.realpath(os.path.dirname(servofunnel.__file__))
        if package != os.path.realpath(os.path.join(self.root, "src", "servofunnel")):
            raise SystemExit(f"servofunnel imported from {package}, not from the checkout")
        self.np = np
        self.versions = {"python": sys.version.split()[0],
                         "numpy": np.__version__, "scipy": scipy.__version__}
        self.bvp, self.cli, self.funnel = bvp, cli, funnel
        self.internal, self.model, self.robot, self.simulate = internal, model, robot, simulate

        import spans
        self.spans = spans
        self.tracer = spans.Tracer(run_id=spec["job"])
        if spec["trace"]:
            spans.install(self.tracer)
            self.tracer.active = True

        self.scn = simulate.parse_scenario(self.cfg)
        self.params = robot.RobotParams.reference()
        self.ref = funnel.ReferenceSignal(self.params)
        self.nominal, _ = model.get_model(f"{self.scn.model}-reference")
        model.get_model(f"{self.scn.model}-{self.scn.params}")
        y0 = np.asarray(self.ref(self.ref.t_start)[0], dtype=float)
        yf = np.asarray(self.ref(self.ref.t_end)[0], dtype=float)
        self.lin = internal.linearize(self.params, y0, yf, k1=self.scn.k1,
                                      k2=tuple(self.scn.k2))
        self.eta_ref = funnel.reference_internal(self.lin, self.ref)
        self.eta_ref(0.0)
        self.captured = []
        self.sampler = None

    def timed(self, t0):
        """Raw and speed-rescaled seconds since ``t0`` (see ``speed.py``)."""
        return self.sampler.seconds(t0, time.perf_counter())

    def capture_inversions(self):
        """Keep every BVP solution the timed operation computes, for replay."""
        solve = self.bvp.solve_bvp

        def solve_bvp(*args, **kwargs):
            sol = solve(*args, **kwargs)
            self.captured.append(sol)
            return sol

        self.bvp.solve_bvp = solve_bvp

    # -- checks, run with tracing off -------------------------------------

    def replay_deviation(self, sol):
        """test_03's quantity: open-loop replay of the full feedforward."""
        np = self.np
        u_fn = self.bvp.feedforward(sol)
        x0 = np.concatenate([sol.q[0], sol.v[0]])
        t, qs, _ = self.simulate.integrate_open_loop(
            self.nominal, u_fn, x0, (sol.grid[0], sol.grid[-1]))
        y = self.robot.output(self.params, qs)
        return float(np.abs(y - np.asarray(self.ref(t)[0])).max())

    def margin_violation(self, t, q, v, design):
        """First accepted step at which a funnel margin is not positive."""
        from servofunnel.errors import FunnelViolation

        funnel = self.funnel
        eta_ref0 = float(self.eta_ref(0.0))
        for ti, qi, vi in zip(t, q, v):
            state = funnel.ControllerState(eta2_ref=float(self.eta_ref(ti)),
                                           eta2_ref0=eta_ref0)
            try:
                _, diag = funnel.control(ti, qi, vi, state, self.lin, design,
                                         self.ref, strict=True)
            except FunnelViolation as exc:
                return str(exc)
            if min(diag.margin_e10, diag.margin_e11, diag.margin_e20,
                   diag.margin_ebar) <= 0.0:
                return f"margin not positive at t = {ti:.6f}"
        return None


def _op(name, error=None, check=None, **extra):
    return {"name": name, "error": error, "check": check, **extra}


def run_study(job):
    """One ``servofunnel compare`` on the shipped scenario."""
    out = job.out
    job.capture_inversions()
    stderr = io.StringIO()
    error = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = job.cli.run_cli(["compare", "--scenario", job.cfg, "--out", out])
        except Exception as exc:  # counted as a failed operation
            code, error = None, _error(exc)
    wall, job_s = job.timed(t0)
    job.tracer.active = False
    if code not in (0, None):
        error = f"exit code {code}: {stderr.getvalue().strip()}"

    np = job.np
    report = {}
    report_path = os.path.join(out, "report.txt")
    if os.path.exists(report_path):
        with open(report_path) as fh:
            text = fh.read()
        for line in text.splitlines():
            key, value = line.split(":", 1)
            report[key.strip()] = float(value)
    else:
        text = ""

    ops = []
    design = job.scn.funnel_design
    for mode in ("C1", "C2", "C3"):
        path = os.path.join(out, f"{mode.lower()}.csv")
        if not os.path.exists(path) or f"{mode}.step_count" not in report:
            ops.append(_op(mode, error=error or "no output"))
            continue
        with open(path) as fh:
            header = fh.readline().strip()
        check = None
        if header != CSV_HEADER:
            check = f"CSV header has {len(header.split(','))} columns, not the 28 expected"
        elif not report[f"{mode}.max_constraint_violation"] <= DRIFT_MAX:
            check = f"drift {report[f'{mode}.max_constraint_violation']:.3e} > {DRIFT_MAX}"
        elif mode != "C3":
            data = np.loadtxt(path, delimiter=",", skiprows=1)
            if not report[f"{mode}.min_funnel_margin"] > 0.0:
                check = "minimum funnel margin not positive"
            else:
                check = job.margin_violation(data[:, 0], data[:, 1:6], data[:, 6:11], design)
        ops.append(_op(mode, check=check))

    check = None
    if not report or error:
        ops.append(_op("report", error=error or "no report"))
    else:
        ratios = (report["ratio_output_1"], report["ratio_output_2"])
        if not all(RATIO_RANGE[0] <= r <= RATIO_RANGE[1] for r in ratios):
            check = f"C1/C2 output ratios {ratios} outside {RATIO_RANGE}"
        elif not report["C3.final_ee_error"] > report["C1.final_ee_error"]:
            check = "C3 final tool-tip error not above C1's"
        ops.append(_op("report", check=check))

    accuracy = {}
    if report and not error:
        accuracy = {
            "c1_final_ee_err_m": report["C1.final_ee_error"],
            "c1_c2_out_ratio_max": max(report["ratio_output_1"], report["ratio_output_2"]),
            "c2_min_margin": report["C2.min_funnel_margin"],
            "max_drift": max(report[f"{m}.max_constraint_violation"] for m in ("C1", "C2", "C3")),
        }
    return {"wall_s": wall, "job_s": job_s, "ops": ops, "accuracy": accuracy,
            "digest": hashlib.sha256(text.encode()).hexdigest()[:16],
            "report": text.splitlines()}


def run_inversion(job):
    """One ``solve_bvp`` on the paper's move or on a drawn move."""
    np, spec = job.np, job.spec
    move = spec["move"]
    ref = job.ref if move is None else job.funnel.ReferenceSignal(
        job.params, r_end=tuple(move["r_end"]), t_end=move["t_end"])
    sel = job.bvp.robot_boundary_preset(job.params)
    opts = job.bvp.BvpOptions(t_start=job.scn.bvp_t0, t_end=job.scn.bvp_tf,
                              intervals=job.scn.bvp_n)
    sol, error = None, None
    t0 = time.perf_counter()
    try:
        sol = job.bvp.solve_bvp(job.nominal, ref, sel, opts)
    except Exception as exc:  # counted as a failed operation
        error = _error(exc)
    wall, job_s = job.timed(t0)
    job.tracer.active = False
    name = "paper" if move is None else "move"
    if sol is None:
        return {"wall_s": wall, "job_s": job_s, "ops": [_op(name, error=error)],
                "accuracy": {}}

    check = None
    closure = np.abs(job.nominal.holonomic(sol.q)).max()
    servo = np.abs(job.nominal.output(sol.q) - np.asarray(ref(sol.grid)[0])).max()
    if not sol.final_residual <= RESIDUAL_MAX:
        check = f"residual {sol.final_residual:.3e} > {RESIDUAL_MAX}"
    elif not max(closure, servo) <= RESIDUAL_MAX:
        check = f"closure/servo rows {max(closure, servo):.3e} > {RESIDUAL_MAX}"
    accuracy = {"residual": sol.final_residual, "newton_iters": sol.newton_iterations}
    if move is None:
        job.captured.append(sol)
    return {"wall_s": wall, "job_s": job_s, "ops": [_op(name, check=check)],
            "accuracy": accuracy}


def run_sweep(job):
    """Four closed-loop lanes with drawn funnel designs, one inversion."""
    spec = job.spec
    job.capture_inversions()
    with open(job.cfg) as fh:
        base = fh.read()
    lanes = []
    for i, lane in enumerate(spec["lanes"]):
        path = os.path.join(job.out, f"lane-{i}.cfg")
        with open(path, "w") as fh:
            fh.write(base + f"\nparams = {lane['params']}\nt_end = 1.0\n"
                     f"funnel.2.kappa = {lane['kappa2']!r}\nfunnel.2.q = {lane['q']!r}\n")
        scn = job.simulate.parse_scenario(path)
        scn.mode = lane["mode"]
        lanes.append(scn)

    results = []
    t0 = time.perf_counter()
    for scn in lanes:
        try:
            results.append((job.simulate.integrate_closed_loop(scn), None))
        except Exception as exc:  # counted as a failed operation
            results.append((None, _error(exc)))
    wall, job_s = job.timed(t0)
    job.tracer.active = False

    ops = []
    for scn, lane, (out, error) in zip(lanes, spec["lanes"], results):
        name = f"{lane['mode']}-{lane['params']}"
        if out is None:
            ops.append(_op(name, error=error))
            continue
        ts, metrics = out
        check = None
        if not metrics.max_constraint_violation <= DRIFT_MAX:
            check = f"drift {metrics.max_constraint_violation:.3e} > {DRIFT_MAX}"
        elif not metrics.min_funnel_margin > 0.0:
            check = "minimum funnel margin not positive"
        else:
            check = job.margin_violation(ts.t, ts.q, ts.v, scn.funnel_design)
        ops.append(_op(name, check=check, drift=metrics.max_constraint_violation))
    return {"wall_s": wall, "job_s": job_s, "ops": ops, "accuracy": {}}


WORKLOADS = {"study": run_study, "inversion": run_inversion, "sweep": run_sweep}


def main():
    spec = json.loads(sys.argv[1])
    sampler = speed.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    job = Job(spec)
    job.sampler = sampler
    raw, rescaled = job.timed(t0)
    print("ready", flush=True)
    result = {"job": spec["job"], "versions": job.versions, "setup_scale": rescaled / raw}
    if spec["workload"] in WORKLOADS:
        result.update(WORKLOADS[spec["workload"]](job))
        sampler.stop()
        job.tracer.active = False
        if job.captured and spec["replay"]:
            deviation = job.replay_deviation(job.captured[0])
            result["accuracy"]["ff_replay_err_m"] = deviation
            # The paper move's inversion belongs to the first C1 lane (or is
            # the inversion operation itself); its replay check fails that op.
            owner = next(op for op in result["ops"] if op["name"] in ("paper", "C1")
                         or op["name"].startswith("C1-"))
            if not deviation <= REPLAY_MAX and owner["check"] is None:
                owner["check"] = f"replay deviation {deviation:.3e} > {REPLAY_MAX}"
        if spec["trace"]:
            result["layers"] = job.spans.layer_metrics(job.tracer)
            result["missing"] = job.tracer.missing
            job.tracer.save(os.path.join(job.out, "spans.npz"))
    sampler.stop()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
