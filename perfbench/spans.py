"""Span recording around the library's layer boundaries, from outside.

``install`` replaces functions at the module attribute through which their
callers look them up (``simulate.solve_linear``, ``funnel.psi``,
``robot.mass_matrix``, ``funnel.ReferenceSignal.__call__`` ...) with
wrappers that record one span per call: a name, start, end, the enclosing
span and the job (run) id.  Spans stay in flat in-memory arrays while the
job runs; ``layer_metrics`` reduces them to the per-layer metrics and
``save`` writes them out when the job ends.  No library source changes.
"""

from __future__ import annotations

import math
import time
from array import array

import numpy as np

#: Functions of ``robot`` whose calls count as robot-layer work.  Each takes
#: ``params`` first and a batched array second, whose leading dimensions
#: give the rows of the call.
ROBOT_FUNCTIONS = (
    "mass_matrix", "generalized_forces", "loop_closure",
    "loop_closure_jacobian", "loop_closure_jacobian_dot", "input_map",
    "output", "output_jacobian", "end_effector", "output_from_end_effector",
)


class Tracer:
    """Flat span store plus the counters measured at the same boundaries."""

    def __init__(self, run_id=0):
        self.active = False
        self.run_id = run_id
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("H")
        self._stack = []
        self.robot_rows = 0
        self.csv_rows = 0
        self.newton_iters = 0
        self.u_oddeven = []
        # span index -> (accepted steps, steps capped by max_step)
        self.completed_lanes = {}
        self.missing = []

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, on_call=None, on_result=None):
        """Return ``fn`` recording a span named ``name`` on every call.

        ``on_call(args)`` runs before the call, ``on_result(span, result,
        args)`` after a call that returned.  Both run only while tracing.
        """
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.run.append(tracer.run_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            if on_call is not None:
                on_call(args)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.start[span] = t0
                tracer.end[span] = t1
            if on_result is not None:
                on_result(span, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, **hooks):
        """Wrap ``owner.attr`` in place; a missing attribute is recorded."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, fn, **hooks))

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.uint16),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, np.int32),
                 run=np.frombuffer(self.run, np.uint16))


def odd_even_amplitude(u):
    """Amplitude of the node-to-node alternating component of ``u``.

    A pure ``(-1)^k a`` sequence has fourth differences of magnitude
    ``16 a``; a smooth input contributes only ``h^4`` times its fourth
    derivative, so the curvature of the transition does not read as a
    grid mode.
    """
    u = np.asarray(u, dtype=float)
    return float(np.abs(np.diff(u, n=4, axis=0)).max() / 16.0)


def install(tracer):
    """Wrap every layer boundary the per-layer metrics are measured at."""
    from servofunnel import bvp, cli, funnel, internal, model, robot, simulate

    def count_rows(args):
        tracer.robot_rows += math.prod(np.shape(args[1])[:-1])

    for fn in ROBOT_FUNCTIONS:
        tracer.patch(robot, fn, "robot", on_call=count_rows)

    for owner in (simulate, bvp, internal):
        tracer.patch(owner, "solve_linear", "linalg.solve")
    for owner in (bvp, internal, model):
        tracer.patch(owner, "fd_jacobian", "linalg.fd_jac")
    for owner in (model, simulate, cli):
        tracer.patch(owner, "get_model", "model.get_model")

    def on_solution(span, sol, args):
        tracer.newton_iters += int(sol.newton_iterations)
        tracer.u_oddeven.append(odd_even_amplitude(sol.u))

    tracer.patch(bvp, "solve_bvp", "bvp.solve", on_result=on_solution)
    tracer.patch(bvp, "equilibrium", "bvp.equilibrium")

    feedforward = bvp.feedforward
    bvp.feedforward = lambda *a, **k: tracer.wrap("bvp.ff_eval", feedforward(*a, **k))
    reference_internal = funnel.reference_internal
    funnel.reference_internal = lambda *a, **k: tracer.wrap(
        "funnel.eta_ref", reference_internal(*a, **k))

    closed_loop = simulate.integrate_closed_loop

    def integrate_closed_loop(scn, *args, **kwargs):
        def on_result(span, result, _):
            ts = result[0]
            steps = np.diff(ts.t)
            capped = int(np.count_nonzero(steps >= scn.max_step * (1.0 - 1e-9)))
            tracer.completed_lanes[span] = (int(steps.size), capped)
        return tracer.wrap(f"simulate.closed_loop.{scn.mode}", closed_loop,
                           on_result=on_result)(scn, *args, **kwargs)

    simulate.integrate_closed_loop = integrate_closed_loop
    tracer.patch(simulate, "index1_accelerations", "simulate.saddle")

    tracer.patch(funnel, "control", "funnel.control")
    tracer.patch(funnel.ReferenceSignal, "__call__", "funnel.reference")
    tracer.patch(funnel, "psi", "internal.psi")
    tracer.patch(internal, "psi", "internal.psi")
    tracer.patch(internal, "linearize", "internal.linearize")

    def count_csv(args):
        tracer.csv_rows += int(np.size(args[0].t))

    tracer.patch(simulate.TimeSeries, "write_csv", "cli.write", on_call=count_csv)
    tracer.patch(simulate.ComparisonReport, "as_text", "cli.write")


def layer_metrics(tracer):
    """Per-layer totals of one job, keyed by the benchmark's metric names."""
    names = tracer.names
    nid = np.frombuffer(tracer.name, np.uint16).astype(np.intp)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    parent = np.frombuffer(tracer.parent, np.int32).astype(np.intp)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    self_time = dur - child
    k = len(names)
    total = np.bincount(nid, weights=dur, minlength=k)
    own = np.bincount(nid, weights=self_time, minlength=k)
    calls = np.bincount(nid, minlength=k)

    def idx(name):
        return names.index(name) if name in names else None

    def tot(name):
        i = idx(name)
        return float(total[i]) if i is not None else 0.0

    def selft(name):
        i = idx(name)
        return float(own[i]) if i is not None else 0.0

    def cnt(name):
        i = idx(name)
        return int(calls[i]) if i is not None else 0

    steps = sum(s for s, _ in tracer.completed_lanes.values())
    capped = sum(c for _, c in tracer.completed_lanes.values())
    saddle = idx("simulate.saddle")
    saddle_in_lanes = 0
    if saddle is not None and tracer.completed_lanes:
        lanes = np.fromiter(tracer.completed_lanes, dtype=np.intp)
        saddle_in_lanes = int(np.count_nonzero(
            np.isin(parent[nid == saddle], lanes)))
    robot_calls = cnt("robot")
    return {
        "bvp.solve_s": tot("bvp.solve"),
        "bvp.solves": cnt("bvp.solve"),
        "bvp.guess_s": tot("bvp.equilibrium"),
        "bvp.equilibrium_calls": cnt("bvp.equilibrium"),
        "bvp.newton_s": tot("bvp.solve") - tot("bvp.equilibrium"),
        "bvp.newton_iters": tracer.newton_iters,
        "bvp.u_oddeven": max(tracer.u_oddeven, default=0.0),
        "bvp.ff_eval_s": tot("bvp.ff_eval"),
        "bvp.ff_calls": cnt("bvp.ff_eval"),
        "simulate.closed_loop_s.C1": tot("simulate.closed_loop.C1"),
        "simulate.closed_loop_s.C2": tot("simulate.closed_loop.C2"),
        "simulate.closed_loop_s.C3": tot("simulate.closed_loop.C3"),
        "simulate.steps": steps,
        "simulate.capped_share": capped / steps if steps else 0.0,
        "simulate.saddle_per_step": saddle_in_lanes / steps if steps else 0.0,
        "simulate.saddle_s": tot("simulate.saddle"),
        "simulate.saddle_self_s": selft("simulate.saddle"),
        "simulate.saddle_calls": cnt("simulate.saddle"),
        "funnel.control_s": tot("funnel.control"),
        "funnel.control_self_s": selft("funnel.control"),
        "funnel.control_calls": cnt("funnel.control"),
        "funnel.reference_s": tot("funnel.reference"),
        "funnel.reference_calls": cnt("funnel.reference"),
        "funnel.eta_ref_s": tot("funnel.eta_ref"),
        "funnel.eta_ref_calls": cnt("funnel.eta_ref"),
        "internal.psi_s": tot("internal.psi"),
        "internal.psi_calls": cnt("internal.psi"),
        "internal.linearize_s": tot("internal.linearize"),
        "robot.s": selft("robot"),
        "robot.calls": robot_calls,
        "robot.rows_per_call": tracer.robot_rows / robot_calls if robot_calls else 0.0,
        "linalg.solve_s": tot("linalg.solve"),
        "linalg.solve_calls": cnt("linalg.solve"),
        "linalg.fd_jac_s": tot("linalg.fd_jac"),
        "linalg.fd_jac_calls": cnt("linalg.fd_jac"),
        "model.get_model_calls": cnt("model.get_model"),
        "cli.write_s": tot("cli.write"),
        "cli.csv_rows": tracer.csv_rows,
        "trace.spans": int(dur.size),
    }
