"""Closed-loop simulation of the tracking study.

Integrates the constrained robot as an index-1 system (saddle solve with
Baumgarte stabilization) under one of three controller configurations:
feedforward plus funnel feedback, funnel feedback alone, or feedforward
alone.  An embedded Runge-Kutta 4(5) pair with PI step control produces
the accepted-step time series; metrics and CSV emission close the loop
for the command line driver.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import bvp as bvp_mod
from . import funnel as funnel_mod
from . import internal as internal_mod
from . import robot as robot_mod
from .errors import (
    ConfigError,
    SaddleSingular,
    ServoFunnelError,
    SingularMatrix,
    StepSizeUnderflow,
)
from .linalg import solve_linear
from .model import get_model

#: Integrator defaults: tolerances, step ceiling and underflow floor.
DEFAULT_REL_TOL = 1e-6
DEFAULT_ABS_TOL = 1e-8
DEFAULT_MAX_STEP = 1e-3
MIN_STEP = 1e-12

#: Default Baumgarte stabilization constants (both time constants 0.05 s).
DEFAULT_BAUMGARTE = 20.0

#: Exact column layout of the emitted time-series CSV.
CSV_HEADER = ("t,q1,q2,q3,q4,q5,v1,v2,v3,v4,v5,y1,y2,yref1,yref2,"
              "uff1,uff2,ufb1,ufb2,u1,u2,lam1,lam2,"
              "ebar_norm,funnel_boundary,g_norm,rapp1,rapp2")

_MODES = ("C1", "C2", "C3")


def index1_accelerations(model, q, v, u, baumgarte=(DEFAULT_BAUMGARTE,
                                                    DEFAULT_BAUMGARTE)):
    """Accelerations and multipliers of the index-1 reduced dynamics.

    Solves the saddle system pairing the mass matrix with the constraint
    Jacobian; the constraint row carries Baumgarte feedback so position
    and velocity drift decay instead of accumulating.  Returns
    ``(vdot, lam)``; raises ``SaddleSingular`` when the constraint rows
    lose rank.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    alpha, beta = baumgarte
    n = model.dims.n
    l = model.dims.holonomic

    mass = np.asarray(model.mass_matrix(q), dtype=float)
    jac = np.asarray(model.holonomic_jacobian(q), dtype=float)
    jac_dot = np.asarray(model.holonomic_jacobian_dot(q, v), dtype=float)
    force = (np.asarray(model.forces(q, v), dtype=float)
             + np.asarray(model.input_map(q), dtype=float) @ u)
    closure = np.asarray(model.holonomic(q), dtype=float)

    saddle = np.zeros((n + l, n + l))
    saddle[:n, :n] = mass
    saddle[:n, n:] = -jac.T
    saddle[n:, :n] = jac
    rhs = np.concatenate([
        force,
        -jac_dot @ v - 2.0 * alpha * jac @ v - beta ** 2 * closure,
    ])
    try:
        sol = solve_linear(saddle, rhs)
    except SingularMatrix as exc:
        raise SaddleSingular(f"constraint rows lost rank: {exc}") from exc
    residual = np.abs(saddle @ sol - rhs).max()
    if residual > 1e-10 * max(1.0, np.abs(rhs).max()):
        raise SaddleSingular(f"saddle solve residual {residual:.3e}")
    return sol[:n], sol[n:]


@dataclass
class Scenario:
    """One simulation run: plant selection, controller and solver knobs."""

    model: str = "robot"
    params: str = "simulated"
    mode: str = "C1"
    t_end: float = 2.0
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    max_step: float = DEFAULT_MAX_STEP
    baumgarte_alpha: float = DEFAULT_BAUMGARTE
    baumgarte_beta: float = DEFAULT_BAUMGARTE
    bvp_t0: float = None
    bvp_tf: float = None
    bvp_n: int = 350
    k1: float = -0.1
    k2: tuple = (1.0, 0.01)
    funnel_design: funnel_mod.FunnelDesign = field(
        default_factory=funnel_mod.FunnelDesign.table_defaults)
    out_dir: str = "out"

    def validate(self):
        if self.mode not in _MODES:
            raise ConfigError(f"controller mode must be one of {_MODES}, "
                              f"got {self.mode!r}")
        if self.model != "robot":
            raise ConfigError(f"unknown model {self.model!r}")
        if self.params not in ("reference", "simulated"):
            raise ConfigError(f"unknown parameter preset {self.params!r}")
        if min(self.rel_tol, self.abs_tol, self.max_step) <= 0.0:
            raise ConfigError("integrator tolerances must be positive")
        if self.t_end <= 0.0:
            raise ConfigError("t_end must be positive")
        if len(self.k2) != 2:
            raise ConfigError("K2 needs exactly two entries")


_SCALAR_KEYS = {
    "model": str,
    "params": str,
    "t_end": float,
    "rel_tol": float,
    "abs_tol": float,
    "max_step": float,
    "baumgarte_alpha": float,
    "baumgarte_beta": float,
    "bvp_T0": float,
    "bvp_Tf": float,
    "bvp_N": int,
    "K1": float,
    "out_dir": str,
}

_KEY_TO_FIELD = {
    "bvp_T0": "bvp_t0",
    "bvp_Tf": "bvp_tf",
    "bvp_N": "bvp_n",
    "K1": "k1",
}

_FUNNEL_FIELDS = ("p", "q", "r", "kappa")


def parse_scenario(path):
    """Read a line-based ``key = value`` scenario file.

    Unknown keys, malformed values and a missing file all raise
    ``ConfigError``; funnel entries override the table defaults level by
    level.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc

    scn = Scenario()
    funnel_over = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _SCALAR_KEYS:
            conv = _SCALAR_KEYS[key]
            try:
                parsed = conv(value)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
            setattr(scn, _KEY_TO_FIELD.get(key, key), parsed)
        elif key == "K2":
            parts = [p.strip() for p in value.split(",")]
            try:
                scn.k2 = tuple(float(p) for p in parts)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: bad value for K2: {value!r}") from exc
        elif key.startswith("funnel."):
            parts = key.split(".")
            if (len(parts) != 3 or parts[1] not in ("0", "1", "2")
                    or parts[2] not in _FUNNEL_FIELDS):
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                funnel_over[(int(parts[1]), parts[2])] = float(value)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")

    if funnel_over:
        scn.funnel_design = _apply_funnel_overrides(scn.funnel_design,
                                                    funnel_over)
    scn.validate()
    return scn


def _apply_funnel_overrides(design, overrides):
    levels = []
    kappas = []
    for j, phi in enumerate((design.phi0, design.phi1, design.phi2)):
        p = overrides.get((j, "p"), phi.p)
        qrate = overrides.get((j, "q"), phi.qrate)
        r = overrides.get((j, "r"), phi.r)
        levels.append(funnel_mod.FunnelFunction(p=p, qrate=qrate, r=r))
        kappas.append(overrides.get((j, "kappa"),
                                    getattr(design, f"kappa{j}")))
    return funnel_mod.FunnelDesign(
        phi0=levels[0], phi1=levels[1], phi2=levels[2],
        kappa0=kappas[0], kappa1=kappas[1], kappa2=kappas[2])


@dataclass
class TimeSeries:
    """Accepted-step trajectory log of one simulation run."""

    t: np.ndarray
    q: np.ndarray
    v: np.ndarray
    y: np.ndarray
    y_ref: np.ndarray
    u_ff: np.ndarray
    u_fb: np.ndarray
    u: np.ndarray
    lam: np.ndarray
    ebar_norm: np.ndarray
    funnel_boundary: np.ndarray
    g_norm: np.ndarray
    r_app: np.ndarray

    def validate(self):
        if not np.all(np.diff(self.t) > 0.0):
            raise ValueError("time grid must be strictly increasing")
        for name in (f.name for f in fields(self)):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite values in {name}")

    def write_csv(self, path):
        data = np.column_stack([
            self.t, self.q, self.v, self.y, self.y_ref, self.u_ff,
            self.u_fb, self.u, self.lam, self.ebar_norm,
            self.funnel_boundary, self.g_norm, self.r_app,
        ])
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in data:
                fh.write(",".join(f"{val:.17g}" for val in row) + "\n")


@dataclass
class Metrics:
    """Scalar summary of one run, all entries non-negative."""

    cumulative_output_error: np.ndarray
    cumulative_ee_error: np.ndarray
    final_output_error: float
    final_ee_error: float
    max_constraint_violation: float
    min_funnel_margin: float
    peak_input: float
    step_count: int

    def report_lines(self, prefix=""):
        lines = []
        for i in range(2):
            lines.append(f"{prefix}cumulative_output_error_{i + 1}: "
                         f"{self.cumulative_output_error[i]:.10g}")
        for i in range(2):
            lines.append(f"{prefix}cumulative_ee_error_{i + 1}: "
                         f"{self.cumulative_ee_error[i]:.10g}")
        lines.append(f"{prefix}final_output_error: "
                     f"{self.final_output_error:.10g}")
        lines.append(f"{prefix}final_ee_error: {self.final_ee_error:.10g}")
        lines.append(f"{prefix}max_constraint_violation: "
                     f"{self.max_constraint_violation:.10g}")
        lines.append(f"{prefix}min_funnel_margin: "
                     f"{self.min_funnel_margin:.10g}")
        lines.append(f"{prefix}peak_input: {self.peak_input:.10g}")
        lines.append(f"{prefix}step_count: {self.step_count}")
        return lines


def compute_metrics(ts, params):
    """Trapezoid-rule error integrals and extrema over the recorded grid."""
    out_err = np.abs(ts.y - ts.y_ref)
    ee = robot_mod.end_effector(params, ts.y)
    ee_err = np.abs(ee - ts.r_app)
    margin = 1.0 - ts.ebar_norm / ts.funnel_boundary
    return Metrics(
        cumulative_output_error=np.trapezoid(out_err, ts.t, axis=0),
        cumulative_ee_error=np.trapezoid(ee_err, ts.t, axis=0),
        final_output_error=float(np.linalg.norm(ts.y[-1] - ts.y_ref[-1])),
        final_ee_error=float(np.linalg.norm(ee[-1] - ts.r_app[-1])),
        max_constraint_violation=float(ts.g_norm.max()),
        min_funnel_margin=float(margin.min()),
        peak_input=float(np.linalg.norm(ts.u, axis=1).max()),
        step_count=int(ts.t.size - 1),
    )


# Dormand-Prince 4(5) tableau (fifth-order propagation, FSAL): the last
# row of ``_DP_A`` holds the fifth-order weights.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
              -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _timed(fn, t, *args):
    """``fn(t, *args)``, stamping ``t`` on a library error that has no time."""
    try:
        return fn(t, *args)
    except ServoFunnelError as exc:
        if exc.time is None:
            exc.time = t
        raise


def _rk45(rhs, t_start, t_end, x0, rel_tol, abs_tol, max_step, on_accept):
    """Adaptive embedded 4(5) integration with PI step-size control.

    ``rhs(t, x)`` returns ``(xdot, aux)``; ``on_accept(t, x, aux)`` runs
    at the start and after every accepted step with the ``aux`` of the
    last (FSAL) stage, which sits at the accepted point.  Library errors
    from either callable get the stage time; raises ``StepSizeUnderflow``
    when the controller would step below ``MIN_STEP``.
    """
    t = float(t_start)
    x = np.asarray(x0, dtype=float).copy()
    h = min(max_step, (t_end - t_start) / 1000.0)
    err_prev = 1.0
    k = [None] * 7
    k[0], aux = _timed(rhs, t, x)
    _timed(on_accept, t, x, aux)
    while True:
        gap = t_end - t
        if gap <= max(MIN_STEP, 1e-14 * max(1.0, abs(t_end))):
            break
        h = min(h, max_step, gap)
        if h < MIN_STEP:
            raise StepSizeUnderflow(f"step size {h:.3e}", time=t)
        for i in range(1, 7):
            xi = x + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
            k[i], stage_aux = _timed(rhs, t + _DP_C[i] * h, xi)
        x5 = xi  # the last stage sits at the fifth-order solution
        x4 = x + h * sum(b * k[j] for j, b in enumerate(_DP_B4) if b)
        scale = abs_tol + rel_tol * np.maximum(np.abs(x), np.abs(x5))
        err = float(np.sqrt(np.mean(((x5 - x4) / scale) ** 2)))
        err = max(err, 1e-10)
        if err <= 1.0:
            t = t + h
            x = x5
            _timed(on_accept, t, x, stage_aux)
            k[0] = k[6]
            factor = 0.9 * err ** -0.14 * err_prev ** 0.08
            err_prev = err
        else:
            factor = max(0.2, 0.9 * err ** -0.2)
        h = h * min(5.0, max(0.2, factor))
    return t, x


_BVP_CACHE = {}


def _cached_solution(scn, ref):
    """BVP solution for the reference model, computed once per window."""
    key = (scn.bvp_t0, scn.bvp_tf, scn.bvp_n,
           ref.r_start, ref.r_end, ref.t_start, ref.t_end)
    sol = _BVP_CACHE.get(key)
    if sol is None:
        reference_model, _ = get_model("robot-reference")
        sel = bvp_mod.robot_boundary_preset(robot_mod.RobotParams.reference())
        opts = bvp_mod.BvpOptions(t_start=scn.bvp_t0, t_end=scn.bvp_tf,
                                  intervals=scn.bvp_n)
        sol = bvp_mod.solve_bvp(reference_model, ref, sel, opts)
        _BVP_CACHE[key] = sol
    return sol


def integrate_closed_loop(scn):
    """Run one controller configuration and collect its time series.

    The plant uses the scenario's parameter preset while the controller,
    the reference and the inversion always use the reference parameters.
    Accepted points are logged from the ``aux`` of the integrator's
    evaluation there, so each is evaluated once.  Every evaluation of the
    feedback checks funnel containment, so an error leaving its funnel at
    any integrator stage ends the run with ``FunnelViolation`` at that
    stage's time.  Returns ``(TimeSeries, Metrics)``.
    """
    scn.validate()
    plant, _ = get_model(f"{scn.model}-{scn.params}")
    ctrl_params = robot_mod.RobotParams.reference()
    ref = funnel_mod.ReferenceSignal(ctrl_params)
    design = scn.funnel_design
    baumgarte = (scn.baumgarte_alpha, scn.baumgarte_beta)
    needs_ff = scn.mode in ("C1", "C3")
    needs_fb = scn.mode in ("C1", "C2")

    u_zero = np.zeros(plant.dims.inputs)
    if needs_ff:
        sol = _cached_solution(scn, ref)
        u_ff_fn = bvp_mod.feedforward(sol)
    else:
        u_ff_fn = lambda t: u_zero

    if needs_fb:
        y_start = np.asarray(ref(ref.t_start)[0], dtype=float)
        y_end = np.asarray(ref(ref.t_end)[0], dtype=float)
        lin = internal_mod.linearize(ctrl_params, y_start, y_end,
                                     k1=scn.k1, k2=tuple(scn.k2))
        eta_ref = funnel_mod.reference_internal(lin, ref)
        eta_ref0 = float(eta_ref(0.0))

    def rhs(t, x):
        q, v = x[:5], x[5:]
        u_ff = u_ff_fn(t)
        if needs_fb:
            state = funnel_mod.ControllerState(
                eta2_ref=float(eta_ref(t)), eta2_ref0=eta_ref0)
            u_fb, diag = funnel_mod.control(t, q, v, state, lin, design, ref)
        else:
            u_fb, diag = u_zero, None
        u = u_ff + u_fb
        vdot, lam = index1_accelerations(plant, q, v, u, baumgarte)
        return np.concatenate([v, vdot]), (u_ff, u_fb, u, lam, diag)

    rows = []

    def on_accept(t, x, aux):
        q, v = x[:5], x[5:]
        u_ff, u_fb, u, lam, diag = aux
        y = np.asarray(plant.output(q), dtype=float)
        y_ref = np.asarray(ref(t)[0], dtype=float)
        rows.append((  # in the field order of TimeSeries
            t, q.copy(), v.copy(), y, y_ref, u_ff, u_fb, u, lam,
            0.0 if diag is None else diag.ebar_norm,
            float(design.phi2.boundary(t)),
            float(np.abs(np.asarray(plant.holonomic(q))).max()),
            robot_mod.end_effector(ctrl_params, y_ref),
        ))

    q0, v0 = robot_mod.initial_state(ctrl_params)
    x0 = np.concatenate([q0, v0])
    _rk45(rhs, 0.0, scn.t_end, x0, scn.rel_tol, scn.abs_tol, scn.max_step,
          on_accept)

    ts = TimeSeries(*(np.array(column) for column in zip(*rows)))
    ts.validate()
    return ts, compute_metrics(ts, ctrl_params)


def integrate_open_loop(model, u_fn, x0, t_span, rel_tol=DEFAULT_REL_TOL,
                        abs_tol=DEFAULT_ABS_TOL, max_step=DEFAULT_MAX_STEP):
    """Integrate the plant under a prescribed input signal.

    The constraint rows carry the default Baumgarte constants.  Returns
    ``(t, q, v)`` arrays at accepted steps; useful for inversion
    cross-checks and passivity sweeps where no controller runs.
    """
    n = model.dims.n

    def rhs(t, x):
        vdot, _ = index1_accelerations(model, x[:n], x[n:],
                                       np.asarray(u_fn(t), dtype=float))
        return np.concatenate([x[n:], vdot]), None

    rows = []

    def on_accept(t, x, _):
        rows.append((t, x[:n].copy(), x[n:].copy()))

    _rk45(rhs, t_span[0], t_span[1], np.asarray(x0, dtype=float),
          rel_tol, abs_tol, max_step, on_accept)
    return tuple(np.array(column) for column in zip(*rows))


@dataclass
class ComparisonReport:
    """Cross-configuration summary of the tracking study."""

    metrics: dict
    ratio_output: np.ndarray
    ratio_ee: np.ndarray

    def report_lines(self):
        lines = []
        for mode in sorted(self.metrics):
            lines.extend(self.metrics[mode].report_lines(prefix=f"{mode}."))
        for i in range(2):
            lines.append(f"ratio_output_{i + 1}: {self.ratio_output[i]:.10g}")
        for i in range(2):
            lines.append(f"ratio_ee_{i + 1}: {self.ratio_ee[i]:.10g}")
        return lines

    def as_text(self):
        return "\n".join(self.report_lines()) + "\n"


def compare(metrics_by_mode):
    """Cumulative-error ratios of the combined controller over feedback.

    Expects metrics for C1 and C2 (C3 included when present) computed on
    identical scenarios; ratios divide C1 integrals by C2 integrals per
    channel.
    """
    c1 = metrics_by_mode["C1"]
    c2 = metrics_by_mode["C2"]
    return ComparisonReport(
        metrics=dict(metrics_by_mode),
        ratio_output=np.asarray(c1.cumulative_output_error)
        / np.asarray(c2.cumulative_output_error),
        ratio_ee=np.asarray(c1.cumulative_ee_error)
        / np.asarray(c2.cumulative_ee_error),
    )


def run_scenario(scn, out_dir=None):
    """Simulate one mode and write its CSV; returns the output path."""
    out_dir = out_dir or scn.out_dir
    os.makedirs(out_dir, exist_ok=True)
    ts, metrics = integrate_closed_loop(scn)
    path = os.path.join(out_dir, f"{scn.mode.lower()}.csv")
    ts.write_csv(path)
    return path, ts, metrics
