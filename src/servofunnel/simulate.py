"""Closed-loop simulation of the tracking study.

Integrates the constrained robot as an index-1 system (saddle solve with
Baumgarte stabilization) under one of three controller configurations:
feedforward plus funnel feedback, funnel feedback alone, or feedforward
alone.  An embedded Runge-Kutta 4(5) pair with PI step control produces
the accepted-step time series; its dense output at each step midpoint
carries the funnel check between accepted points.  Metrics and CSV
emission serve the command line.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import bvp as bvp_mod
from . import funnel as funnel_mod
from . import internal as internal_mod
from . import robot as robot_mod
from .errors import BadGrid, ConfigError, ServoFunnelError, StepSizeUnderflow
# No closed-loop stage calls ``solve_linear`` any more; the name stays
# because perfbench's tracer wraps it here (ROADMAP item 10).
from .linalg import solve_linear  # noqa: F401
from .model import get_model

#: Integrator defaults: tolerances, step ceiling and underflow floor.  The
#: closed-loop ceiling only bounds the steps ``rel_tol``/``abs_tol`` choose.
DEFAULT_REL_TOL = 1e-6
DEFAULT_ABS_TOL = 1e-8
DEFAULT_MAX_STEP = 1e-2
MIN_STEP = 1e-12

#: Step ceiling and tolerances of the open-loop replay.  The replay
#: measures how well the inversion tracks, so the integrator must add
#: nothing visible to that figure.  Scaling the accelerations by 1 + eps,
#: |eps| <= 1e-14, moves the paper replay by up to a factor of two at the
#: closed loop's 1e-6/1e-8 and by 1.4 % at 1e-11/1e-13; at these
#: tolerances it moves it by 0.2 %.
OPEN_LOOP_MAX_STEP = 1e-3
OPEN_LOOP_REL_TOL = 3e-12
OPEN_LOOP_ABS_TOL = 3e-14

#: Baumgarte constant of both stabilizing terms (time constants 0.05 s).
BAUMGARTE = 20.0

#: Exact column layout of the emitted time-series CSV.
CSV_HEADER = ("t,q1,q2,q3,q4,q5,v1,v2,v3,v4,v5,y1,y2,yref1,yref2,"
              "uff1,uff2,ufb1,ufb2,u1,u2,lam1,lam2,"
              "ebar_norm,funnel_boundary,g_norm,rapp1,rapp2")

_MODES = ("C1", "C2", "C3")


def _reference():
    """The paper move, on the reference parameters of controller and inversion."""
    return funnel_mod.ReferenceSignal(robot_mod.RobotParams.reference())


def index1_accelerations(model, q, v, u):
    """Accelerations and multipliers of the index-1 reduced dynamics.

    Solves the saddle system pairing the mass matrix with the constraint
    Jacobian; the constraint row carries Baumgarte feedback so position
    and velocity drift decay instead of accumulating.  One
    ``model.index1_solve`` call with ``BAUMGARTE`` takes ``q``, ``v``
    and ``u`` as sequences of floats and returns ``(vdot, lam)`` as two
    lists of Python floats; it raises ``SaddleSingular`` when the system
    is numerically singular and ``NonFiniteEvaluation`` on a non-finite
    state or input.
    """
    return model.index1_solve(q, v, u, BAUMGARTE)


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
        ends = [t for t in (self.bvp_t0, self.bvp_tf) if t is not None]
        if not np.isfinite([self.rel_tol, self.abs_tol, self.max_step,
                            self.t_end, self.k1, *self.k2, *ends]).all():
            raise ConfigError("scenario values must be finite")
        if min(self.rel_tol, self.abs_tol, self.max_step) <= 0.0:
            raise ConfigError("integrator tolerances must be positive")
        if self.max_step < MIN_STEP:
            raise ConfigError(f"max_step must be at least the minimum step {MIN_STEP:g}")
        if self.t_end <= 0.0:
            raise ConfigError("t_end must be positive")
        if len(self.k2) != 2:
            raise ConfigError("K2 needs exactly two entries")
        if not self.out_dir:
            raise ConfigError("out_dir must not be empty")
        try:
            self.bvp_options().grid(_reference())
        except BadGrid as exc:
            raise ConfigError(f"inversion grid: {exc}") from exc

    def bvp_options(self):
        return bvp_mod.BvpOptions(t_start=self.bvp_t0, t_end=self.bvp_tf,
                                  intervals=self.bvp_n)


_SCALAR_KEYS = {
    "model": str,
    "params": str,
    "t_end": float,
    "rel_tol": float,
    "abs_tol": float,
    "max_step": float,
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
        try:
            scn.funnel_design = _apply_funnel_overrides(scn.funnel_design,
                                                        funnel_over)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
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
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header=CSV_HEADER,
                   comments="")


@dataclass
class Metrics:
    """Scalar summary of one run, all entries non-negative.

    ``min_funnel_margin`` is the smallest ``1 - ||ebar|| / boundary`` over
    the accepted points, for the bundled error ``ebar`` only.  It is not
    one of ``funnel.ControlDiagnostics``' ``margin_*``, the gain
    denominators ``1 - phi^2 e^2`` of each chain: near the boundary it is
    about half of ``margin_ebar`` (0.035 against 0.069 at the same point).
    """

    cumulative_output_error: np.ndarray
    cumulative_ee_error: np.ndarray
    final_output_error: float
    final_ee_error: float
    max_constraint_violation: float
    min_funnel_margin: float
    peak_input: float
    step_count: int

    def report_lines(self, prefix=""):
        return _report_lines(self, prefix)


def _report_lines(record, prefix="", skip=()):
    """``name: value`` lines of the dataclass fields of ``record`` in order.

    An array field gives one line per entry, ``name_1``, ``name_2``, ...
    """
    lines = []
    for f in fields(record):
        if f.name in skip:
            continue
        value = getattr(record, f.name)
        if np.ndim(value):
            lines.extend(f"{prefix}{f.name}_{i + 1}: {entry:.10g}"
                         for i, entry in enumerate(value))
        else:
            lines.append(f"{prefix}{f.name}: {value:.10g}")
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
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
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
# Shampine's weights of the free fourth-order dense output at the step
# midpoint, ``x(t + h/2) = x + h * sum(_DP_MID[i] * k[i])`` (Hairer,
# Norsett & Wanner, Solving ODEs I, II.6).
_DP_MID = 0.5 * np.array([6025192743 / 30085553152, 0.0,
                          51252292925 / 65400821598,
                          -2691868925 / 45128329728,
                          187940372067 / 1594534317056,
                          -1776094331 / 19743644256,
                          11237099 / 235043384])


def _pairs(weights):
    """The nonzero ``(j, a)`` of ``weights``, ``a`` a Python float.

    ``sum`` over ``a * k[j]`` adds the terms left to right after its
    leading ``0 +``, which turns a sum of zeros into ``+0``; the unrolled
    stage sums (``_stage_sum``) keep that, so they have the bits of a
    numpy loop over the nonzero weights.
    """
    return tuple((j, float(a)) for j, a in enumerate(weights) if a)


def _stage_sum(pairs):
    """``x + h * sum([a * k[j] for j, a in pairs])`` on lists of floats.

    The sum is unrolled into one expression per entry, ``x_ + h * (0 +
    a0 * k0_ + a1 * k1_ ...)``, with the weights as literals (``repr``
    gives each float back exactly).  The operations and their order are
    those of the numpy form, and so are the bits.
    """
    ks = ", ".join(f"k{j}_" for j, _ in pairs)
    terms = "".join(f" + {a!r} * k{j}_" for j, a in pairs)
    columns = ", ".join(f"k[{j}]" for j, _ in pairs)
    return eval(f"lambda x, h, k: [x_ + h * (0{terms}) "
                f"for x_, {ks} in zip(x, {columns})]")


_STAGE_PAIRS = tuple(_pairs(row) for row in _DP_A)
_B4_PAIRS = _pairs(_DP_B4)
_MID_PAIRS = _pairs(_DP_MID)
_STAGE_SUMS = (None,) + tuple(_stage_sum(pairs) for pairs in _STAGE_PAIRS[1:])
_B4_SUM = _stage_sum(_B4_PAIRS)
_MID_SUM = _stage_sum(_MID_PAIRS)


def _pairwise_sum(values):
    """``np.sum`` of a list of floats, in numpy's pairwise order.

    Below 8 entries numpy adds left to right.  Up to 128 it runs 8
    accumulators over blocks of 8, joins them as ``((r0 + r1) + (r2 +
    r3)) + ((r4 + r5) + (r6 + r7))`` and adds the tail left to right;
    above that it splits at a multiple of 8 and recurses.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    stop = n - n % 8
    r = values[:8]
    for i in range(8, stop, 8):
        r = [a + b for a, b in zip(r, values[i:i + 8])]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for value in values[stop:]:
        total += value
    return total


def _error_norm(x, x4, x5, rel_tol, abs_tol):
    """RMS of the scaled error ``(x5 - x4) / (abs_tol + rel_tol *
    max(|x|, |x5|))`` on lists of floats.

    It has the bits of ``np.sqrt(np.mean(((x5 - x4) / scale) ** 2))`` on
    arrays: squares are products, as numpy's ``** 2`` is, and the mean
    sums in numpy's pairwise order.  A NaN entry gives a NaN norm.
    """
    squares = [r * r for r in (
        (b - c) / (abs_tol + rel_tol * max(abs(a), abs(b)))
        for a, c, b in zip(x, x4, x5))]
    return math.sqrt(_pairwise_sum(squares) / len(squares))


def _timed(fn, t, *args):
    """``fn(t, *args)``, stamping ``t`` on a library error that has no time."""
    try:
        return fn(t, *args)
    except ServoFunnelError as exc:
        if exc.time is None:
            exc.time = t
        raise


def _rk45(rhs, t_start, t_end, x0, rel_tol, abs_tol, max_step, on_accept,
          check=None):
    """Adaptive embedded 4(5) integration with PI step-size control.

    The state is a list of Python floats, and so is every time the
    callables get.  ``rhs(t, x)`` returns ``(xdot, aux)``, ``xdot`` a
    sequence of floats as long as ``x``; ``on_accept(t, x, aux)`` runs
    at the start and after every accepted step with the ``aux`` of the
    last (FSAL) stage, which sits at the accepted point.  ``check(t,
    x)``, when given, runs on the dense output at the midpoint of every
    accepted step, before that step's ``on_accept``.  The stage sums,
    the fourth-order solution, the midpoint and the error norm have the
    bits of the same formulas on numpy arrays (``_stage_sum``,
    ``_error_norm``).

    Library errors from any callable get the time it was called at, so
    an error raised by a trial stage ends the run even when error
    control would have rejected that step.  Raises ``StepSizeUnderflow``
    when the controller would step below ``MIN_STEP``.  Returns the end
    time and the state there.
    """
    t, t_end, max_step = float(t_start), float(t_end), float(max_step)
    x = np.asarray(x0, dtype=float).tolist()
    h = min(max_step, (t_end - t) / 1000.0)
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
            raise StepSizeUnderflow(f"step size {h:.3e} below the minimum {MIN_STEP:g}",
                                    time=t)
        for i in range(1, 7):
            xi = _STAGE_SUMS[i](x, h, k)
            k[i], stage_aux = _timed(rhs, t + _DP_C[i] * h, xi)
        x5 = xi  # the last stage sits at the fifth-order solution
        err = _error_norm(x, _B4_SUM(x, h, k), x5, rel_tol, abs_tol)
        err = max(err, 1e-10)
        if err <= 1.0:
            if check is not None:
                _timed(check, t + 0.5 * h, _MID_SUM(x, h, k))
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


def solve_inversion(scn):
    """The scenario's inversion: the paper move on the reference model.

    ``bvp.solve_bvp`` is looked up at each call, so ``perfbench`` can wrap it.
    """
    ref = _reference()
    model, _ = get_model("robot-reference")
    return bvp_mod.solve_bvp(model, ref, bvp_mod.robot_boundary_preset(ref.params),
                             scn.bvp_options())


_BVP_CACHE = {}


def _cached_solution(scn):
    """``solve_inversion(scn)``, computed once per window and grid."""
    key = (scn.bvp_t0, scn.bvp_tf, scn.bvp_n)
    if key not in _BVP_CACHE:
        _BVP_CACHE[key] = solve_inversion(scn)
    return _BVP_CACHE[key]


def integrate_closed_loop(scn):
    """Run one controller configuration and collect its time series.

    The plant uses the scenario's parameter preset while the controller,
    the reference and the inversion always use the reference parameters.
    Each stage and each midpoint check evaluates the inputs that depend
    on time alone at its own time, on Python floats: the feedforward,
    the bounded internal reference and, inside ``funnel.control``, the
    reference and the funnel levels.  Each mode evaluates only those it
    uses.  An accepted point logs the state and what the integrator's
    evaluation there handed over (the inputs, the multipliers and
    ``||ebar||``); the output, the reference, the funnel boundary, the
    constraint violation and the tool-tip reference are computed for all
    accepted points at once after the run, with the bits of the same
    calls at each point alone.  Every evaluation of the feedback checks
    funnel containment: at every integrator stage, the stages of steps
    that error control then rejects included, because the gains are
    undefined outside a funnel; and, with no saddle solve, at the dense
    output of every accepted step's midpoint.  An error leaving its
    funnel at any of these points ends the run with ``FunnelViolation``
    at that point's time.  Returns ``(TimeSeries, Metrics)``.
    """
    scn.validate()
    plant, _ = get_model(f"{scn.model}-{scn.params}")
    ref = _reference()
    ctrl_params = ref.params
    design = scn.funnel_design
    needs_ff = scn.mode in ("C1", "C3")
    needs_fb = scn.mode in ("C1", "C2")

    u_zero = (0.0, 0.0)
    if needs_ff:
        u_ff_fn = bvp_mod.feedforward(_cached_solution(scn))

    if needs_fb:
        lin = internal_mod.linearize(ctrl_params, ref(ref.t_start)[0],
                                     ref(ref.t_end)[0], k1=scn.k1, k2=tuple(scn.k2))
        eta_ref = funnel_mod.reference_internal(lin, ref)
        eta_ref0 = eta_ref(0.0)

    def feedback(t, q, v):
        state = funnel_mod.ControllerState(eta2_ref=eta_ref(t), eta2_ref0=eta_ref0)
        return funnel_mod.control(t, q, v, state, lin, design, ref)

    def rhs(t, x):
        q, v = x[:5], x[5:]
        u_ff = u_ff_fn(t) if needs_ff else u_zero
        if needs_fb:
            u_fb, diag = feedback(t, q, v)
            ebar_norm = diag.ebar_norm
        else:
            u_fb, ebar_norm = u_zero, 0.0
        (ff1, ff2), (fb1, fb2) = u_ff, u_fb
        u = [ff1 + fb1, ff2 + fb2]
        vdot, lam = index1_accelerations(plant, q, v, u)
        return v + vdot, (u_ff, u_fb, u, lam, ebar_norm)

    rows = []

    def on_accept(t, x, aux):
        rows.append((t, x[:5], x[5:], *aux))

    q0, v0 = robot_mod.initial_state(ctrl_params)
    x0 = np.concatenate([q0, v0])
    _rk45(rhs, 0.0, scn.t_end, x0, scn.rel_tol, scn.abs_tol, scn.max_step,
          on_accept,
          check=(lambda t, x: feedback(t, x[:5], x[5:])) if needs_fb else None)

    t, q, v, u_ff, u_fb, u, lam, ebar_norm = (np.array(column) for column in zip(*rows))
    y_ref = ref(t)[0]
    ts = TimeSeries(
        t=t, q=q, v=v, y=plant.output(q), y_ref=y_ref, u_ff=u_ff, u_fb=u_fb,
        u=u, lam=lam, ebar_norm=ebar_norm,
        funnel_boundary=design.phi2.boundary(t),
        g_norm=np.abs(plant.holonomic(q)).max(axis=-1),
        r_app=robot_mod.end_effector(ctrl_params, y_ref))
    ts.validate()
    return ts, compute_metrics(ts, ctrl_params)


def integrate_open_loop(model, u_fn, x0, t_span, rel_tol=OPEN_LOOP_REL_TOL,
                        abs_tol=OPEN_LOOP_ABS_TOL, max_step=OPEN_LOOP_MAX_STEP):
    """Integrate the plant under a prescribed input signal.

    No funnel is checked.  Returns ``(t, q, v)`` arrays at accepted steps;
    useful for inversion cross-checks and passivity sweeps where no
    controller runs.
    """
    n = model.dims.n

    def rhs(t, x):
        v = x[n:]
        vdot, _ = index1_accelerations(model, x[:n], v, u_fn(t))
        return v + vdot, None

    rows = []

    def on_accept(t, x, _):
        rows.append((t, x[:n], x[n:]))

    _rk45(rhs, t_span[0], t_span[1], x0, rel_tol, abs_tol, max_step, on_accept)
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
        return lines + _report_lines(self, skip=("metrics",))

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
        ratio_output=c1.cumulative_output_error / c2.cumulative_output_error,
        ratio_ee=c1.cumulative_ee_error / c2.cumulative_ee_error,
    )


def run_scenario(scn, out_dir=None):
    """Simulate one mode and write its CSV; returns the output path."""
    out_dir = out_dir or scn.out_dir
    os.makedirs(out_dir, exist_ok=True)
    ts, metrics = integrate_closed_loop(scn)
    path = os.path.join(out_dir, f"{scn.mode.lower()}.csv")
    ts.write_csv(path)
    return path, ts, metrics
