"""Planar robot with a kinematic loop: crank, slider, connecting rod and arm.

Coordinates are ``q = (s1, s2, alpha, beta, gamma)``: two slider positions,
the crank angle, the rod angle and the passive arm joint angle.  Two loop
closure constraints couple the crank to the rod, forces act on both sliders,
and the outputs are ``y = (s2, beta + delta * gamma)``.  The arm joint is
unactuated and carries a spring-damper, which makes the system
underactuated and, for the output above, non-minimum phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InfeasibleGeometry, OutOfReach
from .model import MbsDims, MbsModel, OperatingSet


@dataclass(frozen=True)
class RobotParams:
    """Masses, lengths, inertias and joint spring-damper coefficients."""

    m1: float
    m2: float
    m3: float
    L1: float
    L2: float
    L3: float
    I1: float
    I2: float
    I3: float
    X3: float
    c: float
    D: float
    d: float

    def __post_init__(self):
        for name in ("m1", "m2", "m3", "L1", "L2", "L3", "I1", "I2", "I3", "X3", "c", "d"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.D < 0.0:
            raise ValueError("D must be non-negative")

    @classmethod
    def reference(cls):
        """Nominal parameter set used for inversion and controller design."""
        return cls(m1=3.4, m2=6.8, m3=3.4, L1=0.5, L2=1.0, L3=0.5,
                   I1=0.071, I2=0.567, I3=0.071, X3=0.25, c=50.0, D=0.25, d=0.8)

    @classmethod
    def simulated(cls):
        """Perturbed plant parameters (heavier arm) for robustness studies."""
        return replace(cls.reference(), m3=4.1, I3=0.085)

    @cached_property
    def kappa(self):
        """Arm inertia constant ``m3 L3^2 / 3`` of the homogeneous rod.

        Internal-dynamics coefficients always use this exact value even when
        the dynamics are evaluated with the rounded ``I3``.
        """
        return self.m3 * self.L3 ** 2 / 3.0

    @cached_property
    def delta(self):
        """Output coupling factor ``2 L3 / (L2 + 2 L3)``."""
        return 2.0 * self.L3 / (self.L2 + 2.0 * self.L3)

    @property
    def arm_radius(self):
        """Distance ``L2/2 + L3`` from the rod midpoint joint to the tool tip."""
        return self.L2 / 2.0 + self.L3


def _components(x):
    """Components of ``x`` along its last axis.

    One point, a 1-d ``x``, unpacks into numpy scalars, which are far
    cheaper to compute with than the 0-d arrays ``x[..., i]`` would be;
    a batch gives the views ``x[..., i]``.
    """
    return x if x.ndim == 1 else [x[..., i] for i in range(x.shape[-1])]


def _stack_last(shape, *columns):
    """``columns`` (scalars or arrays of leading ``shape``) along a new last axis."""
    out = np.empty(shape + (len(columns),))
    for i, column in enumerate(columns):
        out[..., i] = column
    return out


def mass_matrix(params, q):
    """Symmetric mass matrix ``M(q)``, batched over leading dimensions."""
    p = params
    q = np.asarray(q, dtype=float)
    _, _, alpha, beta, gamma = _components(q)
    sbg = np.sin(beta + gamma)
    m = np.zeros(q.shape[:-1] + (5, 5))
    m[..., 0, 0] = p.m1
    m[..., 0, 2] = m[..., 2, 0] = p.L1 * p.m1 * np.cos(alpha) / 2.0
    m[..., 1, 1] = p.m2 + p.m3
    m[..., 1, 3] = m[..., 3, 1] = -p.X3 * p.m3 * sbg - p.L2 * p.m3 * np.sin(beta) / 2.0
    m[..., 1, 4] = m[..., 4, 1] = -p.X3 * p.m3 * sbg
    m[..., 2, 2] = p.m1 * p.L1 ** 2 / 4.0 + p.I1
    m[..., 3, 3] = (p.m3 * p.L2 ** 2 / 4.0 + p.m3 * np.cos(gamma) * p.L2 * p.X3
                    + p.m3 * p.X3 ** 2 + p.I2 + p.I3)
    m[..., 3, 4] = m[..., 4, 3] = (p.m3 * p.X3 ** 2
                                   + p.L2 * p.m3 * np.cos(gamma) * p.X3 / 2.0 + p.I3)
    m[..., 4, 4] = p.m3 * p.X3 ** 2 + p.I3
    return m


def generalized_forces(params, q, v):
    """Gyroscopic, centrifugal and joint spring-damper forces ``f(q, v)``.

    Squares are products: on a numpy scalar ``** 2`` calls ``pow``, which
    can round differently from the array square of a batch.
    """
    p = params
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    _, _, alpha, beta, gamma = _components(q)
    _, _, ad, bd, gd = _components(v)
    cbg = np.cos(beta + gamma)
    return _stack_last(
        q.shape[:-1],
        0.5 * p.L1 * (ad * ad) * p.m1 * np.sin(alpha),
        0.5 * p.m3 * (2.0 * p.X3 * (bd * bd) * cbg
                      + 2.0 * p.X3 * (gd * gd) * cbg
                      + p.L2 * (bd * bd) * np.cos(beta)
                      + 4.0 * p.X3 * bd * gd * cbg),
        0.0,
        0.5 * p.L2 * p.X3 * gd * p.m3 * np.sin(gamma) * (2.0 * bd + gd),
        (-0.5 * p.L2 * p.X3 * p.m3 * np.sin(gamma) * (bd * bd)
         - p.D * gd - p.c * gamma),
    )


def loop_closure(params, q):
    """Holonomic loop-closure residual ``g(q)`` (zero on the manifold)."""
    p = params
    q = np.asarray(q, dtype=float)
    s1, s2, alpha, beta, _ = _components(q)
    return _stack_last(
        q.shape[:-1],
        p.L1 * np.cos(alpha) - s2 - p.d + 0.5 * p.L2 * np.cos(beta),
        s1 + p.L1 * np.sin(alpha) - 0.5 * p.L2 * np.sin(beta),
    )


def loop_closure_jacobian(params, q):
    """Jacobian ``G(q)`` of the loop-closure residual."""
    p = params
    q = np.asarray(q, dtype=float)
    _, _, alpha, beta, _ = _components(q)
    g = np.zeros(q.shape[:-1] + (2, 5))
    g[..., 0, 1] = -1.0
    g[..., 0, 2] = -p.L1 * np.sin(alpha)
    g[..., 0, 3] = -0.5 * p.L2 * np.sin(beta)
    g[..., 1, 0] = 1.0
    g[..., 1, 2] = p.L1 * np.cos(alpha)
    g[..., 1, 3] = -0.5 * p.L2 * np.cos(beta)
    return g


def loop_closure_jacobian_dot(params, q, v):
    """Time derivative of ``G`` along ``v``."""
    p = params
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    _, _, alpha, beta, _ = _components(q)
    _, _, ad, bd, _ = _components(v)
    gd = np.zeros(q.shape[:-1] + (2, 5))
    gd[..., 0, 2] = -p.L1 * np.cos(alpha) * ad
    gd[..., 0, 3] = -0.5 * p.L2 * np.cos(beta) * bd
    gd[..., 1, 2] = -p.L1 * np.sin(alpha) * ad
    gd[..., 1, 3] = 0.5 * p.L2 * np.sin(beta) * bd
    return gd


def input_map(params, q):
    """Constant input map ``B``: one force on each slider."""
    q = np.asarray(q, dtype=float)
    b = np.zeros(q.shape[:-1] + (5, 2))
    b[..., 0, 0] = 1.0
    b[..., 1, 1] = 1.0
    return b


#: ``input_map``'s constant ``B``, for the single-state saddle.
_INPUT_MAP = np.eye(5, 2)


def index1_saddle(params, q, v, u, baumgarte):
    """The index-1 saddle system of ``model.py`` at one state.

    Each entry is the expression of the separate callables on Python
    floats, from one ``sin``/``cos`` per angle, with the signed zeros of
    ``-G^T`` and ``-Gdot``; ``B u``, ``Gdot v`` and ``G v`` stay numpy
    products.  So the system has the bits of ``model.assemble_saddle``.
    """
    p = params
    s1, s2, alpha, beta, gamma = q.tolist()
    _, _, ad, bd, gd = v.tolist()
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    sg, cg = math.sin(gamma), math.cos(gamma)
    sbg, cbg = math.sin(beta + gamma), math.cos(beta + gamma)

    m02 = p.L1 * p.m1 * ca / 2.0
    m13 = -p.X3 * p.m3 * sbg - p.L2 * p.m3 * sb / 2.0
    m14 = -p.X3 * p.m3 * sbg
    m22 = p.m1 * p.L1 ** 2 / 4.0 + p.I1
    m33 = (p.m3 * p.L2 ** 2 / 4.0 + p.m3 * cg * p.L2 * p.X3
           + p.m3 * p.X3 ** 2 + p.I2 + p.I3)
    m34 = (p.m3 * p.X3 ** 2
           + p.L2 * p.m3 * cg * p.X3 / 2.0 + p.I3)
    m44 = p.m3 * p.X3 ** 2 + p.I3
    g02, g03 = -p.L1 * sa, -0.5 * p.L2 * sb
    g12, g13 = p.L1 * ca, -0.5 * p.L2 * cb
    saddle = np.array([
        [p.m1, 0.0, m02, 0.0, 0.0, -0.0, -1.0],
        [0.0, p.m2 + p.m3, 0.0, m13, m14, 1.0, -0.0],
        [m02, 0.0, m22, 0.0, 0.0, -g02, -g12],
        [0.0, m13, 0.0, m33, m34, -g03, -g13],
        [0.0, m14, 0.0, m34, m44, -0.0, -0.0],
        [0.0, -1.0, g02, g03, 0.0, 0.0, 0.0],
        [1.0, 0.0, g12, g13, 0.0, 0.0, 0.0],
    ])

    f0 = 0.5 * p.L1 * (ad * ad) * p.m1 * sa
    f1 = 0.5 * p.m3 * (2.0 * p.X3 * (bd * bd) * cbg
                       + 2.0 * p.X3 * (gd * gd) * cbg
                       + p.L2 * (bd * bd) * cb
                       + 4.0 * p.X3 * bd * gd * cbg)
    f3 = 0.5 * p.L2 * p.X3 * gd * p.m3 * sg * (2.0 * bd + gd)
    f4 = (-0.5 * p.L2 * p.X3 * p.m3 * sg * (bd * bd)
          - p.D * gd - p.c * gamma)
    bu0, bu1, bu2, bu3, bu4 = (_INPUT_MAP @ u).tolist()

    gd02, gd03 = -p.L1 * ca * ad, -0.5 * p.L2 * cb * bd
    gd12, gd13 = -p.L1 * sa * ad, 0.5 * p.L2 * sb * bd
    neg_jac_dot = np.array([[-0.0, -0.0, -gd02, -gd03, -0.0],
                            [-0.0, -0.0, -gd12, -gd13, -0.0]])
    gain = 2.0 * baumgarte
    gain_jac = np.array([[0.0, -gain, gain * g02, gain * g03, 0.0],
                         [gain, 0.0, gain * g12, gain * g13, 0.0]])
    jdv0, jdv1 = (neg_jac_dot @ v).tolist()
    gv0, gv1 = (gain_jac @ v).tolist()
    square = baumgarte ** 2
    closure0 = p.L1 * ca - s2 - p.d + 0.5 * p.L2 * cb
    closure1 = s1 + p.L1 * sa - 0.5 * p.L2 * sb
    rhs = np.array([f0 + bu0, f1 + bu1, 0.0 + bu2, f3 + bu3, f4 + bu4,
                    jdv0 - gv0 - square * closure0,
                    jdv1 - gv1 - square * closure1])
    return saddle, rhs


def output(params, q):
    """Outputs ``y = (s2, beta + delta * gamma)``."""
    q = np.asarray(q, dtype=float)
    _, s2, _, beta, gamma = _components(q)
    return _stack_last(q.shape[:-1], s2, beta + params.delta * gamma)


def output_jacobian(params, q):
    """Constant output Jacobian ``H``."""
    q = np.asarray(q, dtype=float)
    h = np.zeros(q.shape[:-1] + (2, 5))
    h[..., 0, 1] = 1.0
    h[..., 1, 3] = 1.0
    h[..., 1, 4] = params.delta
    return h


def robot_model(params):
    """Bundle the robot callables into an ``MbsModel`` (n=5, l=2, m=2)."""
    return MbsModel(
        dims=MbsDims(n=5, holonomic=2, inputs=2),
        mass_matrix=lambda q: mass_matrix(params, q),
        forces=lambda q, v: generalized_forces(params, q, v),
        holonomic=lambda q: loop_closure(params, q),
        holonomic_jacobian=lambda q: loop_closure_jacobian(params, q),
        holonomic_jacobian_dot=lambda q, v: loop_closure_jacobian_dot(params, q, v),
        input_map=lambda q: input_map(params, q),
        index1_saddle=lambda q, v, u, baumgarte: index1_saddle(
            params, q, v, u, baumgarte),
        output=lambda q: output(params, q),
        output_jacobian=lambda q: output_jacobian(params, q),
        name="robot",
    )


def robot_operating_set(params):
    """Admissible set: sliders in (-2, 2), crank and rod angles in (0, pi/2),
    ``cos(gamma) > bound``.

    The arm angle is bounded away from two zeros.  ``cos(gamma) = 2/3`` is
    the zero of the rod-rate denominator ``2 - 3 cos(eta1)`` of the
    internal dynamics.  ``cos(gamma) = (I3 + m3 X3^2) / (m3 L3 X3)`` is the
    zero of the bracket ``I3 + m3 X3^2 - m3 L3 X3 cos(gamma)``, a factor of
    the high-gain determinant, where that determinant changes sign.  The two coincide for the homogeneous rod;
    with the rounded table inertia of ``RobotParams.reference()`` the
    second is the tighter one.  The box keeps ``|gamma| < arccos(2/3)``,
    so the bound acts only through the predicate.
    """
    p = params
    bound = max(2.0 / 3.0, (p.I3 + p.m3 * p.X3 ** 2) / (p.m3 * p.L3 * p.X3))
    gamma_max = np.arccos(2.0 / 3.0)
    lower = np.array([-2.0, -2.0, 0.0, 0.0, -gamma_max])
    upper = np.array([2.0, 2.0, np.pi / 2.0, np.pi / 2.0, gamma_max])
    return OperatingSet(lower=lower, upper=upper,
                        predicate=lambda q: np.cos(q[4]) > bound)


def initial_configuration(params):
    """Crank and rod angles ``(alpha0, beta0)`` closing the loop at ``s1 = s2 = 0``.

    Raises ``InfeasibleGeometry`` when the link lengths cannot close the
    loop at that slider position.
    """
    p = params
    cos_alpha = (p.L1 ** 2 + p.d ** 2 - 0.25 * p.L2 ** 2) / (2.0 * p.L1 * p.d)
    if not -1.0 < cos_alpha < 1.0:
        raise InfeasibleGeometry(f"cannot close the loop: cos(alpha0) = {cos_alpha:.6g}")
    alpha0 = np.arccos(cos_alpha)
    sin_beta = 2.0 * p.L1 * np.sin(alpha0) / p.L2
    if not -1.0 < sin_beta < 1.0:
        raise InfeasibleGeometry(f"cannot close the loop: sin(beta0) = {sin_beta:.6g}")
    return float(alpha0), float(np.arcsin(sin_beta))


def initial_state(params):
    """Rest configuration ``q = (0, 0, alpha0, beta0, 0)`` with zero velocity."""
    alpha0, beta0 = initial_configuration(params)
    return np.array([0.0, 0.0, alpha0, beta0, 0.0]), np.zeros(5)


def end_effector(params, y):
    """Tool-tip position for output values ``y`` (batched over leading dims)."""
    y = np.asarray(y, dtype=float)
    y1, y2 = _components(y)
    r = params.arm_radius
    return _stack_last(y.shape[:-1], params.d + y1 + r * np.cos(y2), -r * np.sin(y2))


def output_from_end_effector(params, r_app):
    """Invert ``end_effector`` for tool-tip targets with ``|r2| < L2/2 + L3``.

    Raises ``OutOfReach`` when the vertical target is at or beyond the arm
    radius, where the inverse loses differentiability.
    """
    r_app = np.asarray(r_app, dtype=float)
    r1, r2 = _components(r_app)
    radius = params.arm_radius
    if (np.abs(r2) >= radius).any():
        raise OutOfReach(f"|r2| must stay below {radius:.6g}")
    y2 = np.arcsin(-r2 / radius)
    return _stack_last(r_app.shape[:-1], r1 - params.d - radius * np.cos(y2), y2)

