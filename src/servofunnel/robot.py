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

from .errors import InfeasibleGeometry, NonFiniteEvaluation, OutOfReach, SaddleSingular
from .linalg import PIVOT_RTOL
from .model import BAUMGARTE, SADDLE_RESIDUAL_RTOL, MbsDims, MbsModel, OperatingSet


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

    @cached_property
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


# One formula per term; ``+ - * /`` round alike on floats and arrays, so both paths keep bits.
#: Upper-triangle positions of ``_mass_entries`` in ``M``; the rest is zero.
_MASS_INDEX = ((0, 0), (0, 2), (1, 1), (1, 3), (1, 4), (2, 2), (3, 3), (3, 4), (4, 4))


def _mass_entries(p, ca, sb, cg, sbg):
    """Entries ``(m00, m02, m11, m13, m14, m22, m33, m34, m44)`` of ``M``."""
    m14 = -p.X3 * p.m3 * sbg
    return (p.m1,
            p.L1 * p.m1 * ca / 2.0,
            p.m2 + p.m3,
            m14 - p.L2 * p.m3 * sb / 2.0,
            m14,
            p.m1 * p.L1 ** 2 / 4.0 + p.I1,
            (p.m3 * p.L2 ** 2 / 4.0 + p.m3 * cg * p.L2 * p.X3
             + p.m3 * p.X3 ** 2 + p.I2 + p.I3),
            p.m3 * p.X3 ** 2 + p.L2 * p.m3 * cg * p.X3 / 2.0 + p.I3,
            p.m3 * p.X3 ** 2 + p.I3)


def _force_entries(p, sa, cb, sg, cbg, gamma, ad, bd, gd):
    """Entries ``(f0, f1, f3, f4)`` of ``f(q, v)``; ``f2`` is zero.  Squares
    are products: a numpy scalar's ``** 2`` is ``pow``, which can round otherwise."""
    return (0.5 * p.L1 * (ad * ad) * p.m1 * sa,
            0.5 * p.m3 * (2.0 * p.X3 * (bd * bd) * cbg
                          + 2.0 * p.X3 * (gd * gd) * cbg
                          + p.L2 * (bd * bd) * cb
                          + 4.0 * p.X3 * bd * gd * cbg),
            0.5 * p.L2 * p.X3 * gd * p.m3 * sg * (2.0 * bd + gd),
            -0.5 * p.L2 * p.X3 * p.m3 * sg * (bd * bd) - p.D * gd - p.c * gamma)


def _jacobian_entries(p, sa, ca, sb, cb):
    """Entries ``(G[0, 2], G[0, 3], G[1, 2], G[1, 3])``; the other entries
    of ``G`` are ``G[0, 1] = -1``, ``G[1, 0] = 1`` and zeros."""
    return -p.L1 * sa, -0.5 * p.L2 * sb, p.L1 * ca, -0.5 * p.L2 * cb


def _closure_rows(p, s1, s2, sa, ca, sb, cb):
    """The two rows of ``g(q)``."""
    return (p.L1 * ca - s2 - p.d + 0.5 * p.L2 * cb,
            s1 + p.L1 * sa - 0.5 * p.L2 * sb)


def mass_matrix(params, q):
    """Symmetric mass matrix ``M(q)``, batched over leading dimensions."""
    q = np.asarray(q, dtype=float)
    _, _, alpha, beta, gamma = _components(q)
    m = np.zeros(q.shape[:-1] + (5, 5))
    entries = _mass_entries(params, np.cos(alpha), np.sin(beta), np.cos(gamma),
                            np.sin(beta + gamma))
    for (i, j), entry in zip(_MASS_INDEX, entries):
        m[..., i, j] = m[..., j, i] = entry
    return m


def generalized_forces(params, q, v):
    """Gyroscopic, centrifugal and joint spring-damper forces ``f(q, v)``."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    _, _, alpha, beta, gamma = _components(q)
    _, _, ad, bd, gd = _components(v)
    f0, f1, f3, f4 = _force_entries(params, np.sin(alpha), np.cos(beta), np.sin(gamma),
                                    np.cos(beta + gamma), gamma, ad, bd, gd)
    return _stack_last(q.shape[:-1], f0, f1, 0.0, f3, f4)


def loop_closure(params, q):
    """Holonomic loop-closure residual ``g(q)`` (zero on the manifold)."""
    q = np.asarray(q, dtype=float)
    s1, s2, alpha, beta, _ = _components(q)
    return _stack_last(q.shape[:-1], *_closure_rows(
        params, s1, s2, np.sin(alpha), np.cos(alpha), np.sin(beta), np.cos(beta)))


def loop_closure_jacobian(params, q):
    """Jacobian ``G(q)`` of the loop-closure residual."""
    q = np.asarray(q, dtype=float)
    _, _, alpha, beta, _ = _components(q)
    g = np.zeros(q.shape[:-1] + (2, 5))
    g[..., 0, 1] = -1.0
    g[..., 1, 0] = 1.0
    g[..., 0, 2], g[..., 0, 3], g[..., 1, 2], g[..., 1, 3] = _jacobian_entries(
        params, np.sin(alpha), np.cos(alpha), np.sin(beta), np.cos(beta))
    return g


def loop_closure_jacobian_dot(params, q, v):
    """Time derivative of ``G`` along ``v``: each angle entry of ``G`` is linear
    in one sine or cosine, so its rate is that entry at ``(cos, -sin)`` times the rate."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    _, _, alpha, beta, _ = _components(q)
    _, _, ad, bd, _ = _components(v)
    g02, g03, g12, g13 = _jacobian_entries(params, np.cos(alpha), -np.sin(alpha),
                                           np.cos(beta), -np.sin(beta))
    gd = np.zeros(q.shape[:-1] + (2, 5))
    gd[..., 0, 2], gd[..., 0, 3], gd[..., 1, 2], gd[..., 1, 3] = (
        g02 * ad, g03 * bd, g12 * ad, g13 * bd)
    return gd


def input_map(params, q):
    """Constant input map ``B``: one force on each slider."""
    q = np.asarray(q, dtype=float)
    b = np.zeros(q.shape[:-1] + (5, 2))
    b[..., 0, 0] = 1.0
    b[..., 1, 1] = 1.0
    return b


def index1_solve(params, q, v, u):
    """Accelerations and multipliers of the index-1 system of ``model.py``
    at one state, by block elimination on Python floats.

    ``q``, ``v`` and ``u`` are sequences of floats, numpy arrays
    included; each entry is converted with ``float``, so no numpy scalar
    enters the arithmetic.  Returns ``(vdot, lam)`` as two lists of
    Python floats.

    ``M`` is block-diagonal over ``(s1, alpha)`` and ``(s2, beta,
    gamma)``, and ``G`` has two rows, so the saddle reduces to its 2x2
    Schur complement (Benzi, Golub & Liesen, Acta Numerica 14, 2005,
    sec. 5): both blocks are inverted by cofactors, then ``W = M^-1 G^T``,
    ``z = M^-1 (f + B u)``, ``S = G W``, ``lam = S^-1 (c - G z)`` and
    ``vdot = z + W lam``, with ``c`` the constraint rows' right-hand side.
    One ``sin``/``cos`` per angle feeds the shared entry helpers.

    Raises ``NonFiniteEvaluation`` when the state or input is not finite,
    and ``SaddleSingular`` when a pivot of the elimination falls below
    ``PIVOT_RTOL`` times its block's largest entry or the residual of the
    seven saddle rows exceeds ``SADDLE_RESIDUAL_RTOL * max(1, |rhs|)``.
    """
    p = params
    s1, s2, alpha, beta, gamma = map(float, q)
    v0, v1, ad, bd, gd = map(float, v)
    u0, u1 = map(float, u)
    if not (math.isfinite(alpha) and math.isfinite(beta) and math.isfinite(gamma)):
        raise NonFiniteEvaluation("state is not finite")
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    sg, cg = math.sin(gamma), math.cos(gamma)
    sbg, cbg = math.sin(beta + gamma), math.cos(beta + gamma)

    # M over (s1, alpha) and over (s2, beta, gamma); G, and Gdot = d * rate.
    m00, m02, m11, m13, m14, m22, m33, m34, m44 = _mass_entries(p, ca, sb, cg, sbg)
    g02, g03, g12, g13 = _jacobian_entries(p, sa, ca, sb, cb)
    d02, d03, d12, d13 = _jacobian_entries(p, ca, -sa, cb, -sb)

    # f + B u (its alpha entry is zero) and c = -Gdot v - 2b G v - b^2 g.
    f0, f1, r3, r4 = _force_entries(p, sa, cb, sg, cbg, gamma, ad, bd, gd)
    r0, r1 = f0 + u0, f1 + u1
    closure0, closure1 = _closure_rows(p, s1, s2, sa, ca, sb, cb)
    gain, square = 2.0 * BAUMGARTE, BAUMGARTE * BAUMGARTE
    c0 = (-d02 * (ad * ad) - d03 * (bd * bd)
          - gain * (g02 * ad + g03 * bd - v1) - square * closure0)
    c1 = (-d12 * (ad * ad) - d13 * (bd * bd)
          - gain * (v0 + g12 * ad + g13 * bd) - square * closure1)
    if not all(map(math.isfinite, (r0, r1, r3, r4, c0, c1))):
        raise NonFiniteEvaluation("right-hand side is not finite")

    # Cofactor inverses; the pivots are those of elimination in order.
    det_a = m00 * m22 - m02 * m02
    _check_pivots("mass block (s1, alpha)", (m00, m02, m22), m00, det_a)
    i00, i02, i22 = m22 / det_a, -m02 / det_a, m00 / det_a
    k11 = m33 * m44 - m34 * m34
    k13 = m14 * m34 - m13 * m44
    k14 = m13 * m34 - m33 * m14
    k44 = m11 * m33 - m13 * m13
    det_b = m11 * k11 + m13 * k13 + m14 * k14
    _check_pivots("mass block (s2, beta, gamma)", (m11, m13, m14, m33, m34, m44),
                  m11, k44, det_b)
    j11, j13, j14 = k11 / det_b, k13 / det_b, k14 / det_b
    j33 = (m11 * m44 - m14 * m14) / det_b
    j34 = (m13 * m14 - m11 * m34) / det_b
    j44 = k44 / det_b

    # W = M^-1 G^T by columns, and z = M^-1 (f + B u).
    w00, w02 = i02 * g02, i22 * g02
    w01, w03, w04 = j13 * g03 - j11, j33 * g03 - j13, j34 * g03 - j14
    w10, w12 = i00 + i02 * g12, i02 + i22 * g12
    w11, w13, w14 = j13 * g13, j33 * g13, j34 * g13
    z0, z2 = i00 * r0, i02 * r0
    z1 = j11 * r1 + j13 * r3 + j14 * r4
    z3 = j13 * r1 + j33 * r3 + j34 * r4
    z4 = j14 * r1 + j34 * r3 + j44 * r4

    # S = G W, then lam = S^-1 (c - G z) and vdot = z + W lam.
    s00 = g02 * w02 + g03 * w03 - w01
    s01 = g02 * w12 + g03 * w13 - w11
    s10 = w00 + g12 * w02 + g13 * w03
    s11 = w10 + g12 * w12 + g13 * w13
    det_s = s00 * s11 - s01 * s10
    _check_pivots("Schur complement", (s00, s01, s10, s11), s00, det_s)
    e0 = c0 - (g02 * z2 + g03 * z3 - z1)
    e1 = c1 - (z0 + g12 * z2 + g13 * z3)
    lam0 = (s11 * e0 - s01 * e1) / det_s
    lam1 = (s00 * e1 - s10 * e0) / det_s
    a0 = z0 + w00 * lam0 + w10 * lam1
    a1 = z1 + w01 * lam0 + w11 * lam1
    a2 = z2 + w02 * lam0 + w12 * lam1
    a3 = z3 + w03 * lam0 + w13 * lam1
    a4 = z4 + w04 * lam0 + w14 * lam1

    residual = max(
        abs(m00 * a0 + m02 * a2 - lam1 - r0),
        abs(m11 * a1 + m13 * a3 + m14 * a4 + lam0 - r1),
        abs(m02 * a0 + m22 * a2 - g02 * lam0 - g12 * lam1),
        abs(m13 * a1 + m33 * a3 + m34 * a4 - g03 * lam0 - g13 * lam1 - r3),
        abs(m14 * a1 + m34 * a3 + m44 * a4 - r4),
        abs(g02 * a2 + g03 * a3 - a1 - c0),
        abs(a0 + g12 * a2 + g13 * a3 - c1),
    )
    scale = max(1.0, abs(r0), abs(r1), abs(r3), abs(r4), abs(c0), abs(c1))
    if not residual <= SADDLE_RESIDUAL_RTOL * scale:
        raise SaddleSingular(f"saddle solve residual {residual:.3e}")
    return [a0, a1, a2, a3, a4], [lam0, lam1]


def _check_pivots(name, entries, *minors):
    """Raise ``SaddleSingular`` when a pivot of the unpivoted elimination of
    a block falls below ``PIVOT_RTOL`` times the block's largest entry.

    The pivots are the ratios of consecutive leading principal ``minors``,
    compared without dividing, so a zero or NaN minor raises too.
    """
    bound = PIVOT_RTOL * max(map(abs, entries))
    previous = 1.0
    for minor in minors:
        if not abs(minor) >= bound * abs(previous):
            raise SaddleSingular(f"{name} has a pivot below {PIVOT_RTOL:g} "
                                 f"of its largest entry")
        previous = minor


def _output_entries(p, s2, beta, gamma):
    """Entries ``(y1, y2)`` of ``y = h(q)``; ``h`` is linear, so at the
    rates ``(v1, v3, v4)`` they are ``H v``."""
    return s2, beta + p.delta * gamma


def output(params, q):
    """Outputs ``y = (s2, beta + delta * gamma)``."""
    q = np.asarray(q, dtype=float)
    _, s2, _, beta, gamma = _components(q)
    return _stack_last(q.shape[:-1], *_output_entries(params, s2, beta, gamma))


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
        index1_solve=lambda q, v, u: index1_solve(params, q, v, u),
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

