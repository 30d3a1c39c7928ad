"""Planar robot with a kinematic loop: crank, slider, connecting rod and arm.

Coordinates are ``q = (s1, s2, alpha, beta, gamma)``: two slider positions,
the crank angle, the rod angle and the passive arm joint angle.  Two loop
closure constraints couple the crank to the rod, forces act on both sliders,
and the outputs are ``y = (s2, beta + delta * gamma)``.  The arm joint is
unactuated and carries a spring-damper, which makes the system
underactuated and, for the output above, non-minimum phase.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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

    def homogenized(self):
        """Copy with the arm treated as an exact homogeneous rod.

        Sets ``X3 = L3 / 2`` and ``I3 = m3 L3^2 / 12`` exactly, replacing the
        rounded table values.  The sign analysis of the high-gain
        determinant assumes these relations.
        """
        return replace(self, X3=self.L3 / 2.0, I3=self.m3 * self.L3 ** 2 / 12.0)

    @property
    def kappa(self):
        """Arm inertia constant ``m3 L3^2 / 3`` of the homogeneous rod.

        Internal-dynamics coefficients always use this exact value even when
        the dynamics are evaluated with the rounded ``I3``.
        """
        return self.m3 * self.L3 ** 2 / 3.0

    @property
    def delta(self):
        """Output coupling factor ``2 L3 / (L2 + 2 L3)``."""
        return 2.0 * self.L3 / (self.L2 + 2.0 * self.L3)

    @property
    def arm_radius(self):
        """Distance ``L2/2 + L3`` from the rod midpoint joint to the tool tip."""
        return self.L2 / 2.0 + self.L3


def mass_matrix(params, q):
    """Symmetric mass matrix ``M(q)``, batched over leading dimensions."""
    p = params
    q = np.asarray(q, dtype=float)
    alpha, beta, gamma = q[..., 2], q[..., 3], q[..., 4]
    sbg = np.sin(beta + gamma)
    m = np.zeros(q.shape[:-1] + (5, 5))
    m[..., 0, 0] = p.m1
    m[..., 0, 2] = p.L1 * p.m1 * np.cos(alpha) / 2.0
    m[..., 2, 0] = m[..., 0, 2]
    m[..., 1, 1] = p.m2 + p.m3
    m[..., 1, 3] = -p.X3 * p.m3 * sbg - p.L2 * p.m3 * np.sin(beta) / 2.0
    m[..., 3, 1] = m[..., 1, 3]
    m[..., 1, 4] = -p.X3 * p.m3 * sbg
    m[..., 4, 1] = m[..., 1, 4]
    m[..., 2, 2] = p.m1 * p.L1 ** 2 / 4.0 + p.I1
    m[..., 3, 3] = (p.m3 * p.L2 ** 2 / 4.0 + p.m3 * np.cos(gamma) * p.L2 * p.X3
                    + p.m3 * p.X3 ** 2 + p.I2 + p.I3)
    m[..., 3, 4] = p.m3 * p.X3 ** 2 + p.L2 * p.m3 * np.cos(gamma) * p.X3 / 2.0 + p.I3
    m[..., 4, 3] = m[..., 3, 4]
    m[..., 4, 4] = p.m3 * p.X3 ** 2 + p.I3
    return m


def generalized_forces(params, q, v):
    """Gyroscopic, centrifugal and joint spring-damper forces ``f(q, v)``."""
    p = params
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    beta, gamma = q[..., 3], q[..., 4]
    alpha = q[..., 2]
    ad, bd, gd = v[..., 2], v[..., 3], v[..., 4]
    cbg = np.cos(beta + gamma)
    f = np.zeros(q.shape[:-1] + (5,))
    f[..., 0] = 0.5 * p.L1 * ad ** 2 * p.m1 * np.sin(alpha)
    f[..., 1] = 0.5 * p.m3 * (2.0 * p.X3 * bd ** 2 * cbg
                              + 2.0 * p.X3 * gd ** 2 * cbg
                              + p.L2 * bd ** 2 * np.cos(beta)
                              + 4.0 * p.X3 * bd * gd * cbg)
    f[..., 3] = 0.5 * p.L2 * p.X3 * gd * p.m3 * np.sin(gamma) * (2.0 * bd + gd)
    f[..., 4] = (-0.5 * p.L2 * p.X3 * p.m3 * np.sin(gamma) * bd ** 2
                 - p.D * gd - p.c * gamma)
    return f


def loop_closure(params, q):
    """Holonomic loop-closure residual ``g(q)`` (zero on the manifold)."""
    p = params
    q = np.asarray(q, dtype=float)
    s1, s2, alpha, beta = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([
        p.L1 * np.cos(alpha) - s2 - p.d + 0.5 * p.L2 * np.cos(beta),
        s1 + p.L1 * np.sin(alpha) - 0.5 * p.L2 * np.sin(beta),
    ], axis=-1)


def loop_closure_jacobian(params, q):
    """Jacobian ``G(q)`` of the loop-closure residual."""
    p = params
    q = np.asarray(q, dtype=float)
    alpha, beta = q[..., 2], q[..., 3]
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
    alpha, beta = q[..., 2], q[..., 3]
    ad, bd = v[..., 2], v[..., 3]
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


def output(params, q):
    """Outputs ``y = (s2, beta + delta * gamma)``."""
    q = np.asarray(q, dtype=float)
    return np.stack([q[..., 1], q[..., 3] + params.delta * q[..., 4]], axis=-1)


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
    zero of the bracket in ``det_gamma_closed_form``, where the high-gain
    determinant changes sign.  The two coincide for the homogeneous rod;
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
    r = params.arm_radius
    return np.stack([
        params.d + y[..., 0] + r * np.cos(y[..., 1]),
        -r * np.sin(y[..., 1]),
    ], axis=-1)


def output_from_end_effector(params, r_app):
    """Invert ``end_effector`` for tool-tip targets with ``|r2| < L2/2 + L3``.

    Raises ``OutOfReach`` when the vertical target is at or beyond the arm
    radius, where the inverse loses differentiability.
    """
    r_app = np.asarray(r_app, dtype=float)
    radius = params.arm_radius
    if np.any(np.abs(r_app[..., 1]) >= radius):
        raise OutOfReach(f"|r2| must stay below {radius:.6g}")
    y2 = np.arcsin(-r_app[..., 1] / radius)
    y1 = r_app[..., 0] - params.d - radius * np.cos(y2)
    return np.stack([y1, y2], axis=-1)


def det_gamma_sign(params, q):
    """Determinant of the assembled high-gain matrix ``[G; H] M^-1 [G^T B]``.

    Positive on the open set ``robot_operating_set(params)``, so the vector
    relative degree is well defined everywhere the controller runs.  It is
    not bounded away from zero there: it tends to zero at the set's
    boundary as ``alpha -> 0``, and as ``cos(gamma)`` falls to the set's
    bound wherever that bound is the zero of the closed-form bracket.
    The sign follows the orientation of the inputs and outputs; flipping
    one of them flips it.
    """
    q = np.asarray(q, dtype=float)
    m = mass_matrix(params, q)
    g = loop_closure_jacobian(params, q)
    h = output_jacobian(params, q)
    b = input_map(params, q)
    rows = np.concatenate([g, h], axis=-2)
    cols = np.concatenate([np.swapaxes(g, -1, -2), b], axis=-1)
    gamma = rows @ np.linalg.solve(m, cols)
    return np.linalg.det(gamma)


def det_gamma_closed_form(params, q):
    """Closed-form high-gain determinant for cross-checking the assembly."""
    p = params
    q = np.asarray(q, dtype=float)
    alpha, beta, gamma = q[..., 2], q[..., 3], q[..., 4]
    det_m = np.linalg.det(mass_matrix(params, q))
    numer = (p.I3 + p.m3 * p.X3 ** 2 - p.m3 * p.L3 * p.X3 * np.cos(gamma))
    return (-p.L1 ** 2 * p.L2 ** 2 * np.sin(alpha) * np.sin(alpha + beta) * numer
            / ((2.0 * p.L2 + 4.0 * p.L3) * det_m))
