"""Internal dynamics of constrained multibody systems.

Assembles the high-gain matrix coupling constraint and output
accelerations to multipliers and inputs, constructs internal coordinates
whose rows annihilate both, evaluates the robot's closed-form internal
dynamics, and linearizes them into a stable/unstable decomposition with
a measurable realization of the unstable coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DenominatorSingular,
    GammaSingular,
    GramSingular,
    SingularMatrix,
)
from .linalg import (
    eig_real_small,
    fd_jacobian,
    kernel_basis,
    solve_linear,
)

#: Tolerance for the cross-check between the block-elimination and
#: inverse-block routes to the Schur complement inside ``high_gain``.
SCHUR_CONSISTENCY_TOL = 1e-8

#: The rod-angle resolution denominator ``2 - 3 cos(eta1)`` counts as
#: singular below this magnitude.
DENOMINATOR_TOL = 1e-9


@dataclass(frozen=True)
class HighGainAssembly:
    """High-gain matrix with its constraint Gram block and Schur complement.

    ``gamma`` is ``[G; H] M^-1 [G^T B]``, ``gram`` its upper-left
    constraint block ``G M^-1 G^T`` and ``schur`` the Schur
    complement of ``gram`` in ``gamma`` (the input-to-output-acceleration
    gain on the constraint manifold).
    """

    gamma: np.ndarray
    gram: np.ndarray
    schur: np.ndarray


@dataclass(frozen=True)
class LinearizedInternalDynamics:
    """Linearized internal dynamics split into stable and unstable parts.

    ``eta' = q eta + p1 y + p2 y'`` is the two-point averaged linearization
    of the closed-form internal dynamics, and ``t`` diagonalizes ``q``
    with ascending eigenvalues ``(mu_stable, mu_unstable)``.  The unstable
    coordinate is realized in measurable quantities as ``psi = [0,1] t^-1
    (p2 y - eta)``; removing the output derivative through ``eta - p2 y``,
    it satisfies ``psi' = qtilde psi + ptilde y`` along the linearized
    flow, with ``qtilde = mu_unstable`` and ``ptilde = -[0,1] t^-1 (p1 +
    q p2)``.  ``k1``, ``k2`` weight the unstable coordinate and the
    outputs in the derived tracking errors.
    """

    q: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    t: np.ndarray
    tinv: np.ndarray
    mu_stable: float
    mu_unstable: float
    qtilde: float
    ptilde: np.ndarray
    k1: float
    k2: np.ndarray

    @cached_property
    def float_entries(self):
        """``(ptilde, k2, p2, tinv[1])`` as lists of Python floats, read
        once for the float chains of ``psi`` and ``funnel.control``."""
        return tuple(np.asarray(a, dtype=float).tolist()
                     for a in (self.ptilde, self.k2, self.p2, self.tinv[1]))


def _assemble(model, q):
    """``([G; H], M^-1 [G^T B], Gamma)`` at one configuration."""
    q = np.asarray(q, dtype=float)
    mass = np.asarray(model.mass_matrix(q), dtype=float)
    cons = np.asarray(model.holonomic_jacobian(q), dtype=float)
    h_jac = np.asarray(model.output_jacobian(q), dtype=float)
    b = np.asarray(model.input_map(q), dtype=float)
    rows = np.concatenate([cons, h_jac], axis=0)
    minv_cols = solve_linear(mass, np.concatenate([cons.T, b], axis=1))
    return rows, minv_cols, rows @ minv_cols


def high_gain(model, q):
    """Assemble the high-gain matrix and its blocks at a configuration.

    Raises ``GramSingular`` when the constraint Gram block is numerically
    singular and ``GammaSingular`` when the full matrix is, or when the
    two Schur complement routes disagree beyond ``SCHUR_CONSISTENCY_TOL``.
    """
    _, _, gamma = _assemble(model, q)
    n_cons = model.dims.holonomic
    gram = gamma[:n_cons, :n_cons]

    if n_cons:
        try:
            gram_solved = solve_linear(gram, gamma[:n_cons, n_cons:])
        except SingularMatrix as exc:
            raise GramSingular(f"constraint Gram block is singular: {exc}") from exc
        schur = gamma[n_cons:, n_cons:] - gamma[n_cons:, :n_cons] @ gram_solved
    else:
        schur = gamma.copy()

    try:
        gamma_inv = solve_linear(gamma, np.eye(len(gamma)))
    except SingularMatrix as exc:
        raise GammaSingular(f"high-gain matrix is singular: {exc}") from exc

    # The lower-right block of gamma^-1 inverts the Schur complement;
    # disagreement with the elimination route signals ill-conditioning.
    try:
        schur_direct = solve_linear(gamma_inv[n_cons:, n_cons:], np.eye(len(schur)))
    except SingularMatrix as exc:
        raise GammaSingular(f"high-gain matrix is singular: {exc}") from exc
    defect = np.abs(schur_direct - schur).max()
    if defect > SCHUR_CONSISTENCY_TOL * max(1.0, np.abs(schur).max()):
        raise GammaSingular(f"Schur complement cross-check defect {defect:.3e}")
    return HighGainAssembly(gamma=gamma, gram=gram, schur=schur)


def phi2_rows(model, q):
    """Rows completing the constraint and output Jacobians to a coordinate map.

    Returns the ``(n - l - m, n)`` matrix ``V^T (I - M^-1 [G^T B]
    Gamma^-1 [G; H])`` whose rows annihilate ``M^-1 [G^T B]``, with ``V``
    an orthonormal kernel basis of the stacked Jacobians, so ``V^T = V^+``.
    """
    rows, minv_cols, gamma = _assemble(model, q)
    n = rows.shape[1]
    basis = kernel_basis(rows)
    if basis.shape[1] == 0:
        return np.zeros((0, n))
    try:
        correction = minv_cols @ solve_linear(gamma, rows)
    except SingularMatrix as exc:
        raise GammaSingular(f"high-gain matrix is singular: {exc}") from exc
    return basis.T @ (np.eye(n) - correction)


def _phi_tilde_entries(params, sin_beta_gamma, cos_gamma):
    """The nonzero entries ``(r1, r3, r4)`` of the arm joint's momentum
    row, in columns 1, 3 and 4, from ``sin(beta + gamma)`` and
    ``cos(gamma)`` as floats or arrays.

    Uses the exact homogeneous-rod constants, so the row matches the last
    mass-matrix row exactly only when the inertia table does.
    """
    p = params
    return (-0.5 * p.m3 * p.L3 * sin_beta_gamma,
            p.kappa + 0.25 * p.m3 * p.L2 * p.L3 * cos_gamma, p.kappa)


def robot_internal_rhs(eta, y, ydot, params):
    """Closed-form internal dynamics of the robot.

    Resolves the rod and arm joint rates from ``(eta2, ydot)`` and returns
    ``(eta1dot, eta2dot)``.  Inputs broadcast over leading dimensions.

    Raises ``DenominatorSingular`` when the resolution denominator
    ``2 - 3 cos(eta1)`` falls below ``DENOMINATOR_TOL`` in magnitude.
    """
    p = params
    eta = np.asarray(eta, dtype=float)
    eta1, eta2 = eta[..., 0], eta[..., 1]
    y = np.asarray(y, dtype=float)
    ydot = np.asarray(ydot, dtype=float)
    y2 = y[..., 1]
    yd1, yd2 = ydot[..., 0], ydot[..., 1]

    den = 2.0 - 3.0 * np.cos(eta1)
    if np.any(np.abs(den) < DENOMINATOR_TOL):
        raise DenominatorSingular("rod-rate denominator 2 - 3 cos(eta1) vanishes")
    gain = 2.0 * (p.L2 + 2.0 * p.L3) / (p.kappa * p.L2 * den)
    delta = p.delta
    half_arm = 0.5 * p.m3 * p.L3
    quarter = 0.25 * p.m3 * p.L2 * p.L3
    s = np.sin(y2 + (1.0 - delta) * eta1)
    co = np.cos(y2 + (1.0 - delta) * eta1)

    eta1dot = gain * (eta2 - (p.kappa + quarter * np.cos(eta1)) * yd2
                      + half_arm * s * yd1)
    betadot = gain * (p.kappa * yd2 - delta * eta2 - delta * half_arm * s * yd1)
    sumdot = eta1dot + betadot
    eta2dot = (-sumdot * (half_arm * co * yd1 + quarter * np.sin(eta1) * betadot)
               - p.D * eta1dot - p.c * eta1)
    return eta1dot, eta2dot


def linearize(params, y0, yf, k1=-0.1, k2=(1.0, 0.01)):
    """Linearize the internal dynamics about the reference endpoints.

    Jacobians with respect to the internal state, the outputs and the
    output rates are taken at zero internal state and rest, averaged over
    the two endpoint outputs ``y0`` and ``yf``.  Raises
    ``ComplexOrRepeatedSpectrum`` when the state matrix has no real
    simple spectrum.
    """
    # One batched Jacobian over the stacked (eta, y, ydot) at both endpoints.
    rest = np.zeros((2, 6))
    rest[:, 2:4] = y0, yf
    jac = fd_jacobian(lambda z: np.stack(robot_internal_rhs(
        z[:, :2], z[:, 2:4], z[:, 4:], params), axis=-1), rest)
    q_mat, p1, p2 = (block.copy() for block in
                     np.hsplit(0.5 * (jac[0] + jac[1]), [2, 4]))
    p_mat = p1 + q_mat @ p2

    mu_stable, mu_unstable = eig_real_small(q_mat)
    t = np.array([[mu_unstable / params.c, mu_stable / params.c],
                  [1.0, 1.0]])
    tinv = solve_linear(t, np.eye(2))
    ptilde = -(tinv @ p_mat)[1]
    return LinearizedInternalDynamics(
        q=q_mat, p1=p1, p2=p2, t=t, tinv=tinv,
        mu_stable=float(mu_stable), mu_unstable=float(mu_unstable),
        qtilde=float(mu_unstable), ptilde=ptilde,
        k1=float(k1), k2=np.asarray(k2, dtype=float),
    )


def psi(q, v, lin, params, y):
    """Measured realization of the unstable internal coordinate at one state.

    Evaluates ``[0, 1] t^-1 (p2 y - (eta1, eta2))`` from the coordinates
    ``q`` and rates ``v`` of one state (1-d arrays or sequences of
    floats) and its output ``y = robot.output(params, q)``, a pair;
    linear in ``v`` for fixed ``q``.  ``eta1`` is the arm angle
    ``gamma`` and ``eta2`` the arm joint's momentum, the product of the
    row ``_phi_tilde_entries`` gives with ``v``.  Runs on Python floats:
    ``eta2`` is summed left to right over the row's nonzero entries, and
    the products with ``p2`` and ``tinv[1]`` are two-term sums over
    ``lin.float_entries``.
    """
    _, _, _, beta, gamma = q
    _, v1, _, v3, v4 = v
    y1, y2 = y
    _, _, ((p11, p12), (p21, p22)), (ti1, ti2) = lin.float_entries
    r1, r3, r4 = _phi_tilde_entries(params, math.sin(beta + gamma), math.cos(gamma))
    eta2 = r1 * v1 + r3 * v3 + r4 * v4
    return ti1 * (p11 * y1 + p12 * y2 - gamma) + ti2 * (p21 * y1 + p22 * y2 - eta2)
