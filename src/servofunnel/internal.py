"""Internal dynamics of constrained multibody systems.

Assembles the high-gain matrix coupling constraint and output
accelerations to multipliers and inputs, constructs internal coordinates
whose rows annihilate both, evaluates the robot's closed-form internal
dynamics, and linearizes them into a stable/unstable decomposition with
a measurable realization of the unstable coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import robot as robot_mod
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
    pseudo_inverse_tall,
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
    of the closed-form internal dynamics.  Removing the output derivative
    through ``eta - p2 y`` gives the forcing matrix ``p = p1 + q p2``, and
    ``t`` diagonalizes ``q`` with ascending eigenvalues ``(mu_stable,
    mu_unstable)``.  The unstable coordinate is realized in measurable
    quantities as ``psi = [0,1] t^-1 (p2 y - eta)``; along the linearized
    flow it satisfies ``psi' = qtilde psi + ptilde y`` with ``qtilde =
    mu_unstable`` and ``ptilde = -[0,1] t^-1 p``.  ``k1``, ``k2`` weight
    the unstable coordinate and the outputs in the derived tracking
    errors, and ``rho`` is the feedback direction sign.
    """

    q: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p: np.ndarray
    t: np.ndarray
    tinv: np.ndarray
    mu_stable: float
    mu_unstable: float
    qtilde: float
    ptilde: np.ndarray
    k1: float
    k2: np.ndarray
    rho: float


def high_gain(model, q):
    """Assemble the high-gain matrix and its blocks at a configuration.

    Raises ``GramSingular`` when the constraint Gram block is numerically
    singular and ``GammaSingular`` when the full matrix is, or when the
    two Schur complement routes disagree beyond ``SCHUR_CONSISTENCY_TOL``.
    """
    q = np.asarray(q, dtype=float)
    mass = np.asarray(model.mass_matrix(q), dtype=float)
    cons = np.asarray(model.holonomic_jacobian(q), dtype=float)
    h_jac = np.asarray(model.output_jacobian(q), dtype=float)
    b = np.asarray(model.input_map(q), dtype=float)
    n_cons = cons.shape[0]
    n_in = b.shape[1]

    rows = np.concatenate([cons, h_jac], axis=0)
    cols = np.concatenate([cons.T, b], axis=1)
    gamma = rows @ solve_linear(mass, cols)
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
        gamma_inv = solve_linear(gamma, np.eye(n_cons + n_in))
    except SingularMatrix as exc:
        raise GammaSingular(f"high-gain matrix is singular: {exc}") from exc

    # The lower-right block of gamma^-1 inverts the Schur complement;
    # disagreement with the elimination route signals ill-conditioning.
    try:
        schur_direct = solve_linear(gamma_inv[n_cons:, n_cons:], np.eye(n_in))
    except SingularMatrix as exc:
        raise GammaSingular(f"high-gain matrix is singular: {exc}") from exc
    defect = np.abs(schur_direct - schur).max()
    if defect > SCHUR_CONSISTENCY_TOL * max(1.0, np.abs(schur).max()):
        raise GammaSingular(f"Schur complement cross-check defect {defect:.3e}")
    return HighGainAssembly(gamma=gamma, gram=gram, schur=schur)


def phi2_rows(model, q):
    """Rows completing the constraint and output Jacobians to a coordinate map.

    Returns the ``(n - l - m, n)`` matrix ``V^+ (I - M^-1 [G^T B]
    Gamma^-1 [G; H])`` whose rows annihilate ``M^-1 [G^T B]``, with ``V``
    an orthonormal basis of the kernel of the stacked Jacobians.
    """
    q = np.asarray(q, dtype=float)
    mass = np.asarray(model.mass_matrix(q), dtype=float)
    cons = np.asarray(model.holonomic_jacobian(q), dtype=float)
    h_jac = np.asarray(model.output_jacobian(q), dtype=float)
    b = np.asarray(model.input_map(q), dtype=float)
    n = mass.shape[0]

    rows = np.concatenate([cons, h_jac], axis=0)
    basis = kernel_basis(rows)
    if basis.shape[1] == 0:
        return np.zeros((0, n))
    cols = np.concatenate([cons.T, b], axis=1)
    minv_cols = solve_linear(mass, cols)
    gamma = rows @ minv_cols
    try:
        correction = minv_cols @ solve_linear(gamma, rows)
    except SingularMatrix as exc:
        raise GammaSingular(f"high-gain matrix is singular: {exc}") from exc
    return pseudo_inverse_tall(basis) @ (np.eye(n) - correction)


def phi_tilde_row(params, q):
    """Momentum row of the arm joint, proportional to the last mass-matrix row.

    Uses the exact homogeneous-rod constants, so it matches the mass
    matrix exactly only when the inertia table does.
    """
    p = params
    q = np.asarray(q, dtype=float)
    beta, gamma = q[..., 3], q[..., 4]
    row = np.zeros(q.shape[:-1] + (5,))
    row[..., 1] = -0.5 * p.m3 * p.L3 * np.sin(beta + gamma)
    row[..., 3] = p.kappa + 0.25 * p.m3 * p.L2 * p.L3 * np.cos(gamma)
    row[..., 4] = p.kappa
    return row


def internal_coordinates(params, q, v):
    """Internal coordinates ``(eta1, eta2)`` of a robot state, batched."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    eta2 = np.einsum("...i,...i->...", phi_tilde_row(params, q), v)
    return q[..., 4], eta2


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


def _rhs_vector(eta, y, ydot, params):
    e1, e2 = robot_internal_rhs(eta, y, ydot, params)
    return np.array([e1, e2])


def linearize(params, y0, yf, k1=-0.1, k2=(1.0, 0.01), rho=1.0):
    """Linearize the internal dynamics about the reference endpoints.

    Jacobians with respect to the internal state, the outputs and the
    output rates are taken at zero internal state and rest, averaged over
    the two endpoint outputs ``y0`` and ``yf``.  Raises
    ``ComplexOrRepeatedSpectrum`` when the state matrix has no real
    simple spectrum.
    """
    y0 = np.asarray(y0, dtype=float)
    yf = np.asarray(yf, dtype=float)
    zero = np.zeros(2)

    q_mat = 0.5 * (fd_jacobian(lambda e: _rhs_vector(e, y0, zero, params), zero)
                   + fd_jacobian(lambda e: _rhs_vector(e, yf, zero, params), zero))
    p1 = 0.5 * (fd_jacobian(lambda yy: _rhs_vector(zero, yy, zero, params), y0)
                + fd_jacobian(lambda yy: _rhs_vector(zero, yy, zero, params), yf))
    p2 = 0.5 * (fd_jacobian(lambda yd: _rhs_vector(zero, y0, yd, params), zero)
                + fd_jacobian(lambda yd: _rhs_vector(zero, yf, yd, params), zero))
    p_mat = p1 + q_mat @ p2

    mu_stable, mu_unstable = eig_real_small(q_mat)
    t = np.array([[mu_unstable / params.c, mu_stable / params.c],
                  [1.0, 1.0]])
    tinv = solve_linear(t, np.eye(2))
    ptilde = -(tinv @ p_mat)[1]
    return LinearizedInternalDynamics(
        q=q_mat, p1=p1, p2=p2, p=p_mat, t=t, tinv=tinv,
        mu_stable=float(mu_stable), mu_unstable=float(mu_unstable),
        qtilde=float(mu_unstable), ptilde=ptilde,
        k1=float(k1), k2=np.asarray(k2, dtype=float), rho=float(rho),
    )


def psi(q, v, lin, params):
    """Measured realization of the unstable internal coordinate.

    Evaluates ``[0, 1] t^-1 (p2 h(q) - (eta1, eta2))`` from the physical
    state; linear in ``v`` for fixed ``q``.  Batched over leading
    dimensions.
    """
    q = np.asarray(q, dtype=float)
    eta1, eta2 = internal_coordinates(params, q, v)
    y = robot_mod.output(params, q)
    shifted = y @ lin.p2.T - np.stack([eta1, eta2], axis=-1)
    return shifted @ lin.tinv[1]
