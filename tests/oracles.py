"""Reference formulas and predicates the tests check the library against.

None of these is on a path the library runs: the high-gain determinant's
closed form, the exact homogeneous-rod parameter set, membership in an
operating set, the arm joint's momentum row, the feedback law on
numpy's batched formulas, and the two-mass model with a non-colocated
output.
"""

from dataclasses import replace

import numpy as np

from servofunnel.funnel import ControlDiagnostics, _gain
from servofunnel.internal import _phi_tilde_entries
from servofunnel.robot import mass_matrix, output, output_jacobian


def det_gamma_closed_form(params, q):
    """Closed-form high-gain determinant for cross-checking the assembly."""
    p = params
    q = np.asarray(q, dtype=float)
    alpha, beta, gamma = q[..., 2], q[..., 3], q[..., 4]
    det_m = np.linalg.det(mass_matrix(params, q))
    numer = (p.I3 + p.m3 * p.X3 ** 2 - p.m3 * p.L3 * p.X3 * np.cos(gamma))
    return (-p.L1 ** 2 * p.L2 ** 2 * np.sin(alpha) * np.sin(alpha + beta) * numer
            / ((2.0 * p.L2 + 4.0 * p.L3) * det_m))


def homogenized(params):
    """Copy with the arm treated as an exact homogeneous rod.

    Sets ``X3 = L3 / 2`` and ``I3 = m3 L3^2 / 12`` exactly, replacing the
    rounded table values.  The sign analysis of the high-gain
    determinant assumes these relations.
    """
    return replace(params, X3=params.L3 / 2.0, I3=params.m3 * params.L3 ** 2 / 12.0)


def output_at_mass_2(model):
    """The two-mass ``model`` with its output moved to the position of
    mass 2, which the force on mass 1 reaches only through the spring:
    not colocated, and ``Gamma = H M^-1 B`` is zero."""
    h_jac = np.array([[0.0, 1.0]])
    return replace(
        model, output=lambda q: np.asarray(q, dtype=float)[..., 1:].copy(),
        output_jacobian=lambda q: np.broadcast_to(h_jac, np.shape(q)[:-1] + (1, 2)).copy())


def contains(opset, q):
    """Whether ``q`` lies strictly inside ``opset``'s box and passes its predicate."""
    q = np.asarray(q, dtype=float)
    inside = np.all(q > opset.lower) and np.all(q < opset.upper)
    if inside and opset.predicate is not None:
        inside = bool(opset.predicate(q))
    return inside


def momentum_row(params, q):
    """The arm joint's momentum row, zeros and ``_phi_tilde_entries``,
    batched over leading dimensions."""
    q = np.asarray(q, dtype=float)
    r1, r3, r4 = _phi_tilde_entries(params, np.sin(q[..., 3] + q[..., 4]), np.cos(q[..., 4]))
    return np.stack(np.broadcast_arrays(0.0, r1, 0.0, r3, r4), axis=-1)


def psi_numpy(q, v, lin, params):
    """The measured unstable coordinate ``[0, 1] t^-1 (p2 h(q) - (eta1,
    eta2))`` on numpy's batched formulas, batched over leading dimensions."""
    q = np.asarray(q, dtype=float)
    y = output(params, q)
    eta2 = np.einsum("...i,...i->...", momentum_row(params, q), v)
    shifted = ((y[..., None, :] @ lin.p2.T)[..., 0, :]
               - np.stack([q[..., 4], eta2], axis=-1))
    return np.vecdot(shifted, lin.tinv[1])


def control_numpy(t, q, v, eta2_ref, lin, design, ref, signals):
    """``funnel.control`` at one state with its measurements on numpy:
    ``y = robot.output``, ``ydot = H v`` and ``psi_numpy``.

    Returns ``(u_fb, ControlDiagnostics)``.
    """
    params = ref.params
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    y = output(params, q)
    ydot = output_jacobian(params, q) @ v
    y_ref, ydot_ref, phi0, phi0_dot, bound1, bound2 = signals

    dpsi = float(psi_numpy(q, v, lin, params)) - eta2_ref
    dy = y - y_ref
    dyd = ydot - ydot_ref
    ptilde_dy = float(lin.ptilde @ dy)
    e10 = lin.k1 * dpsi
    mu = lin.mu_unstable
    e10_d1 = lin.k1 * (mu * dpsi + ptilde_dy)
    e10_d2 = lin.k1 * (mu ** 2 * dpsi + mu * ptilde_dy
                       + float(lin.ptilde @ dyd))
    phi1 = 1.0 / bound1
    phi2 = 1.0 / bound2

    margin_e10 = 1.0 - phi0 ** 2 * e10 ** 2
    k10 = _gain(design.kappa0, margin_e10, "e10", t)
    k10_d1 = 2.0 * k10 * (phi0 * phi0_dot * e10 ** 2 + phi0 ** 2 * e10 * e10_d1)
    e11 = e10_d1 + k10 * e10
    e11_d1 = e10_d2 + k10 * e10_d1 + k10_d1 * e10
    margin_e11 = 1.0 - phi1 ** 2 * e11 ** 2
    k11 = _gain(design.kappa1, margin_e11, "e11", t)
    e12 = e11_d1 + k11 * e11

    e20 = float(lin.k2 @ dy)
    margin_e20 = 1.0 - phi0 ** 2 * e20 ** 2
    k20 = _gain(design.kappa0, margin_e20, "e20", t)
    e21 = float(lin.k2 @ dyd) + k20 * e20

    ebar = np.array([e12, e21])
    ebar_norm = float(np.sqrt(ebar @ ebar))
    margin_ebar = 1.0 - phi2 ** 2 * ebar_norm ** 2
    kbar = _gain(design.kappa2, margin_ebar, "ebar", t)
    u_fb = -kbar * ebar
    return u_fb, ControlDiagnostics(
        e10=e10, e11=e11, e12=e12, e20=e20, e21=e21, ebar_norm=ebar_norm,
        margin_e10=margin_e10, margin_e11=margin_e11,
        margin_e20=margin_e20, margin_ebar=margin_ebar)
