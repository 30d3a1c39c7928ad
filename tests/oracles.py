"""Reference formulas and predicates the tests check the library against.

None of these is on a path the library runs: the high-gain determinant's
closed form, the exact homogeneous-rod parameter set and membership in
an operating set.
"""

from dataclasses import replace

import numpy as np

from servofunnel.robot import mass_matrix


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


def contains(opset, q):
    """Whether ``q`` lies strictly inside ``opset``'s box and passes its predicate."""
    q = np.asarray(q, dtype=float)
    inside = np.all(q > opset.lower) and np.all(q < opset.upper)
    if inside and opset.predicate is not None:
        inside = bool(opset.predicate(q))
    return inside
