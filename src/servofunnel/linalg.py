"""Small dense linear-algebra and differentiation kernels.

Matrices and vectors are plain float64 numpy arrays.  All problems handled
here are tiny (at most a few dozen rows), so the routines favour explicit
failure modes over speed: every operation raises a dedicated exception when
its rank or regularity precondition fails numerically.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .errors import (
    ComplexOrRepeatedSpectrum,
    NonFiniteEvaluation,
    RankDeficientColumns,
    RankDeficientRows,
    SingularMatrix,
)

# Relative pivot threshold below which an LU factorisation counts as singular.
PIVOT_RTOL = 1e-12
# Relative singular-value cutoff for numerical rank decisions.
RANK_RTOL = 1e-10


def _as_matrix(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    return a


def lu_factor_checked(a):
    """LU-factorise a square matrix, raising ``SingularMatrix`` on tiny pivots.

    A pivot counts as tiny when its magnitude falls below ``PIVOT_RTOL``
    times the largest pivot magnitude of the factorisation.  A matrix
    holding NaN or infinity raises ``NonFiniteEvaluation``.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteEvaluation("matrix to factorise is not finite")
    with warnings.catch_warnings():
        # scipy warns on exactly singular input; the pivot check below
        # turns that case into the documented exception instead.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.size and pivots.min() < PIVOT_RTOL * pivots.max():
        raise SingularMatrix(
            f"pivot ratio {pivots.min():.3e} / {pivots.max():.3e} below {PIVOT_RTOL:g}"
        )
    return lu, piv


def solve_linear(a, b):
    """Solve ``a @ x = b`` by LU factorisation with partial pivoting.

    Parameters
    ----------
    a : (n, n) array_like
    b : (n,) or (n, k) array_like

    Raises
    ------
    SingularMatrix
        When a pivot magnitude falls below ``PIVOT_RTOL`` times the largest
        pivot of the factorisation.
    NonFiniteEvaluation
        When ``a`` or ``b`` holds NaN or infinity.
    """
    b = np.asarray(b, dtype=float)
    lu, piv = lu_factor_checked(a)
    if b.shape[0] != lu.shape[0]:
        raise ValueError(f"shape mismatch: a is {lu.shape}, b is {b.shape}")
    if not np.isfinite(b).all():
        raise NonFiniteEvaluation("right-hand side is not finite")
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def _canonical_column_signs(v):
    """Flip column signs so the first significant entry of each is positive."""
    v = v.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        scale = np.abs(col).max()
        if scale == 0.0:
            continue
        idx = np.argmax(np.abs(col) >= 1e-8 * scale)
        if col[idx] < 0.0:
            v[:, j] = -col
    return v


def kernel_basis(a):
    """Orthonormal basis of the right null space of a full-row-rank matrix.

    Returns an ``(n, n - r)`` matrix ``V`` with orthonormal columns spanning
    ``{x : a @ x = 0}``, where ``r`` is the number of rows.  Column signs are
    canonicalised (first significant entry positive) so repeated calls agree.

    Raises
    ------
    RankDeficientRows
        When the rows of ``a`` are numerically dependent (singular values
        below ``RANK_RTOL`` times the largest).
    """
    a = _as_matrix(a)
    rows, n = a.shape
    if rows == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(a)
    cutoff = RANK_RTOL * (s.max() if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    if rank < rows:
        raise RankDeficientRows(f"rows are numerically dependent (rank {rank} < {rows})")
    return _canonical_column_signs(vt[rank:].T)


def pseudo_inverse_tall(v):
    """Left pseudo-inverse ``(V^T V)^{-1} V^T`` of a tall full-column-rank matrix.

    Raises
    ------
    RankDeficientColumns
        When the columns are numerically dependent.
    """
    v = _as_matrix(v)
    rows, cols = v.shape
    if cols == 0:
        return np.zeros((0, rows))
    if cols > rows:
        raise ValueError(f"expected a tall matrix, got shape {v.shape}")
    s = np.linalg.svd(v, compute_uv=False)
    if s.min() <= RANK_RTOL * s.max():
        raise RankDeficientColumns(
            f"columns are numerically dependent (sv ratio {s.min() / s.max():.3e})"
        )
    return solve_linear(v.T @ v, v.T)


def eig_real_small(a):
    """Ascending eigenvalues of a 2x2 matrix with real simple spectrum.

    Uses the closed-form discriminant and returns ``(smaller, larger)``.

    Raises
    ------
    ValueError
        When ``a`` is not 2x2.
    ComplexOrRepeatedSpectrum
        When the spectrum is complex or numerically repeated.
    """
    a = _as_matrix(a)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = tr * tr - 4.0 * det
    scale = max(abs(tr) ** 2, abs(det), 1e-300)
    if disc <= 1e-12 * scale:
        raise ComplexOrRepeatedSpectrum(
            f"2x2 discriminant {disc:.3e} is not safely positive"
        )
    root = np.sqrt(disc)
    return (tr - root) / 2.0, (tr + root) / 2.0


def fd_jacobian(fn, x):
    """Central-difference Jacobian of ``fn`` at ``x``.

    The step for component ``i`` is ``1e-6 * max(1, |x[i]|)``.

    Raises
    ------
    NonFiniteEvaluation
        When any evaluation of ``fn`` returns NaN or infinity.
    """
    x = np.asarray(x, dtype=float).ravel()

    def eval_checked(xi):
        f = np.asarray(fn(xi), dtype=float).ravel()
        if not np.all(np.isfinite(f)):
            raise NonFiniteEvaluation("function evaluation returned a non-finite value")
        return f

    f0 = eval_checked(x)
    jac = np.empty((f0.size, x.size))
    for i in range(x.size):
        hi = 1e-6 * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += hi
        xm[i] -= hi
        jac[:, i] = (eval_checked(xp) - eval_checked(xm)) / (2.0 * hi)
    return jac
