"""Unit tests for the dense linear-algebra kernels."""

import numpy as np
import pytest
import scipy.linalg

from servofunnel.errors import (
    ComplexOrRepeatedSpectrum,
    NonFiniteEvaluation,
    RankDeficientRows,
    SingularMatrix,
)
from servofunnel.linalg import (
    eig_real_small,
    fd_jacobian,
    kernel_basis,
    lu_factor_checked,
    solve_linear,
)


def test_solve_linear_random_sweep():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(1, 9)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        x = rng.standard_normal(n)
        assert np.allclose(solve_linear(a, a @ x), x, atol=1e-9)


def test_solve_linear_multiple_rhs():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    b = rng.standard_normal((5, 3))
    assert np.allclose(a @ solve_linear(a, b), b, atol=1e-10)


def test_solve_linear_bitwise_equals_scipy_lu():
    rng = np.random.default_rng(5)
    for n in (7, 9):
        for _ in range(20):
            a = rng.standard_normal((n, n))
            lu, piv = lu_factor_checked(a)
            lu_ref, piv_ref = scipy.linalg.lu_factor(a)
            assert np.array_equal(lu, lu_ref) and np.array_equal(piv, piv_ref)
            for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
                x = solve_linear(a, b)
                x_ref = scipy.linalg.lu_solve((lu_ref, piv_ref), b)
                assert x.shape == b.shape
                assert np.array_equal(x, x_ref)


def test_singular_matrix_detected():
    for a in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((3, 3))):
        with pytest.raises(SingularMatrix):
            lu_factor_checked(a)
        with pytest.raises(SingularMatrix):
            solve_linear(a, np.ones(a.shape[0]))


def test_solve_linear_shape_checks():
    with pytest.raises(ValueError):
        solve_linear(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        solve_linear(np.eye(3), np.ones(2))


def test_solve_linear_rejects_a_1d_matrix():
    with pytest.raises(ValueError, match="must be 2-dimensional, got shape"):
        solve_linear(np.ones(3), np.ones(3))


def test_solve_linear_rejects_nan_in_matrix():
    a = np.eye(3)
    a[1, 2] = np.nan
    with pytest.raises(NonFiniteEvaluation):
        lu_factor_checked(a)
    with pytest.raises(NonFiniteEvaluation):
        solve_linear(a, np.ones(3))


def test_solve_linear_rejects_inf_in_right_hand_side():
    b = np.array([1.0, np.inf, 0.0])
    with pytest.raises(NonFiniteEvaluation):
        solve_linear(np.eye(3), b)


def test_kernel_basis_annihilates_and_is_orthonormal():
    rng = np.random.default_rng(11)
    for _ in range(30):
        rows = int(rng.integers(1, 4))
        n = rows + int(rng.integers(1, 4))
        a = rng.standard_normal((rows, n))
        v = kernel_basis(a)
        assert v.shape == (n, n - rows)
        assert np.abs(a @ v).max() < 1e-10
        assert np.allclose(v.T @ v, np.eye(n - rows), atol=1e-10)


def test_kernel_basis_sign_is_deterministic():
    a = np.array([[1.0, 1.0, 0.0]])
    v1 = kernel_basis(a)
    v2 = kernel_basis(-2.5 * a)
    assert np.allclose(v1, v2)


def test_kernel_basis_rank_deficient_rows():
    a = np.array([[1.0, 0.0, 2.0], [2.0, 0.0, 4.0]])
    with pytest.raises(RankDeficientRows):
        kernel_basis(a)


def test_kernel_basis_empty_rows_gives_identity():
    assert np.allclose(kernel_basis(np.zeros((0, 4))), np.eye(4))


def test_eig_real_small_2x2_closed_form():
    a = np.array([[0.0, 1.0], [6.0, 1.0]])
    assert np.allclose(eig_real_small(a), [-2.0, 3.0], atol=1e-12)


def test_eig_real_small_orders_ascending():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = np.sort(rng.uniform(-5.0, 5.0, size=2))
        if np.min(np.diff(d)) < 1e-3:
            continue
        t = rng.standard_normal((2, 2))
        a = t @ np.diag(d) @ np.linalg.inv(t)
        assert np.allclose(eig_real_small(a), d, atol=1e-6)


def test_eig_real_small_rejects_other_shapes():
    for shape in ((3, 3), (2, 3), (1, 1)):
        with pytest.raises(ValueError):
            eig_real_small(np.ones(shape))


def test_eig_real_small_complex_raises():
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ComplexOrRepeatedSpectrum):
        eig_real_small(a)


def test_eig_real_small_repeated_raises():
    with pytest.raises(ComplexOrRepeatedSpectrum):
        eig_real_small(np.eye(2))


def test_fd_jacobian_matches_analytic():
    def fn(x):
        return np.array([x[0] ** 2, np.sin(x[1]), x[0] * x[1]])

    x = np.array([0.7, -0.3])
    expected = np.array([[1.4, 0.0], [0.0, np.cos(-0.3)], [-0.3, 0.7]])
    assert np.abs(fd_jacobian(fn, x) - expected).max() < 1e-8


def test_fd_jacobian_batch_equals_row_calls():
    def fn(x):
        return np.stack([x[..., 0] ** 2, np.sin(x[..., 1]), x[..., 0] * x[..., 1]], axis=-1)

    xs = np.array([[0.7, -0.3], [2.5, 1.1], [-30.0, 0.0], [0.0, 4.0]]).reshape(2, 2, 2)
    jac = fd_jacobian(fn, xs)
    assert jac.shape == (2, 2, 3, 2)
    for idx in np.ndindex(2, 2):
        assert np.array_equal(jac[idx], fd_jacobian(fn, xs[idx]))


def test_fd_jacobian_non_finite():
    with np.errstate(divide="ignore"):
        with pytest.raises(NonFiniteEvaluation):
            fd_jacobian(lambda x: np.array([1.0 / x[0]]), np.zeros(1))
        with pytest.raises(NonFiniteEvaluation, match=r"batch index \(2,\)"):
            fd_jacobian(lambda x: 1.0 / x, np.array([[1.0], [2.0], [0.0]]))
