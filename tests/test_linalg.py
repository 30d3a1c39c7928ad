"""Unit tests for the dense linear-algebra kernels."""

import numpy as np
import pytest

from servofunnel.errors import (
    ComplexOrRepeatedSpectrum,
    NonFiniteEvaluation,
    RankDeficientColumns,
    RankDeficientRows,
    SingularMatrix,
)
from servofunnel.linalg import (
    eig_real_small,
    fd_jacobian,
    kernel_basis,
    lu_factor_checked,
    pseudo_inverse_tall,
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


def test_singular_matrix_detected():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        lu_factor_checked(a)
    with pytest.raises(SingularMatrix):
        solve_linear(a, np.ones(2))


def test_solve_linear_shape_checks():
    with pytest.raises(ValueError):
        solve_linear(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        solve_linear(np.eye(3), np.ones(2))


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


def test_pseudo_inverse_tall_left_inverse():
    rng = np.random.default_rng(19)
    for _ in range(30):
        cols = int(rng.integers(1, 4))
        rows = cols + int(rng.integers(0, 4))
        v = rng.standard_normal((rows, cols))
        if np.linalg.matrix_rank(v) < cols:
            continue
        pinv = pseudo_inverse_tall(v)
        assert np.allclose(pinv @ v, np.eye(cols), atol=1e-8)


def test_pseudo_inverse_tall_rejects_dependent_columns():
    v = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(RankDeficientColumns):
        pseudo_inverse_tall(v)


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


def test_fd_jacobian_non_finite():
    with np.errstate(divide="ignore"):
        with pytest.raises(NonFiniteEvaluation):
            fd_jacobian(lambda x: np.array([1.0 / x[0]]), np.zeros(1))
