"""Tests for internal dynamics: high-gain blocks, annihilators, linearization."""

import dataclasses

import numpy as np
import pytest

from oracles import homogenized, momentum_row, psi_numpy
from servofunnel.errors import DenominatorSingular, GammaSingular, GramSingular, SingularMatrix
from servofunnel import internal
from servofunnel.internal import (
    high_gain,
    linearize,
    phi2_rows,
    psi,
    robot_internal_rhs,
)
from servofunnel.linalg import kernel_basis, lu_factor_checked
from servofunnel.model import MbsDims, two_mass_model
from servofunnel.robot import (
    RobotParams,
    initial_state,
    output,
    output_jacobian,
    robot_model,
    robot_operating_set,
)


def reference_endpoints(params):
    """Output values of the study's start and end tool-tip targets."""
    from servofunnel.robot import output_from_end_effector

    y0 = output_from_end_effector(params, np.array([1.6, -0.6]))
    yf = output_from_end_effector(params, np.array([0.9, -0.9]))
    return y0, yf


def test_high_gain_blocks_match_brute_force():
    params = RobotParams.reference()
    model = robot_model(params)
    rng = np.random.default_rng(0)
    for q in robot_operating_set(params).sample(rng, 10):
        assembly = high_gain(model, q)
        assert assembly.gamma.shape == (4, 4)
        assert assembly.gram.shape == (2, 2)
        assert assembly.schur.shape == (2, 2)

        mass = model.mass_matrix(q)
        g = model.holonomic_jacobian(q)
        h = model.output_jacobian(q)
        b = model.input_map(q)
        rows = np.vstack([g, h])
        cols = np.hstack([g.T, b])
        gamma = rows @ np.linalg.solve(mass, cols)
        assert np.abs(assembly.gamma - gamma).max() < 1e-12
        schur = gamma[2:, 2:] - gamma[2:, :2] @ np.linalg.solve(
            gamma[:2, :2], gamma[:2, 2:])
        assert np.abs(assembly.schur - schur).max() < 1e-10


def test_high_gain_schur_positive_definite_for_colocated_chain():
    model, operating_set = two_mass_model()
    rng = np.random.default_rng(1)
    for q in operating_set.sample(rng, 20):
        schur = high_gain(model, q).schur
        sym = 0.5 * (schur + schur.T)
        assert np.linalg.eigvalsh(sym).min() > 0.0


def test_high_gain_rejects_redundant_constraints():
    params = RobotParams.reference()
    base = robot_model(params)
    degenerate = dataclasses.replace(
        base,
        dims=MbsDims(n=5, holonomic=3, inputs=2),
        holonomic=lambda q: np.concatenate([base.holonomic(q),
                                            base.holonomic(q)[:1]]),
        holonomic_jacobian=lambda q: np.vstack([base.holonomic_jacobian(q),
                                                base.holonomic_jacobian(q)[:1]]),
        holonomic_jacobian_dot=lambda q, v: np.vstack(
            [base.holonomic_jacobian_dot(q, v),
             base.holonomic_jacobian_dot(q, v)[:1]]),
    )
    q0, _ = initial_state(params)
    with pytest.raises(GramSingular):
        high_gain(degenerate, q0)


def _unit_chain(input_block):
    """The robot's dimensions with ``M = I``, ``G = [e1; e2]``, ``H = [e3;
    e4]`` and ``input_block`` in rows 3 and 4 of ``B``, so ``Gamma =
    [[I, 0], [0, input_block]]`` and the Schur complement is
    ``input_block``."""
    eye = np.eye(5)
    b = np.zeros((5, 2))
    b[2:4] = input_block
    return dataclasses.replace(
        robot_model(RobotParams.reference()),
        mass_matrix=lambda q: eye, holonomic_jacobian=lambda q: eye[:2],
        output_jacobian=lambda q: eye[2:4], input_map=lambda q: b)


def test_high_gain_rejects_a_schur_complement_whose_inverse_is_singular():
    # The Schur complement has the pivots 1 and 1, so Gamma passes the LU
    # test; its inverse [[1e7, -2e7 + 2], [-0.5, 1]] has the pivots 1e7
    # and 1e-7, a ratio of 1e-14.
    model = _unit_chain([[1.0, 2e7 - 2.0], [0.5, 1e7]])
    _, _, gamma = internal._assemble(model, np.zeros(5))
    lu_factor_checked(gamma)
    with pytest.raises(GammaSingular, match="pivot ratio") as info:
        high_gain(model, np.zeros(5))
    assert isinstance(info.value.__cause__, SingularMatrix)


def test_high_gain_rejects_a_schur_complement_that_fails_its_cross_check():
    # Consecutive Fibonacci numbers: determinant 1 and entries near 2e5,
    # so the block and its inverse pass the LU pivot test (ratios 2.6e-11
    # and 6.8e-11), but inverting the inverse returns the block with a
    # defect far above 1e-8 of its largest entry.
    model = _unit_chain([[196418.0, 121393.0], [121393.0, 75025.0]])
    with pytest.raises(GammaSingular, match="cross-check defect"):
        high_gain(model, np.zeros(5))


def test_phi2_rows_annihilate_input_and_constraint_columns():
    params = RobotParams.reference()
    model = robot_model(params)
    rng = np.random.default_rng(2)
    for q in robot_operating_set(params).sample(rng, 100):
        rows = phi2_rows(model, q)
        assert rows.shape == (1, 5)
        mass = model.mass_matrix(q)
        cols = np.hstack([model.holonomic_jacobian(q).T, model.input_map(q)])
        defect = np.abs(rows @ np.linalg.solve(mass, cols)).max()
        assert defect <= 1e-9
        stacked = np.vstack([model.holonomic_jacobian(q),
                             model.output_jacobian(q), rows])
        assert np.linalg.matrix_rank(stacked) == 5


def test_phi2_rows_unconstrained_chain():
    model, operating_set = two_mass_model()
    rng = np.random.default_rng(3)
    q = operating_set.sample(rng, 1)[0]
    rows = phi2_rows(model, q)
    assert rows.shape == (1, 2)
    defect = np.abs(rows @ np.linalg.solve(model.mass_matrix(q),
                                           model.input_map(q))).max()
    assert defect <= 1e-12


def test_phi2_rows_rejects_a_zero_high_gain_matrix():
    # Force on mass 1, output at mass 2: Gamma = H M^-1 B is zero.
    model, _ = two_mass_model(output_masses=(1,))
    with pytest.raises(GammaSingular, match="high-gain matrix is singular"):
        phi2_rows(model, np.zeros(2))


def test_phi_tilde_row_is_momentum_row_for_homogeneous_arm():
    params = homogenized(RobotParams.reference())
    rng = np.random.default_rng(4)
    qs = robot_operating_set(params).sample(rng, 100)
    from servofunnel.robot import mass_matrix

    assert np.abs(momentum_row(params, qs) - mass_matrix(params, qs)[..., 4, :]).max() < 1e-12

    # With the rounded inertia table the two rows must differ, which is
    # exactly the model error the robust tracking study exercises.
    rounded = RobotParams.reference()
    gap = np.abs(momentum_row(rounded, qs) - mass_matrix(rounded, qs)[..., 4, :]).max()
    assert gap > 1e-5


@pytest.mark.parametrize("lead", [(6,), (2, 3)])
def test_internal_coordinate_maps_batched_match_single(lead):
    # psi takes one state, on floats: each row agrees with the batched
    # numpy formula to rounding (numpy's products may fuse multiply-adds;
    # worst measured 8.0e-16).
    params = RobotParams.reference()
    lin = linearize(params, *reference_endpoints(params))
    rng = np.random.default_rng(8)
    qs = robot_operating_set(params).sample(rng, 6).reshape(lead + (5,))
    vs = rng.normal(size=lead + (5,))
    batched = psi_numpy(qs, vs, lin, params)
    for idx in np.ndindex(lead):
        single = psi(qs[idx], vs[idx], lin, params, output(params, qs[idx]))
        assert abs(single - batched[idx]) <= 1e-13 * max(1.0, abs(batched[idx])), idx


def test_internal_rhs_denominator_singularity():
    params = RobotParams.reference()
    eta = np.array([np.arccos(2.0 / 3.0), 0.0])
    y = np.array([0.0, 0.3])
    with pytest.raises(DenominatorSingular):
        robot_internal_rhs(eta, y, np.zeros(2), params)


def test_internal_rhs_matches_multibody_flow():
    """Closed-form internal dynamics against the full constrained flow.

    Integrate the unforced robot with an exact homogeneous arm from a
    consistent kicked state, then compare finite differences of the
    internal coordinates along the trajectory with the closed-form rates.
    """
    from servofunnel.simulate import integrate_open_loop

    params = homogenized(RobotParams.reference())
    model = robot_model(params)
    q0, _ = initial_state(params)
    basis = kernel_basis(np.asarray(model.holonomic_jacobian(q0)))
    v0 = basis @ np.array([0.3, -0.2, 0.4])
    t, qs, vs = integrate_open_loop(model, lambda s: np.zeros(2),
                                    np.concatenate([q0, v0]), (0.0, 0.05),
                                    rel_tol=1e-10, abs_tol=1e-12, max_step=1e-4)
    eta1 = qs[:, 4]
    eta2 = np.einsum("...i,...i->...", momentum_row(params, qs), vs)
    y = output(params, qs)
    ydot = vs @ output_jacobian(params, q0).T
    rate1, rate2 = robot_internal_rhs(np.stack([eta1, eta2], axis=-1),
                                      y, ydot, params)
    interior = slice(2, -2)
    assert np.abs(np.gradient(eta1, t)[interior] - rate1[interior]).max() < 1e-4
    assert np.abs(np.gradient(eta2, t)[interior] - rate2[interior]).max() < 1e-4


def test_linearize_spectrum_and_forcing():
    params = RobotParams.reference()
    y0, yf = reference_endpoints(params)
    lin = linearize(params, y0, yf)

    # State matrix in closed form: the rate map is linear at rest.
    gain0 = -2.0 * (params.L2 + 2.0 * params.L3) / (params.kappa * params.L2)
    expected_q = np.array([[0.0, gain0], [-params.c, -params.D * gain0]])
    assert np.abs(lin.q - expected_q).max() < 1e-9
    assert np.abs(lin.p1).max() == 0.0

    assert abs(lin.mu_stable - (-24.862283053544)) < 1e-6
    assert abs(lin.mu_unstable - 28.391694818250) < 1e-6
    assert lin.qtilde == lin.mu_unstable
    assert abs(lin.ptilde[1] / lin.ptilde[0] - (-10.0 / 9.0)) < 1e-9

    diag = lin.tinv @ lin.q @ lin.t
    assert np.abs(diag - np.diag([lin.mu_stable, lin.mu_unstable])).max() < 1e-10

    # The realization row is a left eigenvector for the unstable rate.
    left = lin.tinv[1]
    assert np.abs(left @ lin.q - lin.mu_unstable * left).max() < 1e-10


def test_psi_fixed_point_at_rest():
    params = RobotParams.reference()
    y0, yf = reference_endpoints(params)
    lin = linearize(params, y0, yf)
    q0, v0 = initial_state(params)
    value = psi(q0, v0, lin, params, output(params, q0))
    rate = lin.qtilde * value + lin.ptilde @ output(params, q0)
    assert abs(rate) < 1e-9 * abs(lin.ptilde @ output(params, q0))


def test_psi_rate_tracks_linear_model_along_flow():
    """The realized unstable coordinate obeys its scalar rate law.

    Kick an equilibrium near the middle of the study's output range and
    check psidot against qtilde psi + ptilde y along the unforced flow.
    """
    from servofunnel.bvp import equilibrium
    from servofunnel.simulate import integrate_open_loop

    params = homogenized(RobotParams.reference())
    model = robot_model(params)
    y0, yf = reference_endpoints(params)
    lin = linearize(params, y0, yf)
    q0, _ = initial_state(params)
    qe, _, _, ue = equilibrium(model, 0.5 * (y0 + yf), q0)
    basis = kernel_basis(np.asarray(model.holonomic_jacobian(qe)))
    v0 = basis @ np.array([0.05, -0.04, 0.06])
    t, qs, vs = integrate_open_loop(model, lambda s: np.array(ue),
                                    np.concatenate([qe, v0]), (0.0, 0.08),
                                    rel_tol=1e-10, abs_tol=1e-12, max_step=1e-4)
    values = np.array([psi(q, v, lin, params, y)
                       for q, v, y in zip(qs, vs, output(params, qs))])
    model_rate = lin.qtilde * values + output(params, qs) @ lin.ptilde
    fd_rate = np.gradient(values, t)
    interior = slice(2, -2)
    defect = np.abs(fd_rate[interior] - model_rate[interior]).max()
    assert defect <= 0.05 * np.abs(fd_rate).max()
