"""Tests for the kinematic-loop robot: kinematics, dynamics and geometry."""

import dataclasses

import numpy as np
import pytest

from oracles import contains, det_gamma_closed_form, homogenized
from servofunnel.errors import (
    InfeasibleGeometry,
    NonFiniteEvaluation,
    OutOfReach,
    SaddleSingular,
)
from servofunnel.internal import high_gain
from servofunnel.linalg import fd_jacobian
from servofunnel.model import solve_assembled_saddle
from servofunnel.robot import (
    RobotParams,
    end_effector,
    generalized_forces,
    index1_solve,
    initial_configuration,
    initial_state,
    input_map,
    loop_closure,
    loop_closure_jacobian,
    loop_closure_jacobian_dot,
    mass_matrix,
    output,
    output_from_end_effector,
    output_jacobian,
    robot_model,
    robot_operating_set,
)


def sample_configurations(params, count, seed=0):
    rng = np.random.default_rng(seed)
    return robot_operating_set(params).sample(rng, count)


@pytest.mark.parametrize("params", [RobotParams.reference(), RobotParams.simulated()])
def test_mass_matrix_symmetric_positive_definite(params):
    qs = sample_configurations(params, 200)
    m = mass_matrix(params, qs)
    assert m.shape == (200, 5, 5)
    assert np.abs(m - np.swapaxes(m, -1, -2)).max() == 0.0
    assert np.linalg.eigvalsh(m).min() > 1e-3


def assert_rows_match(fn, *batches):
    """``fn`` on a batch equals ``fn`` on each row of it, bit for bit."""
    batched = fn(*batches)
    for idx in np.ndindex(batches[0].shape[:-1]):
        single = fn(*(b[idx] for b in batches))
        assert np.array_equal(batched[idx], single), idx


_ROBOT_CALLABLES = {
    "mass_matrix": lambda p, q, v: mass_matrix(p, q),
    "generalized_forces": generalized_forces,
    "loop_closure": lambda p, q, v: loop_closure(p, q),
    "loop_closure_jacobian": lambda p, q, v: loop_closure_jacobian(p, q),
    "loop_closure_jacobian_dot": loop_closure_jacobian_dot,
    "output": lambda p, q, v: output(p, q),
}


@pytest.mark.parametrize("lead", [(6,), (2, 3)])
@pytest.mark.parametrize("name", sorted(_ROBOT_CALLABLES))
def test_robot_callables_batched_match_single(name, lead):
    # One state unpacks into numpy scalars, a batch into views: both
    # branches must give the same bits.
    params = RobotParams.simulated()
    qs = sample_configurations(params, 6, seed=5).reshape(lead + (5,))
    # Rates whose scalar ``** 2`` (a libm ``pow``) rounds differently from
    # their array square, where this platform has such values.
    pool = np.random.default_rng(6).normal(size=20000)
    odd = pool[[np.float64(x) ** 2 != x * x for x in pool]]
    vs = np.resize(odd if odd.size else pool, lead + (5,))
    fn = _ROBOT_CALLABLES[name]
    assert_rows_match(lambda q, v: fn(params, q, v), qs, vs)


@pytest.mark.parametrize("params", [RobotParams.reference(), RobotParams.simulated()],
                         ids=["reference", "simulated"])
def test_index1_solve_agrees_with_the_lu_of_the_assembled_saddle(params):
    # The block elimination and the checked LU of the saddle assembled
    # from the separate callables solve one system by different
    # algorithms, so they agree to rounding, not bit for bit; the worst
    # case measured over these states is below 4e-15.  Rates span five
    # decades, so the velocity terms dominate some states and not others.
    model = robot_model(params)
    qs = sample_configurations(params, 10000, seed=22)
    rng = np.random.default_rng(23)
    vs = rng.normal(size=qs.shape) * 10.0 ** rng.integers(-3, 2, size=(len(qs), 1))
    us = rng.normal(scale=50.0, size=(len(qs), 2))
    for k, (q, v, u) in enumerate(zip(qs, vs, us)):
        got = [np.asarray(part) for part in index1_solve(params, q, v, u)]
        want = solve_assembled_saddle(model, q, v, u)
        for part, (x, y) in enumerate(zip(got, want)):
            assert x.shape == y.shape, (k, part)
            assert np.abs(x - y).max() <= 1e-13 * max(1.0, np.abs(y).max()), (k, part)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("part, index", [(0, 0), (0, 2), (0, 4), (1, 1), (1, 3), (2, 1)],
                         ids=["s1", "alpha", "gamma", "s2-rate", "beta-rate", "u2"])
def test_index1_solve_rejects_a_non_finite_state(part, index, value):
    params = RobotParams.reference()
    state = [*initial_state(params), np.zeros(2)]
    state[part][index] = value
    with pytest.raises(NonFiniteEvaluation):
        index1_solve(params, *state)


def test_index1_solve_rejects_a_singular_mass_block():
    # Without crank inertia, the (s1, alpha) block of M is singular at the
    # dead centre alpha = 0: its second pivot vanishes.
    params = dataclasses.replace(RobotParams.reference(), I1=1e-30)
    q, v = initial_state(params)
    q[2] = 0.0
    with pytest.raises(SaddleSingular, match=r"mass block \(s1, alpha\)"):
        index1_solve(params, q, v, np.zeros(2))


def test_index1_solve_rejects_a_large_residual():
    # With a crank inertia of 1e-10 the (s1, alpha) block at alpha = 0
    # keeps its second pivot 30 times above the pivot test's bound, but
    # the cofactor inverse is so ill-conditioned that the saddle residual
    # reaches about 1e-7, far above SADDLE_RESIDUAL_RTOL.
    params = dataclasses.replace(RobotParams.reference(), I1=1e-10)
    with pytest.raises(SaddleSingular, match="saddle solve residual"):
        index1_solve(params, [0.0, 0.0, 0.0, 0.3, 0.1], [0.0] * 5, [1.0, 0.0])


def test_derived_constants_are_cached_per_instance():
    params = RobotParams.reference()
    assert params.kappa == params.m3 * params.L3 ** 2 / 3.0
    assert params.delta == 2.0 * params.L3 / (params.L2 + 2.0 * params.L3)
    assert params.arm_radius == params.L2 / 2.0 + params.L3
    heavier = dataclasses.replace(params, m3=4.1)
    assert heavier.kappa == 4.1 * params.L3 ** 2 / 3.0 != params.kappa
    assert params.kappa == params.m3 * params.L3 ** 2 / 3.0
    # The cache lives in the instance dict, outside the fields, so
    # equality and hashing see only the fields.
    fresh = RobotParams.reference()
    for name in ("kappa", "delta", "arm_radius"):
        assert name in vars(params) and name not in vars(fresh)
    assert params == fresh and hash(params) == hash(fresh)
    assert params != heavier


@pytest.mark.parametrize("lead", [(6,), (2, 3)])
def test_tool_tip_maps_batched_match_single(lead):
    params = RobotParams.reference()
    rng = np.random.default_rng(7)
    ys = rng.uniform([-0.5, -0.6], [0.5, 0.6], size=lead + (2,))
    r_app = end_effector(params, ys)
    assert_rows_match(lambda y: end_effector(params, y), ys)
    assert_rows_match(lambda r: output_from_end_effector(params, r), r_app)


def test_forces_match_christoffel_construction():
    """The gyroscopic part of f must follow from the mass matrix itself.

    With kinetic energy ``v^T M(q) v / 2``, a joint spring ``c gamma^2 / 2``
    and viscous damping ``D gammadot``, Lagrange's equations force
    ``f = -C(q, v) v - dV/dq - damping`` where ``C`` collects the
    Christoffel symbols of ``M``.  Assemble that from finite differences
    of ``mass_matrix`` and compare.
    """
    params = RobotParams.reference()
    rng = np.random.default_rng(11)
    step = 1e-6
    for _ in range(20):
        q = rng.uniform(-1.0, 1.0, 5)
        v = rng.uniform(-1.0, 1.0, 5)
        dm = np.zeros((5, 5, 5))
        for k in range(5):
            shift = np.zeros(5)
            shift[k] = step
            dm[:, :, k] = (mass_matrix(params, q + shift)
                           - mass_matrix(params, q - shift)) / (2.0 * step)
        coriolis = 0.5 * (np.einsum("ijk,k->ij", dm, v)
                          + np.einsum("ikj,k->ij", dm, v)
                          - np.einsum("jki,k->ij", dm, v))
        spring = np.zeros(5)
        spring[4] = params.c * q[4]
        damping = np.zeros(5)
        damping[4] = params.D * v[4]
        expected = -coriolis @ v - spring - damping
        assert np.abs(expected - generalized_forces(params, q, v)).max() < 1e-8


def test_loop_closure_zero_at_rest():
    params = RobotParams.reference()
    q0, v0 = initial_state(params)
    assert np.abs(loop_closure(params, q0)).max() < 1e-14
    assert np.array_equal(v0, np.zeros(5))
    jac = loop_closure_jacobian(params, q0)
    assert np.linalg.matrix_rank(jac) == 2


def test_closure_jacobian_matches_fd():
    params = RobotParams.reference()
    for seed, q in enumerate(sample_configurations(params, 10, seed=2)):
        expected = fd_jacobian(lambda x: loop_closure(params, x), q)
        assert np.abs(loop_closure_jacobian(params, q) - expected).max() < 1e-8


def test_closure_jacobian_dot_matches_fd():
    params = RobotParams.reference()
    rng = np.random.default_rng(7)
    step = 1e-6
    for q in sample_configurations(params, 10, seed=3):
        v = rng.uniform(-1.0, 1.0, 5)
        fd = (loop_closure_jacobian(params, q + step * v)
              - loop_closure_jacobian(params, q - step * v)) / (2.0 * step)
        assert np.abs(loop_closure_jacobian_dot(params, q, v) - fd).max() < 1e-7


def test_output_jacobian_matches_fd():
    params = RobotParams.reference()
    for q in sample_configurations(params, 5, seed=4):
        expected = fd_jacobian(lambda x: output(params, x), q)
        assert np.abs(output_jacobian(params, q) - expected).max() < 1e-9


def test_input_map_hits_sliders_only():
    params = RobotParams.reference()
    b = input_map(params, np.zeros(5))
    expected = np.zeros((5, 2))
    expected[0, 0] = 1.0
    expected[1, 1] = 1.0
    assert np.array_equal(b, expected)


def test_initial_configuration_reference_geometry():
    params = RobotParams.reference()
    alpha0, beta0 = initial_configuration(params)
    assert abs(alpha0 - np.arcsin(0.6)) < 1e-12
    assert abs(beta0 - np.arcsin(0.6)) < 1e-12
    q0, _ = initial_state(params)
    assert np.array_equal(q0[:2], np.zeros(2))
    assert q0[4] == 0.0


def test_initial_configuration_infeasible_geometry():
    params = dataclasses.replace(RobotParams.reference(), d=5.0)
    with pytest.raises(InfeasibleGeometry):
        initial_configuration(params)


def test_initial_configuration_rejects_a_right_angle_at_the_rod():
    # L1^2 = d^2 + (L2 / 2)^2 puts a right angle opposite the crank, so
    # sin(beta0) is 1 up to rounding; here it rounds to 1 + 2^-52.
    params = dataclasses.replace(RobotParams.reference(), d=0.3, L2=0.8)
    with pytest.raises(InfeasibleGeometry, match=r"sin\(beta0\)"):
        initial_configuration(params)


def test_params_reject_nonpositive_entries():
    with pytest.raises(ValueError):
        dataclasses.replace(RobotParams.reference(), m3=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(RobotParams.reference(), D=-0.1)


def test_end_effector_roundtrip():
    params = RobotParams.reference()
    rng = np.random.default_rng(9)
    targets = np.stack([rng.uniform(0.5, 2.0, 100),
                        rng.uniform(-0.95, 0.95, 100)], axis=-1)
    y = output_from_end_effector(params, targets)
    back = end_effector(params, y)
    assert np.abs(back - targets).max() < 1e-12


def test_end_effector_out_of_reach():
    params = RobotParams.reference()
    with pytest.raises(OutOfReach):
        output_from_end_effector(params, np.array([1.0, -params.arm_radius]))


def test_output_endpoints_of_study_targets():
    params = RobotParams.reference()
    y0 = output_from_end_effector(params, np.array([1.6, -0.6]))
    yf = output_from_end_effector(params, np.array([0.9, -0.9]))
    assert np.abs(y0 - np.array([0.0, np.arcsin(0.6)])).max() < 1e-12
    assert np.abs(yf - np.array([0.9 - 0.8 - np.sqrt(0.19),
                                 np.arcsin(0.9)])).max() < 1e-12


def assembled_det(params, qs):
    """Determinant of ``internal.high_gain``'s matrix at each configuration."""
    model = robot_model(params)
    return np.array([np.linalg.det(high_gain(model, q).gamma) for q in qs])


def test_high_gain_determinant_matches_closed_form():
    for params in (RobotParams.reference(), RobotParams.simulated()):
        qs = sample_configurations(params, 200, seed=13)
        assembled = assembled_det(params, qs)
        closed = det_gamma_closed_form(params, qs)
        rel = np.abs(assembled - closed) / np.abs(closed)
        assert rel.max() < 1e-6


def test_high_gain_determinant_positive_for_homogeneous_arm():
    params = homogenized(RobotParams.reference())
    qs = sample_configurations(params, 500, seed=17)
    assert assembled_det(params, qs).min() > 0.0


@pytest.mark.parametrize("params", [RobotParams.simulated(),
                                    homogenized(RobotParams.reference())],
                         ids=["simulated", "homogenized"])
def test_high_gain_determinant_positive_at_arm_angle_edge(params):
    # On both sets the binding cosine bound is 2/3, the zero of the
    # internal dynamics' rod-rate denominator; for the homogeneous rod it
    # is also the determinant's zero.  Bisect on gamma from the rest state
    # for the set's edge and probe 1e-6 inside it in cos(gamma).
    opset = robot_operating_set(params)
    q0, _ = initial_state(params)
    q = q0.copy()
    inside, outside = 0.0, np.pi / 2.0
    for _ in range(60):
        q[4] = 0.5 * (inside + outside)
        if contains(opset, q):
            inside = q[4]
        else:
            outside = q[4]
    assert abs(np.cos(outside) - 2.0 / 3.0) < 1e-12
    gamma_edge = np.arccos(np.cos(outside) + 1e-6)
    probes = np.array([q0, q0])
    probes[:, 4] = gamma_edge, -gamma_edge
    assert all(contains(opset, probe) for probe in probes)
    assert assembled_det(params, probes).min() > 0.0


def test_robot_model_bundle_dimensions():
    params = RobotParams.reference()
    model = robot_model(params)
    assert (model.dims.n, model.dims.holonomic, model.dims.inputs) == (5, 2, 2)
    q = sample_configurations(params, 1, seed=21)[0]
    assert model.holonomic(q).shape == (2,)
    assert model.output(q).shape == (2,)
