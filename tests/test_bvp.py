"""Tests for the inversion boundary value problem and its feedforward."""

import numpy as np
import pytest

from servofunnel.bvp import (
    BoundarySelection,
    BvpOptions,
    _Transcription,
    equilibrium,
    feedforward,
    robot_boundary_preset,
    solve_bvp,
)
from servofunnel.errors import BadGrid, NewtonDiverged
from servofunnel.funnel import ReferenceSignal
from servofunnel.robot import (
    RobotParams,
    initial_configuration,
    initial_state,
    loop_closure,
    output,
    robot_model,
)

PARAMS = RobotParams.reference()
MODEL = robot_model(PARAMS)
REFERENCE = ReferenceSignal(PARAMS)
SELECTION = robot_boundary_preset(PARAMS)


@pytest.fixture(scope="module")
def quick_solution():
    """One moderately fine solve shared by the invariant checks."""
    return solve_bvp(MODEL, REFERENCE, SELECTION, BvpOptions(intervals=120))


def test_equilibrium_at_start_matches_rest_state():
    q0, _ = initial_state(PARAMS)
    y0 = np.asarray(REFERENCE(0.0)[0])
    q, v, lam, u = equilibrium(MODEL, y0, q0)
    assert np.abs(q - q0).max() < 1e-8
    assert np.array_equal(v, np.zeros(5))
    assert np.abs(lam).max() < 1e-9
    assert np.abs(u).max() < 1e-9


def test_equilibrium_at_end_frozen_values():
    q0, _ = initial_state(PARAMS)
    yf = np.asarray(REFERENCE(1.0)[0])
    q, _, lam, u = equilibrium(MODEL, yf, q0)
    expected = np.array([0.01479578, -0.33588989, 1.05603133, 1.11976951, 0.0])
    assert np.abs(q - expected).max() < 1e-6
    # The arm spring is unloaded at rest, so no input or multiplier holds it.
    assert np.abs(lam).max() < 1e-9
    assert np.abs(u).max() < 1e-9


def test_equilibrium_rejects_unreachable_target():
    q0, _ = initial_state(PARAMS)
    with pytest.raises(NewtonDiverged):
        equilibrium(MODEL, np.array([10.0, 1.5]), q0)


def test_boundary_selection_validation():
    with pytest.raises(ValueError):
        BoundarySelection(fixed_start=((0, 0.0), (0, 1.0)), fixed_end=())
    with pytest.raises(ValueError):
        BoundarySelection(fixed_start=((-1, 0.0),), fixed_end=())


def test_robot_preset_pins_one_full_node():
    width = 2 * 5 + 2 + 2
    pins = len(SELECTION.fixed_start) + len(SELECTION.fixed_end)
    assert pins == width
    assert all(0 <= i < width for i, _ in SELECTION.fixed_start + SELECTION.fixed_end)
    alpha0, beta0 = initial_configuration(PARAMS)
    start = dict(SELECTION.fixed_start)
    assert start[2] == alpha0 and start[3] == beta0
    assert dict(SELECTION.fixed_end)[4] == 0.0


def test_residual_vanishes_on_held_equilibrium():
    """A constant reference held at its equilibrium must be stationary."""
    constant = ReferenceSignal(PARAMS, r_start=(1.6, -0.6), r_end=(1.6, -0.6))
    q0, _ = initial_state(PARAMS)
    grid = np.linspace(-0.5, 2.0, 41)
    node = np.concatenate([q0, np.zeros(5), np.zeros(2), np.zeros(2)])
    z = np.tile(node, grid.size)
    res = _Transcription(MODEL, constant, SELECTION, grid).residual(z)
    assert res.shape == (grid.size * 14,)
    assert np.abs(res).max() < 1e-12


def test_residual_locality_of_an_input_perturbation():
    """Poking one node input only disturbs the two adjacent interval defects."""
    constant = ReferenceSignal(PARAMS, r_start=(1.6, -0.6), r_end=(1.6, -0.6))
    q0, _ = initial_state(PARAMS)
    grid = np.linspace(-0.5, 2.0, 41)
    node = np.concatenate([q0, np.zeros(5), np.zeros(2), np.zeros(2)])
    z = np.tile(node, grid.size)
    trans = _Transcription(MODEL, constant, SELECTION, grid)
    base = trans.residual(z)
    k = 17
    z[14 * k + 12] += 1e-3
    poked = trans.residual(z)
    changed = np.nonzero(np.abs(poked - base) > 1e-15)[0]
    assert changed.size > 0
    blocks = set(range(10 + 14 * (k - 1), 10 + 14 * (k + 1)))
    assert set(changed.tolist()) <= blocks
    # Closure and servo rows are input-free, so only defect rows may move.
    for row in changed:
        assert (row - 10) % 14 < 10


def test_bad_grid_rejections():
    with pytest.raises(BadGrid):
        solve_bvp(MODEL, REFERENCE, SELECTION, BvpOptions(intervals=10))
    with pytest.raises(BadGrid):
        solve_bvp(MODEL, REFERENCE, SELECTION,
                  BvpOptions(t_start=1.0, t_end=0.5))
    with pytest.raises(BadGrid):
        solve_bvp(MODEL, REFERENCE, SELECTION,
                  BvpOptions(intervals=60, coarse_intervals=10))


def test_newton_budget_exhaustion_raises():
    with pytest.raises(NewtonDiverged):
        solve_bvp(MODEL, REFERENCE, SELECTION,
                  BvpOptions(intervals=20, max_iterations=0))


def test_solver_meets_tolerance(quick_solution):
    sol = quick_solution
    assert sol.final_residual <= 1e-8
    assert sol.newton_iterations <= 40
    assert sol.grid[0] == -0.5 and sol.grid[-1] == 2.0
    assert sol.q.shape == (121, 5) and sol.v.shape == (121, 5)
    assert sol.lam.shape == (121, 2) and sol.u.shape == (121, 2)


def test_solution_tracks_servo_and_closure(quick_solution):
    sol = quick_solution
    closure = loop_closure(PARAMS, sol.q)
    servo = output(PARAMS, sol.q) - np.asarray(REFERENCE(sol.grid)[0])
    assert np.abs(closure).max() < 1e-8
    assert np.abs(servo).max() < 1e-8


def test_solution_boundary_pins(quick_solution):
    sol = quick_solution
    alpha0, beta0 = initial_configuration(PARAMS)
    assert np.abs(sol.q[0] - np.array([0.0, 0.0, alpha0, beta0, 0.0])).max() < 1e-10
    assert np.abs(sol.v[0, :2]).max() < 1e-10
    assert abs(sol.lam[0, 0]) < 1e-10
    assert np.abs(sol.u[0]).max() < 1e-10
    assert abs(sol.q[-1, 4]) < 1e-10
    assert abs(sol.lam[-1, 1]) < 1e-10
    assert np.abs(sol.u[-1]).max() < 1e-10
    # Inputs rest before the reference starts moving: no pre-actuation
    # burst right at the window edge.
    assert np.linalg.norm(sol.u[0]) <= 1e-3


def test_feedforward_interpolant(quick_solution):
    sol = quick_solution
    u_fn = feedforward(sol, t0=sol.grid[0])
    assert np.abs(u_fn(sol.grid) - sol.u).max() < 1e-12
    assert np.abs(u_fn(np.array([-5.0, -0.51]))).max() == 0.0
    assert np.abs(u_fn(np.array([4.0])) - sol.u[-1]).max() < 1e-12
    unclipped = feedforward(sol)
    assert np.abs(unclipped(np.array([-5.0])) - sol.u[0]).max() < 1e-12
    single = u_fn(0.7)
    assert np.asarray(single).shape == (2,)


def test_grid_refinement_converges():
    coarse = solve_bvp(MODEL, REFERENCE, SELECTION,
                       BvpOptions(t_start=-0.5, t_end=3.0, intervals=200))
    fine = solve_bvp(MODEL, REFERENCE, SELECTION,
                     BvpOptions(t_start=-0.5, t_end=3.0, intervals=400))
    ts = np.linspace(-0.5, 3.0, 500)
    u_coarse = feedforward(coarse)(ts)
    u_fine = feedforward(fine)(ts)
    scale = np.abs(u_fine).max()
    assert np.abs(u_coarse - u_fine).max() <= 0.01 * scale


def test_staged_solve_matches_direct(quick_solution):
    staged = solve_bvp(MODEL, REFERENCE, SELECTION,
                       BvpOptions(intervals=120, coarse_intervals=60))
    assert staged.final_residual <= 1e-8
    scale = max(np.abs(quick_solution.u).max(), 1.0)
    assert np.abs(staged.u - quick_solution.u).max() < 1e-6 * scale


def test_solution_csv_roundtrip(quick_solution, tmp_path):
    path = tmp_path / "inversion.csv"
    quick_solution.write_csv(path)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "t,q1,q2,q3,q4,q5,v1,v2,v3,v4,v5,lam1,lam2,u1,u2"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    stacked = np.column_stack([quick_solution.grid, quick_solution.q,
                               quick_solution.v, quick_solution.lam,
                               quick_solution.u])
    assert np.array_equal(data, stacked)
