"""Tests for the inversion boundary value problem and its feedforward."""

import dataclasses

import numpy as np
import pytest

from servofunnel import bvp
from servofunnel.bvp import (
    BoundarySelection,
    BvpOptions,
    _initial_guess,
    _Transcription,
    equilibrium,
    feedforward,
    robot_boundary_preset,
    solve_bvp,
)
from servofunnel.errors import BadGrid, NewtonDiverged, NonFiniteEvaluation, SingularMatrix
from servofunnel.funnel import ReferenceSignal
from servofunnel.model import two_mass_model
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


def _node_targets():
    """Output targets of every node of the default 350-interval grid."""
    grid = np.linspace(REFERENCE.t_start - bvp.WINDOW_BEFORE,
                       REFERENCE.t_end + bvp.WINDOW_AFTER, 351)
    return np.asarray(REFERENCE(grid)[0])


def test_batched_equilibrium_equals_per_target_calls():
    q0, _ = initial_state(PARAMS)
    targets = _node_targets()
    q, v, lam, u = equilibrium(MODEL, targets, q0)
    assert q.shape == (351, 5) and v.shape == (351, 5)
    assert lam.shape == (351, 2) and u.shape == (351, 2)
    assert not v.any()
    for k, y in enumerate(targets):
        qk, _, lamk, uk = equilibrium(MODEL, y, q0)
        assert np.abs(np.concatenate([q[k] - qk, lam[k] - lamk, u[k] - uk])).max() <= 1e-12


def test_batched_equilibrium_names_unreachable_target():
    q0, _ = initial_state(PARAMS)
    targets = _node_targets()[::50].copy()
    targets[3] = (10.0, 1.5)
    with pytest.raises(NewtonDiverged, match=r"target 3\b"):
        equilibrium(MODEL, targets, q0)


def test_equilibrium_names_target_with_non_finite_residual():
    # The two-mass plant's forces blow up once mass 1 passes 1: the first
    # Newton step puts it at its target, so only target 2 goes non-finite.
    base, _ = two_mass_model()
    model = dataclasses.replace(base, forces=lambda q, v: np.where(
        np.asarray(q)[..., :1] > 1.0, np.inf, base.forces(q, v)))
    targets = np.array([[0.1], [0.2], [5.0], [0.3]])
    with pytest.raises(NewtonDiverged, match=r"non-finite at target 2\b"):
        equilibrium(model, targets, np.zeros(2))


def test_equilibrium_names_target_with_singular_block():
    # The input acts nowhere once mass 2 starts past 1, so the Jacobian
    # block of target 2, whose guess starts it there, has a zero column.
    base, _ = two_mass_model()
    model = dataclasses.replace(base, input_map=lambda q: np.where(
        np.asarray(q)[..., 1:, None] > 1.0, 0.0, base.input_map(q)))
    targets = np.array([[0.1], [0.2], [0.4], [0.3]])
    guess = np.zeros((4, 2))
    guess[2, 1] = 2.0
    with pytest.raises(NewtonDiverged, match=r"Newton failed at target 2\b") as info:
        equilibrium(model, targets, guess)
    assert isinstance(info.value.__cause__, SingularMatrix)


def test_grouped_jacobian_equals_per_column_differences(monkeypatch):
    grid = np.linspace(-0.5, 2.0, 21)
    trans = _Transcription(MODEL, REFERENCE, SELECTION, grid)
    z = _initial_guess(MODEL, REFERENCE, SELECTION, grid)
    base = trans.residual(z)
    steps = 1e-7 * np.maximum(1.0, np.abs(z))
    dense = np.empty((trans.size, trans.size))
    for c in range(trans.size):
        zp = z.copy()
        zp[c] += steps[c]
        dense[:, c] = (trans.residual(zp) - base) / steps[c]

    calls = []
    residual = trans.residual
    monkeypatch.setattr(trans, "residual", lambda zp: calls.append(1) or residual(zp))
    ab = trans.banded_jacobian(z, base)
    assert len(calls) == 28

    lower, upper = trans.bandwidths
    r, c = np.indices(dense.shape)
    band = (r - c <= lower) & (c - r <= upper)
    assert not dense[~band].any()
    assert np.array_equal(ab[upper + r[band] - c[band], c[band]], dense[band])


def test_boundary_selection_validation():
    with pytest.raises(ValueError):
        BoundarySelection(fixed_start=((0, 0.0), (0, 1.0)), fixed_end=())
    with pytest.raises(ValueError):
        BoundarySelection(fixed_start=((-1, 0.0),), fixed_end=())


@pytest.mark.parametrize("fixed_start, fixed_end, message", [
    (((0, 0.0), (1, 0.0)), ((0, 0.5),), r"pins 3 entries, need 5"),
    (((0, 0.0), (1, 0.0), (2, 0.0)), ((0, 0.5), (5, 0.0)), r"outside the node stack"),
], ids=["too-few-pins", "index-past-the-node"])
def test_transcription_rejects_a_selection_that_misses_one_node(fixed_start, fixed_end,
                                                                message):
    # The two-mass node stack (q, v, u) is 5 entries wide.
    model, _ = two_mass_model()
    sel = BoundarySelection(fixed_start=fixed_start, fixed_end=fixed_end)

    def rest(t):
        return np.zeros(np.shape(t) + (1,)), np.zeros(np.shape(t) + (1,))

    with pytest.raises(ValueError, match=message):
        _Transcription(model, rest, sel, np.linspace(0.0, 1.0, 11))


def test_newton_turns_a_singular_band_into_divergence():
    class ZeroBand:
        bandwidths = (1, 1)

        def residual(self, z):
            return z - 1.0

        def banded_jacobian(self, z, base):
            return np.zeros((3, z.size))

    with pytest.raises(NewtonDiverged, match="singular Jacobian") as info:
        bvp._newton(ZeroBand(), np.zeros(4))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_equilibrium_turns_a_non_finite_difference_into_divergence():
    # The forces blow up just past mass 1's guess 0: the residual at the
    # guess is finite, but the central difference steps onto the other side.
    base, _ = two_mass_model()
    model = dataclasses.replace(base, forces=lambda q, v: np.where(
        np.asarray(q)[..., :1] > 0.0, np.inf, base.forces(q, v)))
    with pytest.raises(NewtonDiverged, match=r"Newton failed: function evaluation") as info:
        equilibrium(model, np.array([[0.1], [0.2]]), np.zeros(2))
    assert isinstance(info.value.__cause__, NonFiniteEvaluation)


def test_line_search_backs_off_a_non_finite_residual(monkeypatch):
    # On 40 intervals the first full Newton step from the equilibrium
    # guess takes the arm angle down to -0.0887 rad, past the solution's
    # -0.0867.  Forces that are NaN below -0.0876 rad make that candidate's
    # residual non-finite; the line search shortens the step, and Newton
    # still converges.
    model = dataclasses.replace(MODEL, forces=lambda q, v: np.where(
        np.asarray(q)[..., 4:] < -0.0876, np.nan, MODEL.forces(q, v)))
    grid = BvpOptions(intervals=40).grid(REFERENCE)
    trans = _Transcription(model, REFERENCE, SELECTION, grid)
    rejected = []
    residual = trans.residual

    def recording(z):
        try:
            return residual(z)
        except NonFiniteEvaluation:
            rejected.append(z)
            raise

    monkeypatch.setattr(trans, "residual", recording)
    z, norm, _ = bvp._newton(trans, _initial_guess(model, REFERENCE, SELECTION, grid))
    assert len(rejected) == 1
    assert norm <= bvp.RESIDUAL_TOL
    assert trans.split(z)[0][:, 4].min() > -0.0876


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
    offset = len(SELECTION.fixed_start)
    blocks = set(range(offset + 14 * (k - 1), offset + 14 * (k + 1)))
    assert set(changed.tolist()) <= blocks
    # Closure and servo rows are input-free, so only defect rows may move.
    for row in changed:
        assert (row - offset) % 14 < 10


def test_bad_grid_rejections():
    with pytest.raises(BadGrid):
        solve_bvp(MODEL, REFERENCE, SELECTION, BvpOptions(intervals=10))
    with pytest.raises(BadGrid):
        solve_bvp(MODEL, REFERENCE, SELECTION,
                  BvpOptions(t_start=1.0, t_end=0.5))


def test_newton_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(bvp, "MAX_NEWTON_ITERATIONS", 0)
    with pytest.raises(NewtonDiverged):
        solve_bvp(MODEL, REFERENCE, SELECTION, BvpOptions(intervals=20))


def test_every_small_grid_converges():
    """Each admissible grid from 20 to 40 intervals reaches the tolerance."""
    for intervals in range(20, 41):
        sol = solve_bvp(MODEL, REFERENCE, SELECTION,
                        BvpOptions(intervals=intervals))
        assert sol.final_residual <= 1e-8, intervals


def test_jacobian_at_initial_guess_is_well_conditioned():
    """Pinning each quantity once leaves no null direction in the Jacobian.

    Measured: sigma_min/sigma_max = 2.6e-8 at 100 intervals; a pin set
    that fixes one start quantity twice gives 7e-19.
    """
    grid = np.linspace(-0.5, 2.0, 101)
    trans = _Transcription(MODEL, REFERENCE, SELECTION, grid)
    z = _initial_guess(MODEL, REFERENCE, SELECTION, grid)
    ab = trans.banded_jacobian(z, trans.residual(z))
    lower, upper = trans.bandwidths
    dense = np.zeros((trans.size, trans.size))
    for c in range(trans.size):
        rows = np.arange(max(0, c - upper), min(trans.size, c + lower + 1))
        dense[rows, c] = ab[upper + rows - c, c]
    sv = np.linalg.svd(dense, compute_uv=False)
    assert sv[-1] / sv[0] >= 1e-12


def test_doubly_pinned_start_has_no_newton_step():
    """Pinning s2's start rate besides its servo row leaves lam1 free at
    the end: the Jacobian is singular and its LU step finds no descent."""
    alpha0, beta0 = initial_configuration(PARAMS)
    over_pinned = BoundarySelection(
        fixed_start=((0, 0.0), (1, 0.0), (2, alpha0), (3, beta0), (4, 0.0),
                     (5, 0.0), (6, 0.0), (10, 0.0), (12, 0.0), (13, 0.0)),
        fixed_end=((4, 0.0), (11, 0.0), (12, 0.0), (13, 0.0)))
    with pytest.raises(NewtonDiverged):
        solve_bvp(MODEL, REFERENCE, over_pinned, BvpOptions(intervals=100))


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
    assert abs(sol.v[0, 0]) < 1e-10
    # s2's start rate is fixed by the servo rows, not pinned: measured
    # 1.3e-8 at 120 intervals.
    assert abs(sol.v[0, 1]) <= 1e-6
    assert abs(sol.lam[0, 0]) < 1e-10
    assert np.abs(sol.u[0]).max() < 1e-10
    assert abs(sol.q[-1, 4]) < 1e-10
    assert abs(sol.lam[-1, 0]) < 1e-10
    assert abs(sol.lam[-1, 1]) < 1e-10
    assert np.abs(sol.u[-1]).max() < 1e-10
    # Inputs rest before the reference starts moving: no pre-actuation
    # burst right at the window edge.
    assert np.linalg.norm(sol.u[0]) <= 1e-3


def test_feedforward_interpolant(quick_solution):
    sol = quick_solution
    u_ff = feedforward(sol)
    u_fn = lambda ts: np.array([u_ff(t) for t in ts])
    assert np.abs(u_fn(sol.grid) - sol.u).max() < 1e-12
    # Between nodes it is the input the transcription solved for.
    mid = 0.5 * (sol.grid[:-1] + sol.grid[1:])
    assert np.abs(u_fn(mid) - 0.5 * (sol.u[:-1] + sol.u[1:])).max() < 1e-12
    assert np.abs(u_fn(np.array([-5.0, -0.51])) - sol.u[0]).max() < 1e-12
    assert np.abs(u_fn(np.array([4.0])) - sol.u[-1]).max() < 1e-12
    single = u_ff(0.7)
    assert np.asarray(single).shape == (2,)
    # Each column is numpy's own linear interpolant, to the bit.
    for t in (0.7, *mid):
        assert np.array_equal(u_ff(t), [np.interp(t, sol.grid, u) for u in sol.u.T])


def test_feedforward_single_time_has_np_interp_bits(quick_solution):
    # One time gets np.interp's formula for one point, to the bit, on
    # every kind of time the closed loop can pass.
    sol = quick_solution
    u_fn = feedforward(sol)
    grid = sol.grid
    inside = grid[:-1] + np.random.default_rng(5).uniform(size=grid.size - 1) * np.diff(grid)
    times = np.concatenate([
        grid,                                    # nodes, both window ends included
        inside,                                  # inside each interval
        np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
        [grid[0] - 0.3, grid[0] - 100.0, grid[-1] + 0.3, grid[-1] + 100.0],  # outside
    ])
    for t in times.tolist():
        got = u_fn(t)
        want = [np.interp(t, grid, column) for column in sol.u.T]
        assert type(got) is tuple and all(type(x) is float for x in got), t
        assert [x.hex() for x in got] == [float(x).hex() for x in want], t
        # The log's times and CSV columns are np.float64: same floats, same bits.
        got64 = u_fn(np.float64(t))
        assert type(got64) is tuple and all(type(x) is float for x in got64), t
        assert [x.hex() for x in got64] == [x.hex() for x in got], t


def test_grid_refinement_converges():
    coarse = solve_bvp(MODEL, REFERENCE, SELECTION,
                       BvpOptions(t_start=-0.5, t_end=3.0, intervals=200))
    fine = solve_bvp(MODEL, REFERENCE, SELECTION,
                     BvpOptions(t_start=-0.5, t_end=3.0, intervals=400))
    ts = np.linspace(-0.5, 3.0, 500)
    ff_coarse, ff_fine = feedforward(coarse), feedforward(fine)
    u_coarse = np.array([ff_coarse(t) for t in ts])
    u_fine = np.array([ff_fine(t) for t in ts])
    scale = np.abs(u_fine).max()
    assert np.abs(u_coarse - u_fine).max() <= 0.01 * scale


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
