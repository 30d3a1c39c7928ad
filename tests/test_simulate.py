"""Tests for the reduced dynamics, the integrator and scenario handling."""

import pathlib

import numpy as np
import pytest

from servofunnel.errors import (
    ConfigError,
    NonFiniteEvaluation,
    SaddleSingular,
    StepSizeUnderflow,
)
from servofunnel.funnel import (
    ControllerState,
    ReferenceSignal,
    control,
    reference_internal,
)
from servofunnel.internal import linearize
from servofunnel.linalg import kernel_basis, pseudo_inverse_tall
from servofunnel.model import MbsDims
from servofunnel.robot import (
    RobotParams,
    end_effector,
    initial_state,
    mass_matrix,
    robot_model,
)
from servofunnel.simulate import (
    CSV_HEADER,
    Metrics,
    Scenario,
    TimeSeries,
    _rk45,
    compare,
    compute_metrics,
    index1_accelerations,
    integrate_closed_loop,
    integrate_open_loop,
    parse_scenario,
    run_scenario,
)

PARAMS = RobotParams.reference()
MODEL = robot_model(PARAMS)
SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def consistent_velocity(q, weights):
    basis = kernel_basis(np.asarray(MODEL.holonomic_jacobian(q)))
    return basis @ np.asarray(weights, dtype=float)


def test_accelerations_vanish_at_rest():
    q0, v0 = initial_state(PARAMS)
    vdot, lam = index1_accelerations(MODEL, q0, v0, np.zeros(2))
    assert np.abs(vdot).max() < 1e-12
    assert np.abs(lam).max() < 1e-12


def test_accelerations_match_kernel_projection():
    """Cross-check the saddle solve against a null-space formulation.

    On the constraint manifold the accelerations are fixed by the
    projected force balance plus the differentiated closure; multipliers
    follow from the residual force. Both routes must agree.
    """
    q0, _ = initial_state(PARAMS)
    rng = np.random.default_rng(6)
    basis = kernel_basis(np.asarray(MODEL.holonomic_jacobian(q0)))
    for _ in range(10):
        v = basis @ rng.normal(size=3)
        u = rng.normal(size=2)
        vdot, lam = index1_accelerations(MODEL, q0, v, u, baumgarte=(0.0, 0.0))
        jac = np.asarray(MODEL.holonomic_jacobian(q0))
        jac_dot = np.asarray(MODEL.holonomic_jacobian_dot(q0, v))
        mass = MODEL.mass_matrix(q0)
        force = MODEL.forces(q0, v) + MODEL.input_map(q0) @ u
        lhs = np.vstack([basis.T @ mass, jac])
        rhs = np.concatenate([basis.T @ force, -jac_dot @ v])
        vdot_expected = np.linalg.solve(lhs, rhs)
        lam_expected = pseudo_inverse_tall(jac.T) @ (mass @ vdot - force)
        assert np.abs(vdot - vdot_expected).max() < 1e-10
        assert np.abs(lam - lam_expected).max() < 1e-10
        # The differentiated constraint holds exactly without feedback.
        assert np.abs(jac_dot @ v + jac @ vdot).max() < 1e-10


def test_accelerations_reject_rank_deficient_constraints():
    import dataclasses

    degenerate = dataclasses.replace(
        MODEL,
        dims=MbsDims(n=5, holonomic=3, inputs=2),
        holonomic=lambda q: np.concatenate([MODEL.holonomic(q),
                                            MODEL.holonomic(q)[:1]]),
        holonomic_jacobian=lambda q: np.vstack([MODEL.holonomic_jacobian(q),
                                                MODEL.holonomic_jacobian(q)[:1]]),
        holonomic_jacobian_dot=lambda q, v: np.vstack(
            [MODEL.holonomic_jacobian_dot(q, v),
             MODEL.holonomic_jacobian_dot(q, v)[:1]]),
    )
    q0, v0 = initial_state(PARAMS)
    with pytest.raises(SaddleSingular):
        index1_accelerations(degenerate, q0, v0, np.zeros(2))


def test_adaptive_steps_hit_requested_accuracy():
    accepted = []

    def on_accept(t, x, aux):
        # The first-same-as-last stage was evaluated at exactly this point.
        assert aux[0] == t and np.array_equal(aux[1], x)
        accepted.append(t)

    t_end, x_end = _rk45(lambda t, x: (-x, (t, x.copy())), 0.0, 1.0,
                         np.array([1.0]), 1e-10, 1e-12, 0.5, on_accept)
    assert t_end == 1.0
    assert abs(x_end[0] - np.exp(-1.0)) < 1e-9
    assert accepted[0] == 0.0 and accepted[-1] == 1.0
    assert np.all(np.diff(accepted) > 0.0)


def test_adaptive_steps_underflow_on_stiff_decay():
    with pytest.raises(StepSizeUnderflow) as caught:
        _rk45(lambda t, x: (-1e20 * x, None), 0.0, 1.0, np.array([1.0]),
              1e-10, 1e-12, 0.1, lambda t, x, aux: None)
    assert caught.value.time == 0.0


def test_integrator_errors_carry_the_stage_time():
    accepted = []

    def rhs(t, x):
        if t > 0.3:
            raise NonFiniteEvaluation("right-hand side is not finite")
        return -x, None

    with pytest.raises(NonFiniteEvaluation) as caught:
        _rk45(rhs, 0.0, 1.0, np.array([1.0]), 1e-8, 1e-10, 0.01,
              lambda t, x, aux: accepted.append(t))
    assert accepted[-1] <= 0.3 < caught.value.time <= accepted[-1] + 0.01
    assert str(caught.value) == (f"right-hand side is not finite "
                                 f"at t = {caught.value.time:.6f}")


def test_free_motion_dissipates_energy():
    """Damped arm oscillation: total energy must decay monotonically."""
    q0, _ = initial_state(PARAMS)
    q_start = q0.copy()
    q_start[4] = 0.3
    t, qs, vs = integrate_open_loop(MODEL, lambda s: np.zeros(2),
                                    np.concatenate([q_start, np.zeros(5)]),
                                    (0.0, 1.0))
    masses = mass_matrix(PARAMS, qs)
    energy = (0.5 * np.einsum("ti,tij,tj->t", vs, masses, vs)
              + 0.5 * PARAMS.c * qs[:, 4] ** 2)
    assert energy[-1] < 0.2 * energy[0]
    assert np.diff(energy).max() <= 1e-6 * energy[0]


def test_scenario_validation():
    with pytest.raises(ConfigError):
        Scenario(mode="C4").validate()
    with pytest.raises(ConfigError):
        Scenario(model="plane").validate()
    with pytest.raises(ConfigError):
        Scenario(params="bogus").validate()
    with pytest.raises(ConfigError):
        Scenario(t_end=-1.0).validate()
    with pytest.raises(ConfigError):
        Scenario(k2=(1.0, 0.01, 0.5)).validate()
    with pytest.raises(ConfigError):
        Scenario(rel_tol=0.0).validate()


def test_parse_scenario_shipped_defaults():
    scn = parse_scenario(SCENARIO_DIR / "default.cfg")
    defaults = Scenario()
    assert scn.model == defaults.model
    assert scn.params == defaults.params
    assert scn.t_end == defaults.t_end
    assert scn.rel_tol == defaults.rel_tol
    assert scn.abs_tol == defaults.abs_tol
    assert scn.max_step == defaults.max_step
    assert scn.baumgarte_alpha == defaults.baumgarte_alpha
    assert scn.baumgarte_beta == defaults.baumgarte_beta
    assert scn.bvp_n == defaults.bvp_n
    assert scn.k1 == defaults.k1
    assert scn.k2 == defaults.k2
    assert scn.funnel_design == defaults.funnel_design
    assert scn.out_dir == defaults.out_dir


def test_parse_scenario_overrides(tmp_path):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(
        "# study variant\n"
        "params = reference\n"
        "t_end = 1.5\n"
        "bvp_T0 = -0.25\n"
        "bvp_N = 80\n"
        "K1 = -0.2\n"
        "K2 = 2, 0.5\n"
        "funnel.0.p = 0.4\n"
        "funnel.2.kappa = 10\n"
    )
    scn = parse_scenario(cfg)
    assert scn.params == "reference"
    assert scn.t_end == 1.5
    assert scn.bvp_t0 == -0.25
    assert scn.bvp_n == 80
    assert scn.k1 == -0.2
    assert scn.k2 == (2.0, 0.5)
    assert scn.funnel_design.phi0.p == 0.4
    assert scn.funnel_design.phi1.p == 1.0
    assert scn.funnel_design.kappa2 == 10.0


def test_parse_scenario_rejects_malformed_input(tmp_path):
    with pytest.raises(ConfigError):
        parse_scenario(tmp_path / "missing.cfg")

    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("turbo = 1\n")
    with pytest.raises(ConfigError):
        parse_scenario(bad_key)

    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("t_end = soon\n")
    with pytest.raises(ConfigError):
        parse_scenario(bad_value)

    no_equals = tmp_path / "no_equals.cfg"
    no_equals.write_text("t_end 2.0\n")
    with pytest.raises(ConfigError):
        parse_scenario(no_equals)

    bad_funnel = tmp_path / "bad_funnel.cfg"
    bad_funnel.write_text("funnel.3.p = 0.5\n")
    with pytest.raises(ConfigError):
        parse_scenario(bad_funnel)

    bad_pair = tmp_path / "bad_pair.cfg"
    bad_pair.write_text("K2 = 1, fast\n")
    with pytest.raises(ConfigError):
        parse_scenario(bad_pair)


def test_time_series_validation():
    ones = np.ones((3, 2))
    fields = dict(q=np.ones((3, 5)), v=np.ones((3, 5)), y=ones, y_ref=ones,
                  u_ff=ones, u_fb=ones, u=ones, lam=ones,
                  ebar_norm=np.ones(3), funnel_boundary=np.ones(3),
                  g_norm=np.ones(3), r_app=ones)
    with pytest.raises(ValueError):
        TimeSeries(t=np.array([0.0, 1.0, 1.0]), **fields).validate()
    broken = dict(fields)
    broken["g_norm"] = np.array([0.0, np.nan, 0.0])
    with pytest.raises(ValueError):
        TimeSeries(t=np.array([0.0, 1.0, 2.0]), **broken).validate()


def test_compute_metrics_hand_values():
    t = np.array([0.0, 1.0])
    y = np.tile(np.array([0.5, 0.25]), (2, 1))
    y_ref = np.zeros((2, 2))
    u = np.tile(np.array([3.0, 4.0]), (2, 1))
    tip = end_effector(PARAMS, y)
    tip_ref = end_effector(PARAMS, y_ref)
    ts = TimeSeries(
        t=t, q=np.zeros((2, 5)), v=np.zeros((2, 5)), y=y, y_ref=y_ref,
        u_ff=np.zeros((2, 2)), u_fb=u, u=u, lam=np.zeros((2, 2)),
        ebar_norm=np.array([0.2, 0.1]), funnel_boundary=np.array([0.5, 0.4]),
        g_norm=np.array([1e-9, 3e-9]), r_app=tip_ref,
    )
    metrics = compute_metrics(ts, PARAMS)
    assert np.abs(metrics.cumulative_output_error - np.array([0.5, 0.25])).max() < 1e-15
    assert np.abs(metrics.cumulative_ee_error
                  - np.abs(tip[0] - tip_ref[0])).max() < 1e-15
    assert abs(metrics.final_output_error - np.hypot(0.5, 0.25)) < 1e-15
    assert abs(metrics.final_ee_error
               - np.linalg.norm(tip[1] - tip_ref[1])) < 1e-15
    assert metrics.max_constraint_violation == 3e-9
    assert abs(metrics.min_funnel_margin - (1.0 - 0.2 / 0.5)) < 1e-15
    assert abs(metrics.peak_input - 5.0) < 1e-15
    assert metrics.step_count == 1


def test_compare_is_one_on_identical_metrics():
    ts_stub = Metrics(
        cumulative_output_error=np.array([0.4, 0.2]),
        cumulative_ee_error=np.array([0.3, 0.1]),
        final_output_error=0.0, final_ee_error=0.0,
        max_constraint_violation=0.0, min_funnel_margin=1.0,
        peak_input=1.0, step_count=10,
    )
    report = compare({"C1": ts_stub, "C2": ts_stub})
    assert np.array_equal(report.ratio_output, np.ones(2))
    assert np.array_equal(report.ratio_ee, np.ones(2))
    assert "ratio_output_1: 1" in report.as_text()


def test_short_feedforward_run_and_determinism(tmp_path):
    scn = Scenario(mode="C3", params="reference", t_end=0.3, bvp_n=60)
    path, ts, metrics = run_scenario(scn, out_dir=str(tmp_path / "a"))
    assert path.endswith("c3.csv")
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == CSV_HEADER
    assert ts.t[0] == 0.0 and ts.t[-1] == 0.3
    # Pure feedforward logs no feedback activity.
    assert np.abs(ts.u_fb).max() == 0.0
    assert np.abs(ts.ebar_norm).max() == 0.0
    assert np.array_equal(ts.u, ts.u_ff)
    assert metrics.max_constraint_violation <= 1e-6
    assert metrics.step_count == ts.t.size - 1

    again = Scenario(mode="C3", params="reference", t_end=0.3, bvp_n=60)
    path2, _, _ = run_scenario(again, out_dir=str(tmp_path / "b"))
    assert pathlib.Path(path).read_bytes() == pathlib.Path(path2).read_bytes()


def test_closed_loop_feedback_stays_inside_funnel():
    scn = Scenario(mode="C2", params="reference", t_end=0.25)
    ts, metrics = integrate_closed_loop(scn)
    assert metrics.min_funnel_margin > 0.0
    assert np.abs(ts.u_ff).max() == 0.0
    assert np.array_equal(ts.u, ts.u_fb)

    # The log comes from the integrator's evaluation at each accepted
    # point; a strict evaluation there must reproduce it bit for bit.
    ref = ReferenceSignal(PARAMS)
    lin = linearize(PARAMS, np.asarray(ref(ref.t_start)[0]),
                    np.asarray(ref(ref.t_end)[0]), k1=scn.k1, k2=scn.k2)
    eta_ref = reference_internal(lin, ref)
    eta_ref0 = float(eta_ref(0.0))
    for i, t in enumerate(ts.t):
        state = ControllerState(eta2_ref=float(eta_ref(t)), eta2_ref0=eta_ref0)
        u_fb, diag = control(t, ts.q[i], ts.v[i], state, lin,
                             scn.funnel_design, ref, strict=True)
        u = np.zeros(2) + u_fb
        _, lam = index1_accelerations(MODEL, ts.q[i], ts.v[i], u)
        assert np.array_equal(ts.u_fb[i], u_fb)
        assert np.array_equal(ts.u[i], u)
        assert np.array_equal(ts.lam[i], lam)
        assert ts.ebar_norm[i] == diag.ebar_norm


def test_cumulative_errors_converged_in_tolerance():
    """Tightening the integrator tolerances tenfold moves the error
    integrals by far less than one percent."""
    _, loose = integrate_closed_loop(
        Scenario(mode="C2", params="reference", t_end=0.5))
    _, tight = integrate_closed_loop(
        Scenario(mode="C2", params="reference", t_end=0.5,
                 rel_tol=1e-7, abs_tol=1e-9))
    a = np.asarray(loose.cumulative_output_error)
    b = np.asarray(tight.cumulative_output_error)
    assert np.abs(a - b).max() < 0.01 * np.abs(b).min()
