"""Acceptance checks for the inversion-plus-funnel tracking study.

Each test verifies one headline property of the library at its stated
tolerance, so a verbose run reads as the acceptance report.  The heavy
artifacts (the fine-grid inversion and the three closed-loop study runs)
are computed once per session and shared.
"""

import time

import numpy as np
import pytest

from oracles import contains, det_gamma_closed_form
from servofunnel.bvp import BvpOptions, feedforward, robot_boundary_preset, solve_bvp
from servofunnel.funnel import (
    ControllerState,
    FunnelDesign,
    ReferenceSignal,
    control,
    reference_internal,
    timing_law,
)
from servofunnel.internal import high_gain, linearize, phi2_rows
from servofunnel.model import is_colocated, two_mass_model
from servofunnel.robot import (
    RobotParams,
    initial_state,
    output,
    robot_model,
    robot_operating_set,
)
from servofunnel.simulate import Scenario, integrate_closed_loop, integrate_open_loop


def reference_setup():
    params = RobotParams.reference()
    ref = ReferenceSignal(params)
    y0 = np.asarray(ref(ref.t_start)[0])
    yf = np.asarray(ref(ref.t_end)[0])
    return params, ref, y0, yf


@pytest.fixture(scope="module")
def inversion():
    """Fine-grid inversion plus its open-loop replay on the nominal plant."""
    params, ref, _, _ = reference_setup()
    model = robot_model(params)
    started = time.perf_counter()
    sol = solve_bvp(model, ref, robot_boundary_preset(params),
                    BvpOptions(intervals=350))
    u_fn = feedforward(sol)
    x0 = np.concatenate([sol.q[0], sol.v[0]])
    t, qs, _ = integrate_open_loop(model, u_fn, x0,
                                   (sol.grid[0], sol.grid[-1]))
    elapsed = time.perf_counter() - started
    deviation = np.abs(output(params, qs) - np.asarray(ref(t)[0])).max()
    return {"solution": sol, "deviation": float(deviation), "elapsed": elapsed}


@pytest.fixture(scope="module")
def study():
    """C1, C2 and C3 on the perturbed plant over the full study horizon."""
    runs = {}
    started = time.perf_counter()
    for mode in ("C1", "C2", "C3"):
        scn = Scenario(mode=mode, params="simulated", t_end=2.0)
        runs[mode] = integrate_closed_loop(scn)
    elapsed = time.perf_counter() - started
    return {"runs": runs, "elapsed": elapsed}


def test_01_internal_linearization_spectrum():
    params, _, y0, yf = reference_setup()
    started = time.perf_counter()
    lin = linearize(params, y0, yf)
    elapsed = time.perf_counter() - started
    assert abs(lin.mu_stable - (-24.8623)) <= 0.02
    assert abs(lin.mu_unstable - 28.3917) <= 0.02
    assert elapsed < 1.0


def test_02_internal_forcing_direction():
    params, _, y0, yf = reference_setup()
    lin = linearize(params, y0, yf)
    ratio = lin.ptilde[1] / lin.ptilde[0]
    assert abs(ratio - (-1.1111)) <= 0.02


def test_03_inversion_replay_tracks_reference(inversion):
    assert inversion["solution"].final_residual <= 1e-8
    assert inversion["deviation"] <= 1e-3
    assert inversion["elapsed"] < 60.0


def test_04_funnel_containment_under_model_mismatch(study):
    scn = Scenario(params="simulated")
    params, ref, y0, yf = reference_setup()
    lin = linearize(params, y0, yf, k1=scn.k1, k2=tuple(scn.k2))
    design = scn.funnel_design
    eta_ref = reference_internal(lin, ref)
    eta_ref0 = float(eta_ref(0.0))
    for mode in ("C1", "C2"):
        ts, metrics = study["runs"][mode]
        assert metrics.min_funnel_margin > 0.0
        for t, q, v in zip(ts.t, ts.q, ts.v):
            state = ControllerState(eta2_ref=float(eta_ref(t)),
                                    eta2_ref0=eta_ref0)
            _, diag = control(t, q, v, state, lin, design, ref, strict=True)
            assert diag.margin_e10 > 0.0
            assert diag.margin_e11 > 0.0
            assert diag.margin_e20 > 0.0
            assert diag.margin_ebar > 0.0


def test_05_controller_ranking(study):
    metrics = {mode: study["runs"][mode][1] for mode in ("C1", "C2", "C3")}
    assert metrics["C3"].final_ee_error > metrics["C1"].final_ee_error
    ratio = (np.asarray(metrics["C1"].cumulative_output_error)
             / np.asarray(metrics["C2"].cumulative_output_error))
    assert np.all(ratio >= 0.3) and np.all(ratio <= 0.8)
    assert study["elapsed"] < 120.0


def test_06_annihilation_identity():
    params, _, _, _ = reference_setup()
    model = robot_model(params)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for q in robot_operating_set(params).sample(rng, 1000):
        rows = phi2_rows(model, q)
        cols = np.hstack([model.holonomic_jacobian(q).T, model.input_map(q)])
        defect = np.abs(rows @ np.linalg.solve(model.mass_matrix(q), cols)).max()
        worst = max(worst, float(defect))
    assert worst <= 1e-9


def test_07_high_gain_determinant_sign_and_closed_form():
    params, _, _, _ = reference_setup()
    model = robot_model(params)
    opset = robot_operating_set(params)
    rng = np.random.default_rng(77)
    qs = opset.sample(rng, 500)
    assembled = np.array([np.linalg.det(high_gain(model, q).gamma) for q in qs])
    closed = det_gamma_closed_form(params, qs)
    rel = np.abs(assembled - closed) / np.abs(closed)
    assert rel.max() <= 1e-6
    # The closed form is -L1^2 L2^2 sin(alpha) sin(alpha + beta) * bracket
    # / ((2 L2 + 4 L3) det M) with det M > 0, sin(alpha) > 0 and
    # sin(alpha + beta) > 0 on the set, and a bracket that is negative
    # wherever cos(gamma) exceeds its zero, so the determinant is positive.
    assert assembled.min() > 0.0, (
        "assembled high-gain determinant is not positive on the admissible "
        f"set (minimum {assembled.min():.6e}, maximum {assembled.max():.6e})")

    # Deterministic probe at the set's arm-angle edge, next to the
    # bracket's zero, so the check guards the set and not the draw above.
    # Locate the set's cosine bound by bisecting on gamma from the rest
    # state, then step 1e-6 inside it.
    q0, _ = initial_state(params)
    q = q0.copy()
    inside, outside = 0.0, np.pi / 2.0
    for _ in range(60):
        q[4] = 0.5 * (inside + outside)
        if contains(opset, q):
            inside = q[4]
        else:
            outside = q[4]
    gamma_edge = np.arccos(np.cos(outside) + 1e-6)
    for gamma in (gamma_edge, -gamma_edge):
        q[4] = gamma
        assert contains(opset, q)
        det = np.linalg.det(high_gain(model, q).gamma)
        assert det > 0.0, (
            f"high-gain determinant {det:.6e} at gamma = {gamma:.6f} inside "
            "the admissible set is not positive")


def test_08_timing_law_endpoints():
    tf = 1.0
    r0, rd0, rdd0 = timing_law(0.0, tf)
    r1, rd1, rdd1 = timing_law(tf, tf)
    rm, _, _ = timing_law(0.5 * tf, tf)
    assert abs(r0 - 0.0) <= 1e-12
    assert abs(r1 - 1.0) <= 1e-12
    assert abs(rm - 0.5) <= 1e-12
    for value in (rd0, rd1, rdd0, rdd1):
        assert abs(value) <= 1e-12


def test_09_drift_and_bitwise_determinism(study, tmp_path):
    for mode in ("C1", "C2", "C3"):
        ts, metrics = study["runs"][mode]
        assert metrics.max_constraint_violation <= 1e-6
        assert ts.g_norm.max() <= 1e-6

    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    study["runs"]["C3"][0].write_csv(first)
    repeat, _ = integrate_closed_loop(Scenario(mode="C3", params="simulated",
                                               t_end=2.0))
    repeat.write_csv(second)
    assert first.read_bytes() == second.read_bytes()


def test_10_colocated_two_mass_branch():
    model, operating_set = two_mass_model()
    rng = np.random.default_rng(10)
    for q in operating_set.sample(rng, 100):
        assert is_colocated(model, q)
        schur = high_gain(model, q).schur
        assert np.linalg.eigvalsh(0.5 * (schur + schur.T)).min() > 0.0
