"""Tests for funnel shapes, the reference machinery and the feedback law."""

from dataclasses import fields

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oracles import control_numpy
from servofunnel.errors import FunnelViolation, OutOfReach
from servofunnel.funnel import (
    REFERENCE_GRID_STEP,
    ControlDiagnostics,
    ControllerState,
    FunnelDesign,
    FunnelFunction,
    ReferenceSignal,
    control,
    control_signals,
    reference_internal,
    timing_law,
)
from servofunnel.internal import linearize, psi
from servofunnel.robot import RobotParams, end_effector, initial_state
from servofunnel.simulate import Scenario, integrate_closed_loop


def study_setup():
    params = RobotParams.reference()
    ref = ReferenceSignal(params)
    y0 = np.asarray(ref(0.0)[0])
    yf = np.asarray(ref(1.0)[0])
    lin = linearize(params, y0, yf)
    return params, ref, lin


def test_funnel_function_boundary_and_derivatives():
    f = FunnelFunction(p=0.5, qrate=2.0, r=0.001)
    assert abs(f.boundary(0.0) - 0.501) < 1e-15
    assert abs(f.boundary(50.0) - 0.001) < 1e-12
    ts = np.linspace(0.0, 4.0, 17)
    phi, d1 = f.derivatives(ts)
    assert np.abs(phi - 1.0 / f.boundary(ts)).max() < 1e-15
    step = 1e-6
    fd1 = (f.derivatives(ts + step)[0] - f.derivatives(ts - step)[0]) / (2 * step)
    scale = np.abs(phi).max()
    assert np.abs(fd1 - d1).max() < 1e-4 * scale


def test_funnel_function_validation():
    with pytest.raises(ValueError):
        FunnelFunction(p=-0.1, qrate=2.0, r=0.001)
    with pytest.raises(ValueError):
        FunnelFunction(p=0.5, qrate=0.0, r=0.001)
    with pytest.raises(ValueError):
        FunnelFunction(p=0.5, qrate=2.0, r=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            FunnelFunction(p=bad, qrate=2.0, r=0.001)


def test_funnel_design_table_defaults():
    design = FunnelDesign.table_defaults()
    assert (design.phi0.p, design.phi0.qrate, design.phi0.r) == (0.5, 2.0, 0.001)
    assert (design.phi1.p, design.phi1.qrate, design.phi1.r) == (1.0, 2.0, 0.001)
    assert (design.phi2.p, design.phi2.qrate, design.phi2.r) == (1.0, 2.0, 0.001)
    assert (design.kappa0, design.kappa1, design.kappa2) == (1.0, 1.0, 50.0)
    with pytest.raises(ValueError):
        FunnelDesign(phi0=design.phi0, phi1=design.phi1, phi2=design.phi2,
                     kappa0=0.0, kappa1=1.0, kappa2=50.0)
    with pytest.raises(ValueError):
        FunnelDesign(phi0=design.phi0, phi1=design.phi1, phi2=design.phi2,
                     kappa0=1.0, kappa1=np.nan, kappa2=50.0)


def test_timing_law_endpoints_and_midpoint():
    tf = 1.3
    r0, rd0, rdd0 = timing_law(0.0, tf)
    r1, rd1, rdd1 = timing_law(tf, tf)
    rm, _, _ = timing_law(0.5 * tf, tf)
    assert abs(r0) <= 1e-12 and abs(r1 - 1.0) <= 1e-12
    assert abs(rm - 0.5) <= 1e-12
    assert abs(rd0) <= 1e-12 and abs(rd1) <= 1e-12
    assert abs(rdd0) <= 1e-12 and abs(rdd1) <= 1e-12
    # Clamped outside the window, and the third derivative also rests.
    assert timing_law(-0.5, tf)[0] == 0.0
    assert timing_law(2.0 * tf, tf)[0] == 1.0
    step = 1e-5
    for t_edge in (0.0, tf):
        fd3 = (timing_law(t_edge + step, tf)[2]
               - timing_law(max(t_edge - step, 0.0), tf)[2]) / step
        assert abs(fd3) < 1e-6


def test_timing_law_derivative_consistency():
    tf = 0.8
    ts = np.linspace(0.01, tf - 0.01, 40)
    r, rdot, rddot = timing_law(ts, tf)
    assert np.all(np.diff(r) > 0.0)
    step = 1e-6
    fd_r = (timing_law(ts + step, tf)[0] - timing_law(ts - step, tf)[0]) / (2 * step)
    fd_rd = (timing_law(ts + step, tf)[1] - timing_law(ts - step, tf)[1]) / (2 * step)
    assert np.abs(fd_r - rdot).max() < 1e-6
    assert np.abs(fd_rd - rddot).max() < 1e-5


def test_reference_signal_endpoints_and_rest():
    params, ref, _ = study_setup()
    y_start = np.array([0.0, np.arcsin(0.6)])
    y_end = np.array([0.9 - 0.8 - np.sqrt(0.19), np.arcsin(0.9)])
    for t in (-0.4, 0.0):
        y, yd = ref(t)
        assert np.abs(y - y_start).max() < 1e-12
        assert np.abs(yd).max() < 1e-12
    for t in (1.0, 2.5):
        y, yd = ref(t)
        assert np.abs(y - y_end).max() < 1e-12
        assert np.abs(yd).max() < 1e-12


def test_reference_signal_validation():
    params = RobotParams.reference()
    with pytest.raises(ValueError):
        ReferenceSignal(params, t_start=1.0, t_end=1.0)
    with pytest.raises(ValueError):
        ReferenceSignal(params, t_start=-0.5, t_end=1.0)


def test_reference_signal_derivatives_match_fd():
    _, ref, _ = study_setup()
    ts = np.linspace(0.05, 0.95, 30)
    y, yd = ref(ts)
    step = 1e-6
    fd_y = (np.asarray(ref(ts + step)[0]) - np.asarray(ref(ts - step)[0])) / (2 * step)
    assert np.abs(fd_y - yd).max() < 1e-6


def test_reference_signal_tool_path_is_straight():
    params, ref, _ = study_setup()
    ts = np.linspace(0.0, 1.0, 50)
    tip = end_effector(params, np.asarray(ref(ts)[0]))
    start = np.array(ref.r_start)
    direction = np.array(ref.r_end) - start
    offset = tip - start
    cross = offset[:, 0] * direction[1] - offset[:, 1] * direction[0]
    assert np.abs(cross).max() < 1e-12
    along = offset @ direction / (direction @ direction)
    assert along.min() >= -1e-12 and along.max() <= 1.0 + 1e-12


def test_reference_internal_start_value_and_constant_closed_form():
    params, ref, lin = study_setup()
    assert abs(reference_internal(lin, ref)(0.0) - (-6.902914104)) < 1e-6

    constant = ReferenceSignal(params, r_start=(1.2, -0.7), r_end=(1.2, -0.7))
    ybar = np.asarray(constant(0.3)[0])
    closed = -float(lin.ptilde @ ybar) / lin.qtilde
    value = reference_internal(lin, constant)(0.0)
    assert abs(value - closed) < 1e-7 * abs(closed)


def test_reference_internal_solves_the_unstable_ode():
    _, ref, lin = study_setup()
    eta_ref = reference_internal(lin, ref)
    table = lambda ts: np.array([eta_ref(t) for t in ts])
    ts = np.linspace(0.05, 0.95, 200)
    step = 1e-5
    fd = (table(ts + step) - table(ts - step)) / (2 * step)
    rhs = lin.qtilde * table(ts) + np.asarray(ref(ts)[0]) @ lin.ptilde
    assert np.abs(fd - rhs).max() < 1e-6

    # Bounded despite the positive rate; forward shooting would blow up.
    sweep = table(np.linspace(-1.0, 3.0, 2001))
    assert np.abs(sweep).max() < 20.0

    yf = np.asarray(ref(ref.t_end)[0])
    tail = -float(lin.ptilde @ yf) / lin.qtilde
    assert abs(eta_ref(2.0) - tail) < 1e-12

    # Closed-form exponential before the motion starts.
    head_y = float(lin.ptilde @ np.asarray(ref(0.0)[0]))
    grow = np.exp(lin.qtilde * (-0.3))
    expected = grow * eta_ref(0.0) - head_y * (1.0 - grow) / lin.qtilde
    assert abs(eta_ref(-0.3) - expected) < 1e-10

    # The table matches an independent backward solve from the tail value.
    # Its Simpson cells are off by up to 3.3e-9: their error on the weight
    # exp(-qtilde s) grows as (qtilde h)^4, with qtilde = 28.4, h = 1e-3.
    backward = solve_ivp(
        lambda t, eta: lin.qtilde * eta + lin.ptilde @ ref(t)[0],
        (ref.t_end, 0.0), [tail], method="DOP853", rtol=1e-12, atol=1e-12,
        dense_output=True)
    assert backward.success
    ts = np.linspace(0.0, ref.t_end, 401)
    assert np.abs(table(ts) - backward.sol(ts)[0]).max() < 4e-9

    # At the nodes the interpolant's rate is the ODE's rate.
    nodes = np.linspace(0.0, ref.t_end, round(ref.t_end / REFERENCE_GRID_STEP) + 1)[1:-1]
    step = 1e-6
    rate = (table(nodes + step) - table(nodes - step)) / (2 * step)
    ode_rate = lin.qtilde * table(nodes) + ref(nodes)[0] @ lin.ptilde
    assert np.abs(rate - ode_rate).max() < 2e-8


@pytest.mark.parametrize("lead", [(6,), (2, 3)])
@pytest.mark.parametrize("name", ["timing_law", "reference",
                                  "phi0", "phi1", "phi2"])
def test_time_functions_batched_match_single(name, lead):
    _, ref, _ = study_setup()
    design = FunnelDesign.table_defaults()
    level = lambda phi: (lambda t: (*phi.derivatives(t), phi.boundary(t)))
    fn = {
        "timing_law": lambda t: timing_law(t, 0.8),
        "reference": ref,
        "phi0": level(design.phi0),
        "phi1": level(design.phi1),
        "phi2": level(design.phi2),
    }[name]
    # Times before, inside and after the move.
    ts = np.random.default_rng(9).uniform(-0.3, 1.3, size=lead + (5,))
    batched = fn(ts)
    for idx in np.ndindex(lead):
        for got, want in zip(batched, fn(ts[idx])):
            assert np.array_equal(got[idx], want), idx
    # A single time gives the bits of its entry in the batch too, so the
    # closed loop may evaluate a step's times at once.
    for idx in np.ndindex(ts.shape):
        for got, want in zip(batched, fn(ts[idx])):
            assert np.array_equal(got[idx], want), idx
    # So does a Python float, the closed loop's own kind of time, which
    # takes the float path and gets Python floats back; the log's columns,
    # batched over the accepted times, then equal what each stage read.
    # Many times, as math.exp and math.asin differ from numpy's loops on
    # only a few per cent of arguments.
    many = np.random.default_rng(10).uniform(-0.3, 1.3, size=400)
    for times, batch in ((ts, batched), (many, fn(many))):
        for idx in np.ndindex(times.shape):
            single = fn(float(times[idx]))
            for got, want in zip(batch, single):
                assert np.array_equal(got[idx], want), idx
            flat = [x for entry in single
                    for x in (entry if isinstance(entry, tuple) else (entry,))]
            assert all(type(x) is float for x in flat), (idx, single)


def test_eta_ref_at_numpy_time_has_float_bits():
    # The log's times and CSV columns are np.float64; eta_ref gives them
    # a Python float with the bits of the same Python-float time, before,
    # inside and after the move.
    _, ref, lin = study_setup()
    eta_ref = reference_internal(lin, ref)
    times = np.random.default_rng(10).uniform(-0.3, 1.3, size=400)
    for t in np.concatenate([times, [0.0, ref.t_end, 2.0]]):
        got, want = eta_ref(t), eta_ref(float(t))
        assert type(got) is float and type(want) is float, t
        assert got.hex() == want.hex(), t


def test_reference_out_of_reach_at_one_time():
    # A tool-tip path through the arm radius: the float path raises
    # OutOfReach where the batch does, and not before.
    params = RobotParams.reference()
    ref = ReferenceSignal(params, r_end=(0.9, -1.2 * params.arm_radius))
    ref(0.0)
    ref(np.array([0.0, 0.3]))
    for t in (1.0, 2.0):
        with pytest.raises(OutOfReach):
            ref(np.array([0.0, t]))
        with pytest.raises(OutOfReach):
            ref(t)


def test_controller_state_validation():
    with pytest.raises(ValueError):
        ControllerState(eta2_ref=np.inf, eta2_ref0=0.0)
    with pytest.raises(ValueError):
        ControllerState(eta2_ref=0.0, eta2_ref0=np.nan)


def test_control_at_start_stays_deep_inside_funnels():
    params, ref, lin = study_setup()
    design = FunnelDesign.table_defaults()
    q0, v0 = initial_state(params)
    start = float(reference_internal(lin, ref)(0.0))
    state = ControllerState(eta2_ref=start, eta2_ref0=start)
    u_fb, diag = control(0.0, q0, v0, state, lin, design, ref)
    for margin in (diag.margin_e10, diag.margin_e11,
                   diag.margin_e20, diag.margin_ebar):
        assert 0.0 < margin <= 1.0
    assert np.array_equal(u_fb, diag.u_fb)
    assert np.abs(u_fb - (-diag.kbar * np.array([diag.e12, diag.e21]))).max() == 0.0
    # Gain identities of the error chain.
    assert abs(diag.k10 - design.kappa0 / diag.margin_e10) < 1e-15 * diag.k10
    assert abs(diag.k11 - design.kappa1 / diag.margin_e11) < 1e-15 * diag.k11
    assert abs(diag.k20 - design.kappa0 / diag.margin_e20) < 1e-15 * diag.k20
    assert abs(diag.kbar - design.kappa2 / diag.margin_ebar) < 1e-15 * diag.kbar
    assert abs(diag.ebar_norm - np.hypot(diag.e12, diag.e21)) < 1e-15


def test_control_raises_on_funnel_contact():
    params, ref, lin = study_setup()
    design = FunnelDesign.table_defaults()
    q0, v0 = initial_state(params)
    table = reference_internal(lin, ref)
    state = ControllerState(eta2_ref=float(table(3.0)),
                            eta2_ref0=float(table(0.0)))
    # Holding the start configuration while the funnel has tightened far
    # below the remaining error must raise before any gain divides by it.
    with pytest.raises(FunnelViolation) as caught:
        control(3.0, q0, v0, state, lin, design, ref, strict=True)
    assert caught.value.time == 3.0
    assert str(caught.value) == "e10 reached its funnel boundary at t = 3.000000"

    # ``strict`` is ignored: there is no path that evaluates outside a funnel.
    with pytest.raises(FunnelViolation) as relaxed:
        control(3.0, q0, v0, state, lin, design, ref, strict=False)
    assert str(relaxed.value) == str(caught.value)

    # A NaN error is not inside its funnel either.
    v_nan = v0.copy()
    v_nan[4] = np.nan
    with pytest.raises(FunnelViolation, match="^e10 reached"):
        control(3.0, q0, v_nan, state, lin, design, ref)


@pytest.mark.parametrize("gamma_rate", [1e160, 1e200])
def test_control_raises_funnel_violation_when_an_error_overflows(gamma_rate):
    # e10 grows with the arm rate until its square overflows: the square
    # is then infinite and the margin negative, which raises with the time.
    params, ref, lin = study_setup()
    design = FunnelDesign.table_defaults()
    q0, v0 = initial_state(params)
    v0[4] = gamma_rate
    eta = float(reference_internal(lin, ref)(0.1))
    with pytest.raises(FunnelViolation, match="^e10 reached") as caught:
        control(0.1, q0, v0, ControllerState(eta2_ref=eta, eta2_ref0=eta),
                lin, design, ref)
    assert caught.value.time == 0.1


@pytest.mark.parametrize("mode", ["C1", "C2"])
def test_control_float_chain_matches_the_numpy_formulas(mode):
    # control runs its whole chain on Python floats.  On the logged
    # states of a short run, and on perturbed copies of them, its
    # diagnostics and u_fb agree with the same law on numpy's batched
    # formulas to rounding.  numpy's two-element products may fuse their
    # multiply-adds, so the last bits differ; each field is bounded
    # relative to its largest magnitude over the states, because e12
    # cancels (worst measured 6.1e-13, for u_fb).
    ts, _ = integrate_closed_loop(Scenario(mode=mode, t_end=0.3))
    params, ref, lin = study_setup()
    design = FunnelDesign.table_defaults()
    eta_ref = reference_internal(lin, ref)
    rng = np.random.default_rng(41)
    states = list(zip(ts.t, ts.q, ts.v))
    for _ in range(4):
        states += [(t, q + 1e-6 * rng.normal(size=5), v + 1e-3 * rng.normal(size=5))
                   for t, q, v in zip(ts.t, ts.q, ts.v)]
    names = [f.name for f in fields(ControlDiagnostics)]
    got, want = [], []
    for t, q, v in states:
        signals = control_signals(float(t), design, ref)
        eta = float(eta_ref(t))
        _, diag = control(t, q, v, ControllerState(eta2_ref=eta, eta2_ref0=eta),
                          lin, design, ref)
        _, want_diag = control_numpy(t, q, v, eta, lin, design, ref, signals)
        got.append([getattr(diag, name) for name in names])
        want.append([getattr(want_diag, name) for name in names])
    for i, name in enumerate(names):
        got_field = np.array([row[i] for row in got])
        want_field = np.array([row[i] for row in want])
        scale = np.abs(want_field).max()
        assert np.abs(got_field - want_field).max() <= 1e-11 * scale, name
