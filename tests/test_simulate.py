"""Tests for the reduced dynamics, the integrator and scenario handling."""

import math
import pathlib
import re

import numpy as np
import pytest

from servofunnel.bvp import (
    BvpOptions,
    feedforward,
    robot_boundary_preset,
    solve_bvp,
)
from servofunnel.errors import (
    ConfigError,
    FunnelViolation,
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
from servofunnel.linalg import kernel_basis
from servofunnel.model import MbsDims, solve_assembled_saddle
from servofunnel.robot import (
    RobotParams,
    end_effector,
    initial_state,
    mass_matrix,
    output,
    robot_model,
)
from servofunnel.simulate import (
    CSV_HEADER,
    MIN_STEP,
    OPEN_LOOP_MAX_STEP,
    Metrics,
    Scenario,
    TimeSeries,
    _B4_PAIRS,
    _B4_SUM,
    _MID_PAIRS,
    _MID_SUM,
    _KEYS,
    _STAGE_PAIRS,
    _STAGE_SUMS,
    _error_norm,
    _rk45,
    compare,
    compute_metrics,
    index1_accelerations,
    integrate_closed_loop,
    integrate_open_loop,
    parse_scenario,
    run_scenario,
    solve_inversion,
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
    follow from the residual force. Both routes must agree. The state is
    consistent (closed loop, velocity in the kernel), so the Baumgarte
    terms of the saddle solve vanish up to round-off.
    """
    q0, _ = initial_state(PARAMS)
    rng = np.random.default_rng(6)
    basis = kernel_basis(np.asarray(MODEL.holonomic_jacobian(q0)))
    for _ in range(10):
        v = basis @ rng.normal(size=3)
        u = rng.normal(size=2)
        vdot, lam = index1_accelerations(MODEL, q0, v, u)
        jac = np.asarray(MODEL.holonomic_jacobian(q0))
        jac_dot = np.asarray(MODEL.holonomic_jacobian_dot(q0, v))
        mass = MODEL.mass_matrix(q0)
        force = MODEL.forces(q0, v) + MODEL.input_map(q0) @ u
        lhs = np.vstack([basis.T @ mass, jac])
        rhs = np.concatenate([basis.T @ force, -jac_dot @ v])
        vdot_expected = np.linalg.solve(lhs, rhs)
        lam_expected = np.linalg.lstsq(jac.T, mass @ vdot - force, rcond=None)[0]
        assert np.abs(vdot - vdot_expected).max() < 1e-10
        assert np.abs(lam - lam_expected).max() < 1e-10
        # The differentiated constraint holds: the feedback terms vanish.
        assert np.abs(jac_dot @ v + jac @ vdot).max() < 1e-10


def test_accelerations_reject_rank_deficient_constraints():
    import dataclasses

    # The robot with its first constraint repeated, solved by the generic
    # LU of the saddle assembled from these callables, which sees the
    # repeated row.
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
        index1_solve=lambda q, v, u: solve_assembled_saddle(degenerate, q, v, u),
    )
    q0, v0 = initial_state(PARAMS)
    with pytest.raises(SaddleSingular):
        index1_accelerations(degenerate, q0, v0, np.zeros(2))


def test_closed_loop_reads_only_the_fused_saddle_terms(monkeypatch):
    import servofunnel.robot as robot_mod

    def unused(*args):
        raise AssertionError("the saddle solve called a separate robot callable")

    for name in ("mass_matrix", "generalized_forces", "loop_closure_jacobian",
                 "loop_closure_jacobian_dot", "input_map"):
        monkeypatch.setattr(robot_mod, name, unused)
    ts, _ = integrate_closed_loop(Scenario(mode="C2", t_end=0.05))
    assert ts.t[-1] == pytest.approx(0.05)


def random_entries(rng, shape):
    """Entries of both signs from 1e-8 to 1e8 in magnitude, with zeros
    and negative zeros mixed in."""
    values = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
    values[rng.random(shape) < 0.1] = 0.0
    values[rng.random(shape) < 0.1] = -0.0
    return values


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 10, 16, 17, 300])
def test_error_norm_has_the_bits_of_the_numpy_mean(n):
    # The float norm sums in numpy's pairwise order, which changes at 8
    # entries and again above 128; a left-to-right sum misses on about a
    # third of 10-vectors.
    rng = np.random.default_rng(n)
    for _ in range(2000 if n < 128 else 200):
        x, x4, x5 = random_entries(rng, (3, n))
        same = rng.random(n) < 0.2
        x5[same] = x4[same]
        rel_tol, abs_tol = 10.0 ** rng.uniform(-12, -4), 10.0 ** rng.uniform(-14, -6)
        scale = abs_tol + rel_tol * np.maximum(np.abs(x), np.abs(x5))
        want = float(np.sqrt(np.mean(((x5 - x4) / scale) ** 2)))
        got = _error_norm(x.tolist(), x4.tolist(), x5.tolist(), rel_tol, abs_tol)
        assert type(got) is float
        assert got.hex() == want.hex()


def test_stage_sums_have_the_bits_of_the_numpy_form():
    # Each unrolled sum against x + h * sum([a * k[j] ...]) on arrays, for
    # every tableau row, the fourth-order solution and the midpoint.  The
    # leading 0 of sum() turns a sum of zeros into +0, in both forms.
    rng = np.random.default_rng(5)
    combos = [(pairs, fn) for pairs, fn in zip(_STAGE_PAIRS[1:], _STAGE_SUMS[1:])]
    combos += [(_B4_PAIRS, _B4_SUM), (_MID_PAIRS, _MID_SUM)]
    for _ in range(500):
        x = random_entries(rng, 10)
        k = list(random_entries(rng, (7, 10)))
        k[rng.integers(7)][:] = -0.0
        h = 10.0 ** rng.uniform(-12, -1)
        for pairs, fn in combos:
            want = x + h * sum([a * k[j] for j, a in pairs])
            got = fn(x.tolist(), h, [row.tolist() for row in k])
            assert [v.hex() for v in got] == [v.hex() for v in want.tolist()]


def test_adaptive_steps_hit_requested_accuracy():
    accepted = []

    def on_accept(t, x, aux):
        # The first-same-as-last stage was evaluated at exactly this point.
        assert aux[0] == t and np.array_equal(aux[1], x)
        accepted.append(t)

    t_end, x_end = _rk45(lambda t, x: ([-x[0]], (t, list(x))), 0.0, 1.0,
                         [1.0], 1e-10, 1e-12, 0.5, on_accept)
    assert t_end == 1.0
    assert abs(x_end[0] - np.exp(-1.0)) < 1e-9
    assert accepted[0] == 0.0 and accepted[-1] == 1.0
    assert np.all(np.diff(accepted) > 0.0)


def test_adaptive_steps_underflow_on_stiff_decay():
    with pytest.raises(StepSizeUnderflow) as caught:
        _rk45(lambda t, x: ([-1e20 * x[0]], None), 0.0, 1.0, [1.0],
              1e-10, 1e-12, 0.1, lambda t, x, aux: None)
    assert caught.value.time == 0.0
    assert f"below the minimum {MIN_STEP:g}" in str(caught.value)


def test_integrator_errors_carry_the_stage_time():
    accepted = []

    def rhs(t, x):
        if t > 0.3:
            raise NonFiniteEvaluation("right-hand side is not finite")
        return [-x[0]], None

    with pytest.raises(NonFiniteEvaluation) as caught:
        _rk45(rhs, 0.0, 1.0, [1.0], 1e-8, 1e-10, 0.01,
              lambda t, x, aux: accepted.append(t))
    assert accepted[-1] <= 0.3 < caught.value.time <= accepted[-1] + 0.01
    assert str(caught.value) == (f"right-hand side is not finite "
                                 f"at t = {caught.value.time:.6f}")


def test_a_nan_right_hand_side_is_rejected_until_the_step_underflows():
    """A right-hand side that is NaN after t = 0.5 makes every step that
    reaches past 0.5 fail error control: the error norm is NaN, so the
    step is rejected and shrunk.  The accepted points close in on 0.5
    until the step falls below ``MIN_STEP``, and ``StepSizeUnderflow``
    carries the last accepted time.  No NaN state is ever accepted."""
    accepted = []

    def rhs(t, x):
        return np.array([math.nan if t > 0.5 else -x[0]]), None

    def on_accept(t, x, aux):
        assert math.isfinite(x[0])
        accepted.append(t)

    with pytest.raises(StepSizeUnderflow) as caught:
        _rk45(rhs, 0.0, 1.0, [1.0], 1e-8, 1e-10, 0.01, on_accept)
    assert caught.value.time == accepted[-1]
    assert 0.5 - 1e-9 < caught.value.time <= 0.5
    assert f"below the minimum {MIN_STEP:g}" in str(caught.value)


def test_midpoint_check_catches_an_exit_between_stages():
    """x' = 2t with max_step 0.5: the longest accepted step has no stage
    within 0.1 of x = t^2 at its midpoint.  A bound that excludes a band
    of half-width 0.05 there holds at every stage and fails only on the
    dense output at the midpoint; the chord would miss it too, since it
    lies h^2/4 = 0.0625 above the midpoint value."""
    rate = lambda t: np.array([2.0 * t])
    accepted = []
    _rk45(lambda t, x: (rate(t), None), 0.0, 1.0, np.zeros(1), 1e-6, 1e-8,
          0.5, lambda t, x, aux: accepted.append(t))
    steps = np.diff(accepted)
    k = int(np.argmax(steps))
    t_mid = accepted[k] + 0.5 * steps[k]

    def bound(t, x):
        if abs(x[0] - t_mid ** 2) < 0.2 * steps[k] ** 2:
            raise FunnelViolation("x reached its bound")

    def rhs(t, x):
        bound(t, x)
        return rate(t), None

    t_end, _ = _rk45(rhs, 0.0, 1.0, np.zeros(1), 1e-6, 1e-8, 0.5,
                     lambda t, x, aux: None)
    assert t_end == 1.0  # the stages alone never leave the bound
    with pytest.raises(FunnelViolation) as caught:
        _rk45(rhs, 0.0, 1.0, np.zeros(1), 1e-6, 1e-8, 0.5,
              lambda t, x, aux: None, check=bound)
    assert caught.value.time == pytest.approx(t_mid, abs=1e-15)


def test_a_rejected_trial_stage_outside_its_funnel_ends_the_run():
    """A sharp input pulse makes error control reject steps.  x rises
    from 0 to 1 and every stage of an accepted step keeps x above
    -1e-6, but a rejected trial's stage undershoots it.  Outside a
    funnel the feedback gains are undefined, so that stage ends the run
    although its step would have been discarded."""
    width = 0.01
    rate = lambda t: np.array([np.exp(-((t - 0.5) / width) ** 2)
                               / (width * np.sqrt(np.pi))])
    stages = []
    accepted = []

    def record(t, x):
        stages.append((t, x[0]))
        return rate(t), None

    _rk45(record, 0.0, 1.0, np.zeros(1), 1e-6, 1e-8, 0.1,
          lambda t, x, aux: accepted.append(t))
    # After the first evaluation each trial step evaluates six stages, the
    # last at its end time, which is logged when the step is accepted.
    trials = [stages[i:i + 6] for i in range(1, len(stages), 6)]
    kept = [x for trial in trials if trial[-1][0] in accepted
            for _, x in trial]
    rejected = [stage for trial in trials if trial[-1][0] not in accepted
                for stage in trial]
    assert min(kept) > -1e-6
    first_out = next(t for t, x in rejected if x <= -1e-6)

    def rhs(t, x):
        if not x[0] > -1e-6:
            raise FunnelViolation("x reached its funnel boundary")
        return rate(t), None

    with pytest.raises(FunnelViolation) as caught:
        _rk45(rhs, 0.0, 1.0, np.zeros(1), 1e-6, 1e-8, 0.1,
              lambda t, x, aux: None)
    assert caught.value.time == first_out


def test_open_loop_replay_keeps_its_fine_step():
    """The replay of the paper inversion measures the inversion, not the
    integrator.  At its own tolerances (3e-12/3e-14) it takes 5107 steps
    over the 2.5 s window, its 1e-3 ceiling bounds every step, and the
    deviation is 1.0774659497947425e-8 m bit for bit.  Scaling the
    accelerations by 1 + eps, |eps| <= 1e-14, moves it by at most 0.2 %.
    At the closed loop's 1e-6/1e-8 the same scaling moved it between
    1.0e-7 and 3.5e-7 m: the feedforward has a kink at every node, which
    costs the integrator its order."""
    sol = solve_bvp(MODEL, ReferenceSignal(PARAMS),
                    robot_boundary_preset(PARAMS), BvpOptions(intervals=350))
    t, qs, _ = integrate_open_loop(MODEL, feedforward(sol),
                                   np.concatenate([sol.q[0], sol.v[0]]),
                                   (sol.grid[0], sol.grid[-1]))
    ref = ReferenceSignal(PARAMS)
    deviation = np.abs(output(PARAMS, qs) - np.asarray(ref(t)[0])).max()
    # Accumulated times round the 1e-3 steps in the last bit of t ~ 2.
    assert np.diff(t).max() <= OPEN_LOOP_MAX_STEP + 1e-15
    assert deviation == 1.0774659497947425e-08


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
    with pytest.raises(ConfigError):
        Scenario(bvp_n=5).validate()


def test_parse_scenario_shipped_defaults():
    scn = parse_scenario(SCENARIO_DIR / "default.cfg")
    defaults = Scenario()
    assert scn.model == defaults.model
    assert scn.params == defaults.params
    assert scn.t_end == defaults.t_end
    assert scn.rel_tol == defaults.rel_tol
    assert scn.abs_tol == defaults.abs_tol
    assert scn.max_step == defaults.max_step
    assert scn.bvp_n == defaults.bvp_n
    assert scn.k1 == defaults.k1
    assert scn.k2 == defaults.k2
    assert scn.funnel_design == defaults.funnel_design
    assert scn.out_dir == defaults.out_dir


def test_shipped_scenario_names_every_recognized_key(tmp_path):
    # default.cfg lists every key, set or commented out as `# key = value`,
    # and comments out no key the parser has dropped.
    accepted = set(_KEYS)
    assert {f"funnel.{level}.{name}" for level in "012"
            for name in ("p", "q", "r", "kappa")} <= accepted
    set_keys, commented = set(), {}
    for line in (SCENARIO_DIR / "default.cfg").read_text().splitlines():
        match = re.match(r"#\s*([\w.]+)\s*=\s*(\S+)", line)
        if match:
            commented[match[1]] = match[2]
        elif "=" in line.split("#", 1)[0]:
            set_keys.add(line.split("=", 1)[0].strip())
    assert set(commented) <= accepted
    assert set_keys | set(commented) == accepted
    for key, value in commented.items():
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key} = {value}\n")
        parse_scenario(cfg)


def test_parse_scenario_overrides(tmp_path):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(
        "# study variant\n"
        "params = reference\n"
        "t_end = 1.5\n"
        "bvp_N = 80\n"
        "K1 = -0.2\n"
        "K2 = 2, 0.5\n"
        "funnel.0.p = 0.4\n"
        "funnel.2.kappa = 10\n"
    )
    scn = parse_scenario(cfg)
    assert scn.params == "reference"
    assert scn.t_end == 1.5
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

    bad_level = tmp_path / "bad_level.cfg"
    bad_level.write_text("# level 0\nfunnel.0.q = abc\n")
    with pytest.raises(ConfigError,
                       match=r"bad_level\.cfg:2: bad value for funnel\.0\.q: 'abc'"):
        parse_scenario(bad_level)

    # An out-of-range funnel value names its line too, and each entry is
    # checked where it is read, even when a later line sets it again.
    bad = tmp_path / "bad.cfg"
    bad.write_text("t_end = 1.0\nfunnel.0.q = -1\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2: funnel needs"):
        parse_scenario(bad)
    bad.write_text("funnel.0.q = -1\nfunnel.0.q = 2\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1: funnel needs"):
        parse_scenario(bad)

    bad_pair = tmp_path / "bad_pair.cfg"
    bad_pair.write_text("K2 = 1, fast\n")
    with pytest.raises(ConfigError):
        parse_scenario(bad_pair)

    # Out-of-range or non-finite values are config errors too.
    for text in ("t_end = nan\n", "t_end = inf\n", "funnel.0.q = nan\n",
                 "K1 = nan\n", "funnel.0.q = -1\n", "funnel.2.kappa = 0\n"):
        out_of_range = tmp_path / "out_of_range.cfg"
        out_of_range.write_text(text)
        with pytest.raises(ConfigError):
            parse_scenario(out_of_range)


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


@pytest.mark.parametrize("mode", ["C1", "C2"])
def test_closed_loop_feedback_stays_inside_funnel(mode):
    scn = Scenario(mode=mode, params="reference", t_end=0.25)
    ts, metrics = integrate_closed_loop(scn)
    assert metrics.min_funnel_margin > 0.0
    if mode == "C2":
        assert np.abs(ts.u_ff).max() == 0.0
        assert np.array_equal(ts.u, ts.u_fb)
        u_ff_fn = lambda t: np.zeros(2)
    else:
        u_ff_fn = feedforward(solve_inversion(scn))

    # The log comes from the integrator's evaluation at each accepted
    # point, and its time-only columns from one batch over all accepted
    # times after the run; evaluating everything at that point alone must
    # reproduce both bit for bit.
    ref = ReferenceSignal(PARAMS)
    lin = linearize(PARAMS, np.asarray(ref(ref.t_start)[0]),
                    np.asarray(ref(ref.t_end)[0]), k1=scn.k1, k2=scn.k2)
    eta_ref = reference_internal(lin, ref)
    eta_ref0 = float(eta_ref(0.0))
    for i, t in enumerate(ts.t):
        state = ControllerState(eta2_ref=float(eta_ref(t)), eta2_ref0=eta_ref0)
        u_fb, diag = control(t, ts.q[i], ts.v[i], state, lin,
                             scn.funnel_design, ref, strict=True)
        u_ff = u_ff_fn(t)
        u = np.add(u_ff, u_fb)
        _, lam = index1_accelerations(MODEL, ts.q[i], ts.v[i], u)
        y_ref = ref(t)[0]
        assert np.array_equal(ts.u_ff[i], u_ff)
        assert np.array_equal(ts.u_fb[i], u_fb)
        assert np.array_equal(ts.u[i], u)
        assert np.array_equal(ts.lam[i], lam)
        assert ts.ebar_norm[i] == diag.ebar_norm
        assert np.array_equal(ts.y_ref[i], y_ref)
        assert ts.funnel_boundary[i] == scn.funnel_design.phi2.boundary(t)
        assert np.array_equal(ts.r_app[i], end_effector(PARAMS, y_ref))


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
