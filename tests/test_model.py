"""Tests for the model container, registry and validation oracles."""

import dataclasses

import numpy as np
import pytest

from oracles import contains
from servofunnel.errors import SaddleSingular
from servofunnel.model import (
    SOLVE_TOL,
    MbsDims,
    OperatingSet,
    get_model,
    is_colocated,
    solve_assembled_saddle,
    two_mass_model,
    validate_model,
)
from servofunnel.robot import RobotParams


def test_mbs_dims_rejects_bad_counts():
    assert MbsDims(n=5, holonomic=3, inputs=2).n == 5
    with pytest.raises(ValueError):
        MbsDims(n=5, holonomic=-1, inputs=2)
    with pytest.raises(ValueError):
        MbsDims(n=5, holonomic=3, inputs=3)


def test_operating_set_contains_and_sample():
    box = OperatingSet(lower=[-1.0, 0.0], upper=[1.0, 2.0])
    assert contains(box, [0.0, 1.0])
    assert not contains(box, [0.0, 2.5])
    rng = np.random.default_rng(0)
    qs = box.sample(rng, 64)
    assert qs.shape == (64, 2)
    assert all(contains(box, q) for q in qs)


def test_operating_set_predicate_filters_samples():
    box = OperatingSet(lower=[-1.0], upper=[1.0],
                       predicate=lambda q: q[0] > 0.0)
    rng = np.random.default_rng(1)
    qs = box.sample(rng, 32)
    assert np.all(qs[:, 0] > 0.0)


def test_operating_set_rejects_bad_bounds():
    with pytest.raises(ValueError):
        OperatingSet(lower=[0.0], upper=[0.0])


def test_operating_set_rejects_bounds_of_unequal_length():
    with pytest.raises(ValueError, match="equal length"):
        OperatingSet(lower=[0.0, 0.0], upper=[1.0, 1.0, 1.0])


def test_operating_set_stops_when_the_predicate_rejects_every_sample():
    # 1000 draws per requested sample, then an error; never an endless loop.
    calls = []

    def reject(q):
        calls.append(q)
        if len(calls) > 2000:
            raise AssertionError("sampling went on past 1000 draws per sample")
        return False

    box = OperatingSet(lower=[0.0], upper=[1.0], predicate=reject)
    with pytest.raises(RuntimeError, match="rejects almost all samples"):
        box.sample(np.random.default_rng(0), 2)
    assert len(calls) == 2000


def test_registry_names():
    for name in ("robot-reference", "robot-simulated", "two-mass-colocated"):
        model, operating_set = get_model(name)
        assert model.dims.n >= 2
        assert operating_set.lower.size == model.dims.n
    with pytest.raises(KeyError):
        get_model("no-such-model")


def test_two_mass_dynamics_shapes():
    model, _ = two_mass_model()
    q = np.array([0.1, -0.2])
    v = np.array([0.3, 0.4])
    assert np.asarray(model.mass_matrix(q)).shape == (2, 2)
    assert np.asarray(model.forces(q, v)).shape == (2,)
    assert np.asarray(model.holonomic(q)).shape == (0,)
    assert np.asarray(model.input_map(q)).shape == (2, 1)
    assert np.asarray(model.output(q)).shape == (1,)


def test_two_mass_is_colocated():
    q = np.array([0.2, -0.1])
    model, _ = two_mass_model()
    assert is_colocated(model, q)
    shifted, _ = two_mass_model(output_masses=(1,))
    assert not is_colocated(shifted, q)


def test_two_mass_model_rejects_two_outputs_for_its_one_input():
    with pytest.raises(ValueError, match="as many outputs as inputs"):
        two_mass_model(output_masses=(0, 1))


def test_validate_model_passes_on_registered_models():
    for name in ("robot-reference", "robot-simulated", "two-mass-colocated"):
        model, operating_set = get_model(name)
        report = validate_model(model, operating_set, samples=50)
        assert report.passed, report.summary()
        assert report.samples == 50
        assert report.min_eig_mass.min() > 0.0


def test_validate_model_catches_wrong_jacobian():
    model, operating_set = two_mass_model()
    broken = dataclasses.replace(
        model, output_jacobian=lambda q: np.array([[0.0, 1.0]]))
    report = validate_model(broken, operating_set, samples=10)
    assert not report.passed
    assert any("output" in msg for msg in report.failures)


@pytest.mark.parametrize("model_name, part, index, entry", [
    ("two-mass-colocated", 0, 1, "vdot entry 1"),
    ("robot-reference", 0, 3, "vdot entry 3"),
    ("robot-reference", 1, 1, "lam entry 1"),
], ids=["two-mass-vdot", "robot-vdot", "robot-lam"])
def test_validate_model_names_a_wrong_solve_entry(model_name, part, index, entry):
    model, operating_set = get_model(model_name)

    def index1_solve(q, v, u, baumgarte):
        solution = [term.copy() for term in model.index1_solve(q, v, u, baumgarte)]
        solution[part][index] += 0.5
        return tuple(solution)

    broken = dataclasses.replace(model, index1_solve=index1_solve)
    report = validate_model(broken, operating_set, samples=10)
    assert not report.passed
    assert report.solve_defect.min() > 0.0
    assert len(report.failures) == 10
    assert all(f"index1_solve {entry} differs" in msg for msg in report.failures)
    # The two-mass model's own solve is the generic LU, the robot's is not.
    clean = validate_model(model, operating_set, samples=10).solve_defect.max()
    assert clean == 0.0 if model_name == "two-mass-colocated" else clean <= SOLVE_TOL


@pytest.mark.parametrize("change, message", [
    ({"mass_matrix": lambda q: np.array([[1.0, 0.1], [0.0, 1.5]])},
     "mass matrix asymmetric by 1.000e-01"),
    ({"mass_matrix": lambda q: np.diag([1.0, -1.5])},
     "mass matrix not positive definite"),
    ({"index1_solve": lambda q, v, u, baumgarte: ([0.0], [])},
     "index1_solve vdot of shape (1,), not (2,), differs"),
], ids=["asymmetric-mass", "indefinite-mass", "short-vdot"])
def test_validate_model_reports_a_broken_mass_matrix_or_solve(change, message):
    model, operating_set = two_mass_model()
    report = validate_model(dataclasses.replace(model, **change), operating_set, samples=5)
    assert not report.passed
    assert sum(message in msg for msg in report.failures) == 5, report.failures


def test_validate_model_catches_a_set_across_the_high_gain_zero():
    """Widen the robot's arm-angle range past the determinant's zero
    ``cos(gamma) = (I3 + m3 X3^2) / (m3 L3 X3)``: the high-gain
    determinant changes sign between samples, so validation fails."""
    p = RobotParams.reference()
    model, operating_set = get_model("robot-reference")
    gamma_zero = np.arccos((p.I3 + p.m3 * p.X3 ** 2) / (p.m3 * p.L3 * p.X3))
    lower = operating_set.lower.copy()
    upper = operating_set.upper.copy()
    lower[4], upper[4] = -1.3 * gamma_zero, 1.3 * gamma_zero
    report = validate_model(model, OperatingSet(lower=lower, upper=upper),
                            samples=50)
    assert not report.passed
    assert report.det_gamma.min() < 0.0 < report.det_gamma.max()
    assert any("changes sign" in msg for msg in report.failures)


def test_solve_assembled_saddle_rejects_a_large_residual():
    # Consecutive Fibonacci numbers make a positive definite mass matrix of
    # determinant 1 with entries near 2e5.  Its LU passes the pivot test
    # (ratio 2.6e-11), but a unit force gives a solution near 1e5 whose
    # residual, about 1e-6, is far above SADDLE_RESIDUAL_RTOL.
    base, _ = two_mass_model()
    mass = np.array([[196418.0, 121393.0], [121393.0, 75025.0]])
    model = dataclasses.replace(base, mass_matrix=lambda q: mass,
                                forces=lambda q, v: np.array([1.0, 0.0]))
    with pytest.raises(SaddleSingular, match="saddle solve residual"):
        solve_assembled_saddle(model, np.zeros(2), np.zeros(2), np.zeros(1), 0.0)
