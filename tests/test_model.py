"""Tests for the model container, registry and validation oracles."""

import dataclasses

import numpy as np
import pytest

from oracles import contains
from servofunnel.model import (
    MbsDims,
    OperatingSet,
    get_model,
    is_colocated,
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


@pytest.mark.parametrize("part, index, entry", [
    (0, (1, 0), "saddle entry (1, 0)"),
    (1, (1,), "right-hand side entry 1"),
], ids=["saddle", "rhs"])
def test_validate_model_names_a_wrong_saddle_entry(part, index, entry):
    model, operating_set = two_mass_model()

    def index1_saddle(q, v, u, baumgarte):
        system = [term.copy() for term in model.index1_saddle(q, v, u, baumgarte)]
        system[part][index] += 0.5
        return tuple(system)

    broken = dataclasses.replace(model, index1_saddle=index1_saddle)
    report = validate_model(broken, operating_set, samples=10)
    assert not report.passed
    assert report.saddle_defect.min() > 0.0
    assert len(report.failures) == 10
    assert all(f"index1_saddle {entry} differs" in msg for msg in report.failures)
    assert validate_model(model, operating_set, samples=10).saddle_defect.max() == 0.0


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
