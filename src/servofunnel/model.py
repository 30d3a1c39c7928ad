"""Contract for multibody DAE models and numerical model validators.

A model provides the building blocks of

    q' = v
    M(q) v' = f(q, v) + G(q)^T lam + B(q) u
    0 = g(q)                   (l holonomic constraints)
    y = h(q)                   (m outputs)

as callables.  All callables but one accept arrays with leading batch
dimensions (coordinates along the last axis) and broadcast; validators
only use the single-configuration case.  The exception is the one the
closed loop evaluates at every integrator stage:
``index1_solve(q, v, u, baumgarte)`` takes one state, ``q`` and ``v``
of length ``n`` and the input ``u`` of length ``m``, as sequences of
floats (numpy arrays included), and returns the solution ``(vdot,
lam)`` of the index-1 saddle system as two lists of Python floats,

    [[M, -G^T], [G, 0]] (vdot, lam) = (f + B u, c),
    c = -Gdot v - 2 baumgarte G v - baumgarte^2 g,

with ``Gdot`` the time derivative of ``G`` along ``v``.  It raises
``NonFiniteEvaluation`` for a non-finite state or input and
``SaddleSingular`` when the system is numerically singular or its
residual exceeds ``SADDLE_RESIDUAL_RTOL * max(1, |rhs|)``.
``solve_assembled_saddle`` is the generic form: the checked LU of
``assemble_saddle``, the system built from the separate callables.  A
model may solve its own structure instead; ``validate_model`` checks the
result against the generic form to ``SOLVE_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import GammaSingular, GramSingular, SaddleSingular, SingularMatrix
from .linalg import fd_jacobian, solve_linear

#: Infinity-norm tolerance on ``H - B^T`` for the colocation test.
COLOCATION_TOL = 1e-10
#: Tolerance on finite-difference Jacobian defects in ``validate_model``.
JACOBIAN_TOL = 1e-6
#: Tolerance on the symmetry defect of the mass matrix.
SYMMETRY_TOL = 1e-10
#: Relative tolerance on ``index1_solve`` against ``solve_assembled_saddle``.
SOLVE_TOL = 1e-12
#: Residual bound of a saddle solve, relative to ``max(1, |rhs|)``.
SADDLE_RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class MbsDims:
    """Dimensions of a multibody model: coordinates, constraints, inputs."""

    n: int
    holonomic: int
    inputs: int

    def __post_init__(self):
        for name in ("n", "holonomic", "inputs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.holonomic + self.inputs > self.n:
            raise ValueError(
                "constraint and input counts exceed the coordinate count: "
                f"{self.holonomic}+{self.inputs} > {self.n}"
            )


@dataclass(frozen=True)
class MbsModel:
    """Callable bundle describing one multibody system.

    ``mass_matrix(q)`` must be symmetric positive definite on the operating
    set; ``holonomic_jacobian`` must be the Jacobian of ``holonomic`` and
    ``output_jacobian`` the Jacobian of ``output``.  ``index1_solve(q,
    v, u, baumgarte)`` takes one state as sequences of floats and
    returns its ``(vdot, lam)`` as two lists of floats, the solution of
    the saddle system ``assemble_saddle`` builds from the other
    callables; ``validate_model`` checks that it is.
    """

    dims: MbsDims
    mass_matrix: Callable          # q -> (n, n)
    forces: Callable               # q, v -> (n,)
    holonomic: Callable            # q -> (l,)
    holonomic_jacobian: Callable   # q -> (l, n)
    holonomic_jacobian_dot: Callable  # q, v -> (l, n)
    input_map: Callable            # q -> (n, m)
    index1_solve: Callable         # q, v, u, baumgarte -> (vdot, lam) lists
    output: Callable               # q -> (m,)
    output_jacobian: Callable      # q -> (m, n)
    name: str = "unnamed"


@dataclass(frozen=True)
class OperatingSet:
    """Box with an optional predicate describing admissible configurations.

    The box bounds are finite so the set can be sampled; the predicate
    carves out the admissible subset (for example ``cos(gamma) > bound``
    in ``robot.robot_operating_set``).
    """

    lower: np.ndarray
    upper: np.ndarray
    predicate: Optional[Callable] = None

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("lower and upper bounds must be 1-d arrays of equal length")
        if np.any(self.lower >= self.upper):
            raise ValueError("lower bounds must be strictly below upper bounds")

    def sample(self, rng, count):
        """Draw ``count`` configurations uniformly, rejecting predicate failures."""
        out = np.empty((count, self.lower.size))
        got = 0
        attempts = 0
        while got < count:
            q = rng.uniform(self.lower, self.upper)
            attempts += 1
            if attempts > 1000 * count:
                raise RuntimeError("operating-set predicate rejects almost all samples")
            if self.predicate is None or self.predicate(q):
                out[got] = q
                got += 1
        return out


@dataclass
class ValidationReport:
    """Per-sample defect summary produced by ``validate_model``."""

    model_name: str
    samples: int
    min_eig_mass: np.ndarray
    symmetry_defect: np.ndarray
    holonomic_jacobian_defect: np.ndarray
    output_jacobian_defect: np.ndarray
    jacobian_dot_defect: np.ndarray
    solve_defect: np.ndarray
    det_gamma: np.ndarray
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def summary(self):
        lines = [
            f"model: {self.model_name}",
            f"samples: {self.samples}",
            f"min eigenvalue of M: {self.min_eig_mass.min():.6e}",
            f"max symmetry defect: {self.symmetry_defect.max():.3e}",
            f"max holonomic Jacobian defect: {self.holonomic_jacobian_defect.max():.3e}",
            f"max output Jacobian defect: {self.output_jacobian_defect.max():.3e}",
            f"max Jacobian time-derivative defect: {self.jacobian_dot_defect.max():.3e}",
            f"max index1_solve defect against the LU: {self.solve_defect.max():.3e}",
            f"min |det Gamma|: {np.abs(self.det_gamma).min():.3e}",
            f"passed: {self.passed}",
        ]
        lines += [f"failure: {msg}" for msg in self.failures]
        return "\n".join(lines)


def validate_model(model, operating_set, samples=100):
    """Check model self-consistency at sampled configurations.

    The samples, rates and inputs are drawn with seed 0, so every call
    checks the same states.

    Verifies that the mass matrix is symmetric positive definite, that the
    provided constraint and output Jacobians match finite differences of
    ``holonomic`` and ``output``, and that ``holonomic_jacobian_dot``
    matches the directional derivative of ``holonomic_jacobian``, and
    that ``index1_solve`` agrees with ``solve_assembled_saddle`` at a
    random input with ``simulate.BAUMGARTE``.  The
    high-gain matrix ``Gamma`` must be invertible at every sample, with
    one sign of ``det(Gamma)`` over all of them, so the vector relative
    degree is well defined on the whole set.  Failures are collected in
    the report, not raised.
    """
    from .internal import high_gain  # local: model -> internal -> robot -> model
    from .simulate import BAUMGARTE

    rng = np.random.default_rng(0)
    qs = operating_set.sample(rng, samples)
    vs = rng.standard_normal(qs.shape)
    us = rng.standard_normal((samples, model.dims.inputs))
    n = model.dims.n

    report = ValidationReport(
        model_name=model.name,
        samples=samples,
        min_eig_mass=np.empty(samples),
        symmetry_defect=np.empty(samples),
        holonomic_jacobian_defect=np.empty(samples),
        output_jacobian_defect=np.empty(samples),
        jacobian_dot_defect=np.empty(samples),
        solve_defect=np.empty(samples),
        det_gamma=np.zeros(samples),
    )

    for k in range(samples):
        q, v = qs[k], vs[k]
        mass = np.asarray(model.mass_matrix(q), dtype=float)
        report.symmetry_defect[k] = np.abs(mass - mass.T).max()
        report.min_eig_mass[k] = np.linalg.eigvalsh(0.5 * (mass + mass.T)).min()

        g_jac = np.asarray(model.holonomic_jacobian(q), dtype=float)
        g_fd = fd_jacobian(model.holonomic, q) if g_jac.size else g_jac
        report.holonomic_jacobian_defect[k] = (
            np.abs(g_jac - g_fd).max() if g_jac.size else 0.0
        )

        h_jac = np.asarray(model.output_jacobian(q), dtype=float)
        h_fd = fd_jacobian(model.output, q)
        report.output_jacobian_defect[k] = np.abs(h_jac - h_fd).max()

        if g_jac.size:
            step = 1e-6 / max(1.0, np.abs(v).max())
            gdot_fd = (
                np.asarray(model.holonomic_jacobian(q + step * v), dtype=float)
                - np.asarray(model.holonomic_jacobian(q - step * v), dtype=float)
            ) / (2.0 * step)
            gdot = np.asarray(model.holonomic_jacobian_dot(q, v), dtype=float)
            report.jacobian_dot_defect[k] = np.abs(gdot - gdot_fd).max()
        else:
            report.jacobian_dot_defect[k] = 0.0

        report.solve_defect[k], entry = _solve_defect(
            model.index1_solve(q, v, us[k], BAUMGARTE),
            solve_assembled_saddle(model, q, v, us[k], BAUMGARTE))

        if report.symmetry_defect[k] > SYMMETRY_TOL:
            report.failures.append(
                f"sample {k}: mass matrix asymmetric by {report.symmetry_defect[k]:.3e}"
            )
        if not report.min_eig_mass[k] > 0.0:
            report.failures.append(f"sample {k}: mass matrix not positive definite")
        for label, defect in (
            ("holonomic Jacobian", report.holonomic_jacobian_defect[k]),
            ("output Jacobian", report.output_jacobian_defect[k]),
            ("Jacobian time derivative", report.jacobian_dot_defect[k]),
        ):
            if defect > JACOBIAN_TOL:
                report.failures.append(
                    f"sample {k}: {label} defect {defect:.3e} exceeds {JACOBIAN_TOL:g}"
                )
        if not report.solve_defect[k] <= SOLVE_TOL:
            report.failures.append(
                f"sample {k}: index1_solve {entry} differs from the LU of the "
                f"assembled saddle by {report.solve_defect[k]:.3e} (relative)"
            )

        try:
            report.det_gamma[k] = np.linalg.det(high_gain(model, q).gamma)
        except (GramSingular, GammaSingular) as exc:
            report.failures.append(f"sample {k}: {exc}")

    signs = set(np.sign(report.det_gamma[report.det_gamma != 0.0]))
    if len(signs) > 1:
        report.failures.append(
            "high-gain determinant changes sign on the operating set: "
            f"{report.det_gamma.min():.3e} to {report.det_gamma.max():.3e}"
        )
    return report


def assemble_saddle(model, q, v, u, baumgarte):
    """The index-1 saddle system ``(saddle, rhs)`` at one state, from the
    separate callables; see the module docstring for the system."""
    n = model.dims.n
    l = model.dims.holonomic
    mass, force, b, jac, jac_dot, closure = (
        np.asarray(term, dtype=float) for term in (
            model.mass_matrix(q), model.forces(q, v), model.input_map(q),
            model.holonomic_jacobian(q), model.holonomic_jacobian_dot(q, v),
            model.holonomic(q)))
    saddle = np.zeros((n + l, n + l))
    saddle[:n, :n] = mass
    saddle[:n, n:] = -jac.T
    saddle[n:, :n] = jac
    rhs = np.concatenate([
        force + b @ u,
        -jac_dot @ v - 2.0 * baumgarte * jac @ v - baumgarte ** 2 * closure,
    ])
    return saddle, rhs


def solve_assembled_saddle(model, q, v, u, baumgarte):
    """``(vdot, lam)`` at one state by the checked LU of ``assemble_saddle``.

    The generic ``index1_solve``, and the reference ``validate_model``
    checks every model's against.  Raises ``SaddleSingular`` on a pivot
    below ``linalg.PIVOT_RTOL`` of the largest or a residual above
    ``SADDLE_RESIDUAL_RTOL * max(1, |rhs|)``, and ``NonFiniteEvaluation``
    when the system is not finite.
    """
    saddle, rhs = assemble_saddle(model, q, v, u, baumgarte)
    try:
        sol = solve_linear(saddle, rhs)
    except SingularMatrix as exc:
        raise SaddleSingular(f"constraint rows lost rank: {exc}") from exc
    residual = np.abs(saddle @ sol - rhs).max()
    if not residual <= SADDLE_RESIDUAL_RTOL * max(1.0, np.abs(rhs).max()):
        raise SaddleSingular(f"saddle solve residual {residual:.3e}")
    n = model.dims.n
    return sol[:n], sol[n:]


def _solve_defect(solution, reference):
    """Largest relative entry difference of a ``(vdot, lam)`` pair from
    ``reference``, and the name of that entry.

    Each part is scaled by its largest reference entry, at least 1.  The
    defect is ``inf`` when a shape differs and NaN when an entry is not a
    number.
    """
    defects, names = [], []
    for part, got, want in zip(("vdot", "lam"), solution, reference):
        got = np.asarray(got, dtype=float)
        if got.shape != want.shape:
            return np.inf, f"{part} of shape {got.shape}, not {want.shape},"
        defects.append(np.abs(got - want) / np.abs(want).max(initial=1.0))
        names += [f"{part} entry {i}" for i in range(want.size)]
    defects = np.concatenate(defects)
    k = int(np.argmax(defects))
    return defects[k], names[k]


def is_colocated(model, q):
    """True when the output Jacobian equals the transposed input map at ``q``."""
    h_jac = np.asarray(model.output_jacobian(q), dtype=float)
    b = np.asarray(model.input_map(q), dtype=float)
    return np.abs(h_jac - b.T).max() <= COLOCATION_TOL


def two_mass_model(output_masses=(0,)):
    """Two point masses (1 and 1.5 kg) coupled by one spring-damper
    (40 N/m, 1.2 N s/m), no constraints.

    One force acts on mass 1, and the output is the position of the mass
    in ``output_masses``; the default (mass 1) is colocated.  Returns
    ``(model, operating_set)``.
    """
    n = 2
    if len(output_masses) != 1:
        raise ValueError("need as many outputs as inputs for a square system")
    mass = np.diag([1.0, 1.5])
    b = np.array([[1.0], [0.0]])
    h_jac = np.zeros((1, n))
    h_jac[0, output_masses[0]] = 1.0

    def forces(q, v):
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        pull = 40.0 * (q[..., 0] - q[..., 1]) + 1.2 * (v[..., 0] - v[..., 1])
        return np.stack([-pull, pull], axis=-1)

    def batched_const(arr):
        def fn(q, *_):
            q = np.asarray(q, dtype=float)
            return np.broadcast_to(arr, q.shape[:-1] + arr.shape).copy()
        return fn

    def empty_rows(cols):
        def fn(q, *_):
            q = np.asarray(q, dtype=float)
            return np.zeros(q.shape[:-1] + (0, cols))
        return fn

    def empty_vec(q, *_):
        q = np.asarray(q, dtype=float)
        return np.zeros(q.shape[:-1] + (0,))

    def output(q):
        q = np.asarray(q, dtype=float)
        return np.stack([q[..., idx] for idx in output_masses], axis=-1)

    mass_matrix = batched_const(mass)
    input_map = batched_const(b)
    no_rows = empty_rows(n)

    def index1_solve(q, v, u, baumgarte):
        vdot, lam = solve_assembled_saddle(model, q, v, u, baumgarte)
        return vdot.tolist(), lam.tolist()

    model = MbsModel(
        dims=MbsDims(n=n, holonomic=0, inputs=1),
        mass_matrix=mass_matrix,
        forces=forces,
        holonomic=empty_vec,
        holonomic_jacobian=no_rows,
        holonomic_jacobian_dot=no_rows,
        input_map=input_map,
        index1_solve=index1_solve,
        output=output,
        output_jacobian=batched_const(h_jac),
        name="two-mass",
    )
    opset = OperatingSet(lower=np.array([-5.0, -5.0]), upper=np.array([5.0, 5.0]))
    return model, opset


def get_model(name):
    """Look up a registered model by name; returns ``(model, operating_set)``.

    Registered names: ``robot-reference``, ``robot-simulated``,
    ``two-mass-colocated``.
    """
    from . import robot  # local import to avoid a cycle

    if name == "robot-reference":
        params = robot.RobotParams.reference()
        return robot.robot_model(params), robot.robot_operating_set(params)
    if name == "robot-simulated":
        params = robot.RobotParams.simulated()
        return robot.robot_model(params), robot.robot_operating_set(params)
    if name == "two-mass-colocated":
        return two_mass_model()
    raise KeyError(f"unknown model name: {name!r}")
