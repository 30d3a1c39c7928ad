"""Feedforward inversion by collocation on the servo-constrained dynamics.

The dynamics, the loop-closure constraint and the output pinned to the
reference form a boundary value problem: differential states are
discretized by compressed Hermite-Simpson intervals, algebraic rows are
enforced at the interior and final nodes, and pinned entries at both
window ends close the count.  The system is square, but its Jacobian is
rank-deficient: a mode alternating node to node in the multiplier and
input unknowns lies in its numerical null space.  A damped Newton method
therefore steps through shifted normal equations of the banded
finite-difference Jacobian, which filter that mode; the input trajectory
it returns is the feedforward signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solveh_banded

from .errors import (
    BadGrid,
    NewtonDiverged,
    NonFiniteEvaluation,
    SingularMatrix,
)
from .linalg import fd_jacobian, solve_linear

#: Convergence threshold on the residual infinity norm.
RESIDUAL_TOL = 1e-8

#: Smallest admissible number of collocation intervals.
MIN_INTERVALS = 20

#: Pre- and post-window padding of the inversion horizon, in seconds.
WINDOW_BEFORE = 0.5
WINDOW_AFTER = 1.0


@dataclass(frozen=True)
class BoundarySelection:
    """Entries of the stacked node unknowns pinned at the window ends.

    Each side holds ``(index, target)`` pairs, the index running over the
    per-node stack ``(q, v, lam, u)``.  Together both sides must pin
    exactly as many entries as one node carries.
    """

    fixed_start: tuple
    fixed_end: tuple

    def __post_init__(self):
        object.__setattr__(self, "fixed_start",
                           tuple((int(i), float(v)) for i, v in self.fixed_start))
        object.__setattr__(self, "fixed_end",
                           tuple((int(i), float(v)) for i, v in self.fixed_end))
        for side, pairs in (("start", self.fixed_start), ("end", self.fixed_end)):
            idx = [i for i, _ in pairs]
            if len(set(idx)) != len(idx):
                raise ValueError(f"duplicate pinned index at the {side} boundary")
            if any(i < 0 for i in idx):
                raise ValueError("pinned indices must be non-negative")


def robot_boundary_preset(params):
    """Window-end pinning for the robot's rest-to-rest inversion.

    At the start the full configuration, both slider rates, the first
    multiplier and both inputs rest at the initial equilibrium; at the
    end the arm angle, the second multiplier and both inputs vanish.
    """
    from . import robot as robot_mod

    alpha0, beta0 = robot_mod.initial_configuration(params)
    fixed_start = (
        (0, 0.0), (1, 0.0), (2, alpha0), (3, beta0), (4, 0.0),
        (5, 0.0), (6, 0.0),
        (10, 0.0),
        (12, 0.0), (13, 0.0),
    )
    fixed_end = ((4, 0.0), (11, 0.0), (12, 0.0), (13, 0.0))
    return BoundarySelection(fixed_start=fixed_start, fixed_end=fixed_end)


@dataclass(frozen=True)
class BvpOptions:
    """Solver window, resolution and Newton iteration budget.

    ``t_start``/``t_end`` default to the reference window padded by
    ``WINDOW_BEFORE``/``WINDOW_AFTER``.  Newton stops once the residual
    infinity norm is at most ``RESIDUAL_TOL``.
    """

    t_start: float = None
    t_end: float = None
    intervals: int = 350
    max_iterations: int = 40


@dataclass
class CollocationSolution:
    """Converged collocation trajectory on a uniform grid."""

    grid: np.ndarray
    q: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    u: np.ndarray
    newton_iterations: int
    final_residual: float

    def write_csv(self, path):
        """Write the node trajectory as CSV with full double precision."""
        n = self.q.shape[1]
        l = self.lam.shape[1]
        m = self.u.shape[1]
        header = ",".join(
            ["t"]
            + [f"q{i + 1}" for i in range(n)]
            + [f"v{i + 1}" for i in range(n)]
            + [f"lam{i + 1}" for i in range(l)]
            + [f"u{i + 1}" for i in range(m)]
        )
        data = np.column_stack([self.grid, self.q, self.v, self.lam, self.u])
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in data:
                fh.write(",".join(f"{val:.17g}" for val in row) + "\n")


def equilibrium(model, y_target, guess):
    """Steady state holding the output at ``y_target``.

    Newton iteration on ``(q, lam, u)`` for vanishing forces, closed
    constraints and the pinned output; returns ``(q, v, lam, u)`` with
    zero velocity.  Raises ``NewtonDiverged`` when 50 iterations do not
    reach a 1e-10 residual or an iterate goes non-finite.
    """
    dims = model.dims
    y_target = np.asarray(y_target, dtype=float)
    x = np.concatenate([np.asarray(guess, dtype=float),
                        np.zeros(dims.holonomic + dims.inputs)])
    zero_v = np.zeros(dims.n)

    def residual(state):
        q = state[:dims.n]
        lam = state[dims.n:dims.n + dims.holonomic]
        u = state[dims.n + dims.holonomic:]
        force = (np.asarray(model.forces(q, zero_v), dtype=float)
                 + np.asarray(model.holonomic_jacobian(q), dtype=float).T @ lam
                 + np.asarray(model.input_map(q), dtype=float) @ u)
        return np.concatenate([
            force,
            np.asarray(model.holonomic(q), dtype=float),
            np.asarray(model.output(q), dtype=float) - y_target,
        ])

    for _ in range(50):
        res = residual(x)
        if not np.all(np.isfinite(res)):
            raise NewtonDiverged("equilibrium residual went non-finite")
        if np.abs(res).max() <= 1e-10:
            q = x[:dims.n]
            lam = x[dims.n:dims.n + dims.holonomic]
            u = x[dims.n + dims.holonomic:]
            return q, zero_v.copy(), lam, u
        try:
            step = solve_linear(fd_jacobian(residual, x), res)
        except (SingularMatrix, NonFiniteEvaluation) as exc:
            raise NewtonDiverged(f"equilibrium Newton failed: {exc}") from exc
        x = x - step
    raise NewtonDiverged("equilibrium Newton did not converge in 50 iterations")


class _Transcription:
    """Vectorized residual of the collocation system on a fixed grid."""

    def __init__(self, model, ref, sel, grid):
        dims = model.dims
        self.model = model
        self.sel = sel
        self.grid = np.asarray(grid, dtype=float)
        self.n = dims.n
        self.l = dims.holonomic
        self.m = dims.inputs
        self.width = 2 * dims.n + dims.holonomic + dims.inputs
        n_pins = len(sel.fixed_start) + len(sel.fixed_end)
        if n_pins != self.width:
            raise ValueError(
                f"boundary selection pins {n_pins} entries, need {self.width}")
        if any(i >= self.width for i, _ in sel.fixed_start + sel.fixed_end):
            raise ValueError("pinned index outside the node stack")
        self.h = np.diff(self.grid)
        self.y_nodes = np.asarray(ref(self.grid[1:])[0], dtype=float)
        self.size = self.grid.size * self.width

    def split(self, z):
        nodes = z.reshape(self.grid.size, self.width)
        n, l = self.n, self.l
        return (nodes[:, :n], nodes[:, n:2 * n],
                nodes[:, 2 * n:2 * n + l], nodes[:, 2 * n + l:])

    def _acceleration(self, q, v, lam, u):
        model = self.model
        mass = np.asarray(model.mass_matrix(q), dtype=float)
        rhs = (np.asarray(model.forces(q, v), dtype=float)
               + np.einsum("...ij,...i->...j",
                           np.asarray(model.holonomic_jacobian(q), dtype=float), lam)
               + np.einsum("...ij,...j->...i",
                           np.asarray(model.input_map(q), dtype=float), u))
        return np.linalg.solve(mass, rhs[..., None])[..., 0]

    def residual(self, z):
        q, v, lam, u = self.split(z)
        acc = self._acceleration(q, v, lam, u)
        h = self.h[:, None]

        q_mid = 0.5 * (q[:-1] + q[1:]) + h / 8.0 * (v[:-1] - v[1:])
        v_mid = 0.5 * (v[:-1] + v[1:]) + h / 8.0 * (acc[:-1] - acc[1:])
        lam_mid = 0.5 * (lam[:-1] + lam[1:])
        u_mid = 0.5 * (u[:-1] + u[1:])
        acc_mid = self._acceleration(q_mid, v_mid, lam_mid, u_mid)

        defect_q = q[1:] - q[:-1] - h / 6.0 * (v[:-1] + 4.0 * v_mid + v[1:])
        defect_v = v[1:] - v[:-1] - h / 6.0 * (acc[:-1] + 4.0 * acc_mid + acc[1:])
        closure = np.asarray(self.model.holonomic(q[1:]), dtype=float)
        servo = np.asarray(self.model.output(q[1:]), dtype=float) - self.y_nodes

        intervals = np.concatenate([defect_q, defect_v, closure, servo], axis=1)
        nodes = z.reshape(self.grid.size, self.width)
        start = np.array([nodes[0, i] - t for i, t in self.sel.fixed_start])
        end = np.array([nodes[-1, i] - t for i, t in self.sel.fixed_end])
        res = np.concatenate([start, intervals.ravel(), end])
        if not np.all(np.isfinite(res)):
            raise NonFiniteEvaluation("collocation residual went non-finite")
        return res

    @property
    def bandwidths(self):
        n_start = len(self.sel.fixed_start)
        return n_start + 2 * self.n - 1, 2 * self.width - 1 - n_start

    def banded_jacobian(self, z, base):
        """Forward-difference Jacobian in banded storage, by column groups."""
        lower, upper = self.bandwidths
        stride = lower + upper + 1
        ab = np.zeros((stride, self.size))
        steps = 1e-7 * np.maximum(1.0, np.abs(z))
        for group in range(stride):
            cols = np.arange(group, self.size, stride)
            zp = z.copy()
            zp[cols] += steps[cols]
            diff = self.residual(zp) - base
            for c in cols:
                r_lo = max(0, c - upper)
                r_hi = min(self.size, c + lower + 1)
                rows = np.arange(r_lo, r_hi)
                ab[upper + rows - c, c] = diff[rows] / steps[c]
        return ab


def _normal_banded(ab, res, lower, upper):
    """Banded normal matrix, gradient and diagonal scale from a banded J.

    The transcription Jacobian carries a parasitic near-null alternating
    mode in the multiplier and input unknowns whose singular value decays
    geometrically with the grid; solving the Newton system through
    shifted normal equations filters that mode while leaving the smooth,
    well-conditioned part of the step untouched.
    """
    size = ab.shape[1]
    bw = lower + upper
    hb = np.zeros((bw + 1, size))
    for s in range(bw + 1):
        acc = np.zeros(size - s)
        for k1 in range(s - upper, lower + 1):
            acc += ab[upper + k1, :size - s] * ab[upper + k1 - s, s:]
        hb[bw - s, s:] = acc
    grad = np.zeros(size)
    for k in range(-upper, lower + 1):
        c_lo = max(0, -k)
        c_hi = min(size, size - k)
        grad[c_lo:c_hi] += ab[upper + k, c_lo:c_hi] * res[c_lo + k:c_hi + k]
    return hb, grad, float(hb[bw].max())


def _newton(trans, z, max_iterations):
    lower, upper = trans.bandwidths
    res = trans.residual(z)
    norm = np.abs(res).max()
    merit = float(res @ res)
    shift_floor = None
    iterations = 0
    while norm > RESIDUAL_TOL:
        if iterations >= max_iterations:
            raise NewtonDiverged(
                f"residual {norm:.3e} after {iterations} Newton iterations")
        ab = trans.banded_jacobian(z, res)
        hb, grad, diag_max = _normal_banded(ab, res, lower, upper)
        if shift_floor is None:
            shift_floor = 1e-20 * max(diag_max, 1.0)
            shift = shift_floor
        accepted = False
        while not accepted:
            hb_shift = hb.copy()
            hb_shift[-1] += shift
            try:
                step = solveh_banded(hb_shift, -grad, lower=False)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                scale = 1.0
                for _ in range(12):
                    try:
                        cand = trans.residual(z + scale * step)
                        cand_merit = float(cand @ cand)
                    except NonFiniteEvaluation:
                        cand_merit = np.inf
                    if cand_merit < (1.0 - 1e-4 * scale) * merit:
                        accepted = True
                        break
                    scale *= 0.5
            if not accepted:
                shift *= 100.0
                if shift > 1e20 * max(diag_max, 1.0):
                    raise NewtonDiverged(
                        f"no descent at residual {norm:.3e}")
        z = z + scale * step
        res = cand
        merit = cand_merit
        norm = np.abs(res).max()
        shift = max(shift / 10.0, shift_floor)
        iterations += 1
    return z, norm, iterations


def _initial_guess(model, ref, sel, grid):
    """Quasi-static guess: the equilibrium path tracking the reference.

    Solves the holding equilibrium at every node time, warm-started from
    the previous node, and differentiates the resulting configuration
    path for the velocity guess.  Closure and servo rows are then exact
    at the guess and only the dynamic defects remain.
    """
    dims = model.dims
    q_hint = np.zeros(dims.n)
    for i, t in sel.fixed_start:
        if i < dims.n:
            q_hint[i] = t

    width = 2 * dims.n + dims.holonomic + dims.inputs
    nodes = np.zeros((grid.size, width))
    y_path = np.asarray(ref(grid)[0], dtype=float)
    q_prev = q_hint
    for k in range(grid.size):
        q_k, _, lam_k, u_k = equilibrium(model, y_path[k], q_prev)
        nodes[k, :dims.n] = q_k
        nodes[k, 2 * dims.n:2 * dims.n + dims.holonomic] = lam_k
        nodes[k, 2 * dims.n + dims.holonomic:] = u_k
        q_prev = q_k

    q_path = nodes[:, :dims.n]
    v_path = np.gradient(q_path, grid, axis=0)
    nodes[:, dims.n:2 * dims.n] = v_path
    return nodes.ravel()


def solve_bvp(model, ref, sel, options=None):
    """Solve the inversion boundary value problem on a uniform grid.

    Returns a ``CollocationSolution`` whose residual infinity norm is at
    most ``RESIDUAL_TOL``.  Raises ``BadGrid`` for fewer than
    ``MIN_INTERVALS`` intervals or a degenerate window, ``NewtonDiverged``
    when damped Newton stalls.
    """
    options = options or BvpOptions()
    t_start = options.t_start
    t_end = options.t_end
    if t_start is None:
        t_start = getattr(ref, "t_start", 0.0) - WINDOW_BEFORE
    if t_end is None:
        t_end = getattr(ref, "t_end", 0.0) + WINDOW_AFTER
    if not t_end > t_start:
        raise BadGrid(f"window [{t_start}, {t_end}] is empty")
    if options.intervals < MIN_INTERVALS:
        raise BadGrid(f"need at least {MIN_INTERVALS} intervals, "
                      f"got {options.intervals}")

    grid = np.linspace(t_start, t_end, options.intervals + 1)
    trans = _Transcription(model, ref, sel, grid)
    z = _initial_guess(model, ref, sel, grid)
    z, norm, iterations = _newton(trans, z, options.max_iterations)

    q, v, lam, u = trans.split(z)
    return CollocationSolution(
        grid=grid, q=q.copy(), v=v.copy(), lam=lam.copy(), u=u.copy(),
        newton_iterations=iterations, final_residual=float(norm),
    )


def feedforward(sol):
    """Input interpolant of a converged solution.

    Cubic interpolation through the grid inputs, held at the end values
    beyond the window.  The signal is the full non-causal feedforward:
    whatever part of the window a run covers is applied as solved.
    """
    spline = CubicSpline(sol.grid, sol.u, axis=0)
    lo, hi = sol.grid[0], sol.grid[-1]

    def u_ff(t):
        return spline(np.clip(np.asarray(t, dtype=float), lo, hi))

    return u_ff
