"""Feedforward inversion by collocation on the servo-constrained dynamics.

The dynamics, the loop-closure constraint and the output pinned to the
reference form a boundary value problem: differential states are
discretized by compressed Hermite-Simpson intervals, algebraic rows are
enforced at the interior and final nodes, and pinned entries at both
window ends close the count.  The initial guess is the quasi-static
equilibrium path, solved for every node by one batched Newton method.
A damped Newton method then solves the square system with one banded LU
per step; the banded finite-difference Jacobian takes ``2 * width``
residual evaluations, since a node's columns reach only its two adjacent
intervals.  The input trajectory it returns is the feedforward signal.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from . import robot as robot_mod
from .errors import (
    BadGrid,
    NewtonDiverged,
    NonFiniteEvaluation,
    SingularMatrix,
)
from .linalg import fd_jacobian, solve_linear

#: Convergence threshold on the residual infinity norm.
RESIDUAL_TOL = 1e-8

#: Newton iteration budget of one inversion.
MAX_NEWTON_ITERATIONS = 40

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

    Nine start pins hold the initial equilibrium: the full configuration
    ``(s1, s2, alpha, beta, gamma)``, the rate of ``s1``, the first
    multiplier and both inputs.  The rate of ``s2`` stays free because
    the servo rows hold the output ``y1 = s2`` at every later node, which
    already fixes it.  Five end pins hold the final rest: the arm angle ``gamma``,
    both multipliers and both inputs.  The end is a static equilibrium
    with the arm spring unloaded, so both multipliers vanish there.
    """
    alpha0, beta0 = robot_mod.initial_configuration(params)
    fixed_start = (
        (0, 0.0), (1, 0.0), (2, alpha0), (3, beta0), (4, 0.0),
        (5, 0.0),
        (10, 0.0),
        (12, 0.0), (13, 0.0),
    )
    fixed_end = ((4, 0.0), (10, 0.0), (11, 0.0), (12, 0.0), (13, 0.0))
    return BoundarySelection(fixed_start=fixed_start, fixed_end=fixed_end)


@dataclass(frozen=True)
class BvpOptions:
    """Solver window and resolution.

    ``t_start``/``t_end`` default to the reference window padded by
    ``WINDOW_BEFORE``/``WINDOW_AFTER``.
    """

    t_start: float = None
    t_end: float = None
    intervals: int = 350

    def grid(self, ref):
        """Uniform node times over the window, unset ends taken from ``ref``.

        Raises ``BadGrid`` for an empty window or fewer than
        ``MIN_INTERVALS`` intervals.
        """
        t_start = ref.t_start - WINDOW_BEFORE if self.t_start is None else self.t_start
        t_end = ref.t_end + WINDOW_AFTER if self.t_end is None else self.t_end
        if not t_end > t_start:
            raise BadGrid(f"window [{t_start}, {t_end}] is empty")
        if self.intervals < MIN_INTERVALS:
            raise BadGrid(f"need at least {MIN_INTERVALS} intervals, "
                          f"got {self.intervals}")
        return np.linspace(t_start, t_end, self.intervals + 1)


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
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header,
                   comments="")


def _applied_forces(model, q, v, lam, u):
    """Right-hand side ``f(q, v) + G(q)^T lam + B(q) u``, row by row."""
    return (np.asarray(model.forces(q, v), dtype=float)
            + np.einsum("...ij,...i->...j",
                        np.asarray(model.holonomic_jacobian(q), dtype=float), lam)
            + np.einsum("...ij,...j->...i",
                        np.asarray(model.input_map(q), dtype=float), u))


def equilibrium(model, y_target, guess):
    """Steady states holding the output at each of the ``y_target`` rows.

    ``y_target`` is ``(m,)`` or ``(..., m)``; ``guess`` is a configuration
    broadcast against its leading dimensions.  One Newton method runs on
    the stacked ``(q, lam, u)`` of all targets at once, for vanishing
    forces, closed constraints and the pinned output.  Targets do not
    couple, so the Jacobian is block-diagonal: its blocks come from one
    batched central-difference ``fd_jacobian`` and each is solved with
    the checked ``solve_linear``.  A target stops moving once its
    residual reaches 1e-10, so every row ends exactly where a call with
    that target alone ends.  Returns ``(q, v, lam, u)`` with zero
    velocity, each with the leading dimensions of ``y_target``.  Raises
    ``NewtonDiverged`` naming the first target at fault (by its flat
    index) when 50 iterations do not reach the tolerance, an iterate
    goes non-finite or a block is singular.
    """
    dims = model.dims
    n, l = dims.n, dims.holonomic
    y_target = np.asarray(y_target, dtype=float)
    batch = y_target.shape[:-1]
    y_rows = y_target.reshape(-1, y_target.shape[-1])
    q0 = np.broadcast_to(np.asarray(guess, dtype=float), (y_rows.shape[0], n))
    x = np.concatenate([q0, np.zeros((y_rows.shape[0], l + dims.inputs))], axis=1)
    zero_v = np.zeros_like(q0)

    def residual(state):
        q = state[:, :n]
        return np.concatenate([
            _applied_forces(model, q, zero_v, state[:, n:n + l], state[:, n + l:]),
            np.asarray(model.holonomic(q), dtype=float),
            np.asarray(model.output(q), dtype=float) - y_rows,
        ], axis=1)

    for _ in range(50):
        res = residual(x)
        finite = np.isfinite(res).all(axis=1)
        if not finite.all():
            raise NewtonDiverged("equilibrium residual went non-finite "
                                 f"at target {np.argmin(finite)}")
        active = np.flatnonzero(np.abs(res).max(axis=1) > 1e-10)
        if active.size == 0:
            q = x[:, :n].reshape(batch + (n,))
            lam = x[:, n:n + l].reshape(batch + (l,))
            u = x[:, n + l:].reshape(batch + (dims.inputs,))
            return q, np.zeros_like(q), lam, u
        try:
            jac = fd_jacobian(residual, x)
        except NonFiniteEvaluation as exc:
            raise NewtonDiverged(f"equilibrium Newton failed: {exc}") from exc
        for k in active:
            try:
                x[k] -= solve_linear(jac[k], res[k])
            except (SingularMatrix, NonFiniteEvaluation) as exc:
                raise NewtonDiverged(
                    f"equilibrium Newton failed at target {k}: {exc}") from exc
    raise NewtonDiverged("equilibrium Newton did not converge in 50 iterations "
                         f"at target {active[0]}")


class _Transcription:
    """Vectorized residual of the collocation system on a fixed grid."""

    def __init__(self, model, ref, sel, grid):
        dims = model.dims
        self.model = model
        self.sel = sel
        self.grid = np.asarray(grid, dtype=float)
        self.n = dims.n
        self.l = dims.holonomic
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
        mass = np.asarray(self.model.mass_matrix(q), dtype=float)
        rhs = _applied_forces(self.model, q, v, lam, u)
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
        """Forward-difference Jacobian in banded storage, by column groups.

        A node's columns reach only the rows of its two adjacent intervals
        (plus the pins at a window end), so perturbing one entry at every
        other node at once keeps the groups' rows apart (Curtis, Powell &
        Reid 1974): ``2 * width`` residual evaluations give the whole
        band, 28 for the robot.  Each difference equals that of
        perturbing its column alone, bit for bit.  ``base`` is the
        residual at ``z``; the result suits ``solve_banded`` with
        ``bandwidths``.
        """
        lower, upper = self.bandwidths
        width = self.width
        steps = 1e-7 * np.maximum(1.0, np.abs(z))
        rows = np.arange(self.size)
        # Rows of interval i depend on nodes i and i + 1 only.  The start
        # pins count as interval -1 and the end pins as interval N, so
        # one of their two nodes lies off the grid.
        interval = (rows - len(self.sel.fixed_start)) // width
        ab = np.zeros((lower + upper + 1, self.size))
        for parity in (0, 1):
            # Of each row's two nodes, the one of this parity.
            node = interval + (interval - parity) % 2
            on_grid = (node >= 0) & (node < self.grid.size)
            for entry in range(width):
                group = slice(parity * width + entry, None, 2 * width)
                zp = z.copy()
                zp[group] += steps[group]
                diff = self.residual(zp) - base
                cols = node * width + entry
                hit = on_grid & (rows - cols <= lower) & (cols - rows <= upper)
                r, c = rows[hit], cols[hit]
                ab[upper + r - c, c] = diff[r] / steps[c]
        return ab


def _newton(trans, z):
    """Damped Newton with an Armijo line search, one banded LU per step."""
    lower, upper = trans.bandwidths
    res = trans.residual(z)
    norm = np.abs(res).max()
    merit = float(res @ res)
    iterations = 0
    while norm > RESIDUAL_TOL:
        if iterations >= MAX_NEWTON_ITERATIONS:
            raise NewtonDiverged(
                f"residual {norm:.3e} after {iterations} Newton iterations")
        ab = trans.banded_jacobian(z, res)
        try:
            step = solve_banded((lower, upper), ab, -res)
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged(
                f"singular Jacobian at residual {norm:.3e}") from exc
        scale = 1.0
        for _ in range(12):
            try:
                cand = trans.residual(z + scale * step)
                cand_merit = float(cand @ cand)
            except NonFiniteEvaluation:
                cand_merit = np.inf
            if cand_merit < (1.0 - 1e-4 * scale) * merit:
                break
            scale *= 0.5
        else:
            raise NewtonDiverged(f"no descent at residual {norm:.3e}")
        z = z + scale * step
        res = cand
        merit = cand_merit
        norm = np.abs(res).max()
        iterations += 1
    return z, norm, iterations


def _initial_guess(model, ref, sel, grid):
    """Quasi-static guess: the equilibrium path tracking the reference.

    One batched ``equilibrium`` call solves the holding equilibrium at
    every node time, each node starting from the pinned start
    configuration (zero where unpinned), and the resulting configuration
    path is differentiated for the velocity guess.  Closure and servo
    rows are then exact at the guess and only the dynamic defects remain.
    """
    dims = model.dims
    q_hint = np.zeros(dims.n)
    for i, t in sel.fixed_start:
        if i < dims.n:
            q_hint[i] = t

    y_path = np.asarray(ref(grid)[0], dtype=float)
    q, _, lam, u = equilibrium(model, y_path, q_hint)
    v = np.gradient(q, grid, axis=0)
    return np.concatenate([q, v, lam, u], axis=1).ravel()


def solve_bvp(model, ref, sel, options=None):
    """Solve the inversion boundary value problem on a uniform grid.

    Returns a ``CollocationSolution`` whose residual infinity norm is at
    most ``RESIDUAL_TOL``.  Raises ``BadGrid`` from ``BvpOptions.grid``
    and ``NewtonDiverged`` when damped Newton stalls.
    """
    grid = (options or BvpOptions()).grid(ref)
    trans = _Transcription(model, ref, sel, grid)
    z = _initial_guess(model, ref, sel, grid)
    z, norm, iterations = _newton(trans, z)

    q, v, lam, u = trans.split(z)
    return CollocationSolution(
        grid=grid, q=q.copy(), v=v.copy(), lam=lam.copy(), u=u.copy(),
        newton_iterations=iterations, final_residual=float(norm),
    )


def feedforward(sol):
    """Input interpolant of a converged solution.

    Linear between the nodes, as the transcription defines the input, and
    held at the end values beyond the window.  The signal is the full
    non-causal feedforward: whatever part of the window a run covers is
    applied as solved.

    At one finite time (a Python float or ``np.float64``) it returns a
    tuple of Python floats by ``np.interp``'s formula for a single point:
    the first node's value at or before the first node, the last node's
    from the last node on, the node value on a node, and ``slope * (t -
    t_j) + u_j`` inside interval ``j``, with ``slope = (u_{j+1} - u_j) /
    (t_{j+1} - t_j)``; so it has ``np.interp``'s bits.
    """
    grid = sol.grid.tolist()
    last = len(grid) - 1
    nodes = [tuple(u) for u in sol.u.tolist()]
    slopes = [tuple([(b - a) / (t1 - t0) for a, b in zip(u0, u1)])
              for u0, u1, t0, t1 in zip(nodes, nodes[1:], grid, grid[1:])]

    def u_ff(t):
        t = float(t)
        j = bisect.bisect_right(grid, t) - 1
        if j < 0:
            return nodes[0]
        if j == last or grid[j] == t:
            return nodes[j]
        dt = t - grid[j]
        return tuple([slope * dt + u for slope, u in zip(slopes[j], nodes[j])])

    return u_ff
