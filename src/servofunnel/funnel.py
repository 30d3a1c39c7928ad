"""Funnel functions, the reference trajectory and the tracking feedback law.

The feedback shapes two error chains inside prescribed performance
funnels: one driven by the measured realization of the unstable internal
coordinate, one by the output error.  Their top-level errors are bundled
and fed back through a gain that grows as the bundle approaches its
funnel boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import robot as robot_mod
from .errors import FunnelViolation, OutOfReach
from .internal import psi

#: Spacing of the table behind the bounded internal reference, in seconds.
REFERENCE_GRID_STEP = 1e-3


def _times(t):
    """One time as a Python float, or an array of times.

    The funnel levels, the timing law and ``ReferenceSignal`` pick their
    path by this: a float (``np.float64`` included) takes straight-line
    float arithmetic, as the closed loop evaluates one stage at a time,
    and anything else is converted to an array, as set-up and the log
    evaluate many times at once.  The two paths do the same operations in
    the same order, so a float's result has the bits of its entry in a
    batch.
    """
    return float(t) if isinstance(t, float) else np.asarray(t, dtype=float)


def _exp(x):
    """``np.exp``, as a Python float for one float.

    numpy's loop gives one float the bits it gives that float in an array;
    ``math.exp`` differs from it on a few per cent of arguments.
    """
    return float(np.exp(x)) if isinstance(x, float) else np.exp(x)


@dataclass(frozen=True)
class FunnelFunction:
    """Performance funnel ``phi(t) = 1 / (p exp(-qrate t) + r)``.

    ``1 / phi`` is the error bound: it starts at ``p + r`` and tightens
    exponentially to ``r``.  With ``p >= 0``, ``qrate > 0`` and ``r > 0``,
    all finite, the function and its derivatives stay bounded and ``phi``
    stays positive.
    """

    p: float
    qrate: float
    r: float

    def __post_init__(self):
        if not (0.0 <= self.p < np.inf and 0.0 < self.qrate < np.inf
                and 0.0 < self.r < np.inf):
            raise ValueError("funnel needs finite p >= 0, qrate > 0 and r > 0, "
                             f"got {self.p}, {self.qrate}, {self.r}")

    def boundary(self, t):
        """Error bound ``1 / phi(t) = p exp(-qrate t) + r``.

        A Python float at one time, an array over an array of times
        (``_times``); both have the same bits.
        """
        return self.p * _exp(-self.qrate * _times(t)) + self.r

    def derivatives(self, t):
        """``(phi, phi_dot)`` at ``t``, as ``boundary`` gives them."""
        w = self.p * _exp(-self.qrate * _times(t))
        den = w + self.r
        return 1.0 / den, self.qrate * w / (den * den)


@dataclass(frozen=True)
class FunnelDesign:
    """Funnel functions and gains for the two error chains.

    ``phi0``/``kappa0`` act on the base errors of both chains, ``phi1``/
    ``kappa1`` on the once-lifted internal-chain error, and ``phi2``/
    ``kappa2`` on the bundled top-level error.
    """

    phi0: FunnelFunction
    phi1: FunnelFunction
    phi2: FunnelFunction
    kappa0: float
    kappa1: float
    kappa2: float

    def __post_init__(self):
        if not all(0.0 < k < np.inf for k in (self.kappa0, self.kappa1, self.kappa2)):
            raise ValueError("funnel gains must be finite and positive")

    @classmethod
    def table_defaults(cls):
        """Design values used throughout the tracking study."""
        return cls(
            phi0=FunnelFunction(p=0.5, qrate=2.0, r=0.001),
            phi1=FunnelFunction(p=1.0, qrate=2.0, r=0.001),
            phi2=FunnelFunction(p=1.0, qrate=2.0, r=0.001),
            kappa0=1.0, kappa1=1.0, kappa2=50.0,
        )


def timing_law(t, tf):
    """Smooth 0-to-1 transition over ``[0, tf]`` with three flat derivatives.

    Returns ``(r, rdot, rddot)`` of the degree-nine polynomial timing law,
    clamped to its endpoint values outside the window.  Python floats at
    one time, arrays over an array of times (``_times``).
    """
    t = _times(t)
    if isinstance(t, float):
        tau = min(max(t / tf, 0.0), 1.0)
    else:
        tau = np.minimum(np.maximum(t / tf, 0.0), 1.0)
    tau2 = tau * tau
    tau3 = tau2 * tau
    tau4 = tau2 * tau2
    rest = 1.0 - tau
    rest3 = rest * rest * rest
    r = tau4 * tau * (70.0 * tau4 - 315.0 * tau3 + 540.0 * tau2
                      - 420.0 * tau + 126.0)
    rdot = 630.0 * tau4 * (rest3 * rest) / tf
    rddot = 2520.0 * tau3 * rest3 * (1.0 - 2.0 * tau) / tf ** 2
    return r, rdot, rddot


@dataclass(frozen=True)
class ReferenceSignal:
    """Output reference obtained from a straight tool-tip path.

    The tool tip glides from ``r_start`` to ``r_end`` between ``t_start``
    and ``t_end`` under the smooth timing law and rests outside that
    window.  ``r_start`` and ``t_start`` are class constants: the plant
    starts at rest in ``robot.initial_state`` at time 0, whose tool tip
    is ``r_start`` to one ulp on both parameter presets, and the
    inversion's start pins hold that pose too.  Calling the signal
    returns ``(y_ref, ydot_ref)``: two pairs of Python floats at one
    time, two arrays over an array of times (``_times``), with the same
    bits.  A tool-tip target at or beyond the arm radius raises
    ``OutOfReach`` on either path.
    """

    r_start = (1.6, -0.6)
    t_start = 0.0

    params: robot_mod.RobotParams
    r_end: tuple = (0.9, -0.9)
    t_end: float = 1.0

    def __post_init__(self):
        if not self.t_end > 0.0:
            raise ValueError(f"need t_end > 0, got {self.t_end}")

    @cached_property
    def _path(self):
        """``(start1, start2, delta1, delta2)``: the path start and its
        displacement as Python floats, formed once per instance."""
        start1, start2 = self.r_start
        end1, end2 = map(float, self.r_end)
        return start1, start2, end1 - start1, end2 - start2

    def __call__(self, t):
        t = _times(t)
        start1, start2, delta1, delta2 = self._path
        s, sdot, _ = timing_law(t, self.t_end)
        r1, r2 = start1 + s * delta1, start2 + s * delta2
        rd1, rd2 = sdot * delta1, sdot * delta2

        radius = self.params.arm_radius
        one = isinstance(t, float)
        if one:
            # robot.output_from_end_effector on one point.
            if abs(r2) >= radius:
                raise OutOfReach(f"|r2| must stay below {radius:.6g}")
            y2 = float(np.arcsin(-r2 / radius))
            cos_y2, sin_y2 = math.cos(y2), math.sin(y2)
            y = (r1 - self.params.d - radius * cos_y2, y2)
        else:
            y = robot_mod.output_from_end_effector(
                self.params, robot_mod._stack_last(t.shape, r1, r2))
            _, y2 = robot_mod._components(y)
            cos_y2, sin_y2 = np.cos(y2), np.sin(y2)
        yd2 = -rd2 / (radius * cos_y2)
        yd1 = rd1 + radius * sin_y2 * yd2
        return y, ((yd1, yd2) if one else robot_mod._stack_last(t.shape, yd1, yd2))


@dataclass(frozen=True)
class ControllerState:
    """Dynamic feedback state: the unstable reference coordinate."""

    eta2_ref: float
    eta2_ref0: float

    def __post_init__(self):
        if not (math.isfinite(self.eta2_ref) and math.isfinite(self.eta2_ref0)):
            raise ValueError("controller state must be finite")


def reference_internal(lin, ref):
    """Bounded solution of the unstable reference dynamics, as a callable.

    The reference coordinate obeys ``d/dt eta = mu_unstable eta + ptilde
    y_ref`` with ``mu_unstable > 0``; only one initial value keeps it
    bounded, and forward stepping amplifies any error in it by
    ``exp(mu_unstable t)``, which exhausts double precision within a
    fraction of a second.  This builds the bounded solution in the
    stable direction instead: backward from the settling value ``-ptilde
    y_ref(t_end) / mu_unstable`` with exponentially weighted Simpson
    cells, tabulated on a ``REFERENCE_GRID_STEP`` grid over ``[0,
    t_end]`` and joined by cubic Hermite pieces whose node slopes the ODE
    gives from the table.  Closed forms cover the times outside, at rest.
    The callable takes one time (a Python float or ``np.float64``) and
    returns a Python float, read from the table's lists.
    """
    mu = lin.mu_unstable
    t_end = float(ref.t_end)
    n = int(np.ceil(t_end / REFERENCE_GRID_STEP))
    ts = np.linspace(0.0, t_end, n + 1)
    h = ts[1] - ts[0]
    f = ref(ts)[0] @ lin.ptilde
    f_mid = ref(ts[:-1] + 0.5 * h)[0] @ lin.ptilde
    decay = np.exp(-mu * h)
    decay_half = np.exp(-0.5 * mu * h)
    vals = np.empty(n + 1)
    vals[-1] = -f[-1] / mu
    for k in range(n - 1, -1, -1):
        cell = h / 6.0 * (f[k] + 4.0 * decay_half * f_mid[k] + decay * f[k + 1])
        vals[k] = decay * vals[k + 1] - cell
    slopes = (h * (mu * vals + f)).tolist()
    h = float(h)
    vals, f0 = vals.tolist(), float(f[0])

    def evaluate(t):
        t = float(t)
        if t < 0.0:
            grow = _exp(mu * t)
            return grow * vals[0] - f0 * (1.0 - grow) / mu
        x = min(t, t_end) / h
        k = min(int(x), n - 1)
        s = x - k
        r = 1.0 - s
        return (r * r * ((1.0 + 2.0 * s) * vals[k] + s * slopes[k])
                + s * s * ((3.0 - 2.0 * s) * vals[k + 1] - r * slopes[k + 1]))

    return evaluate


@dataclass
class ControlDiagnostics:
    """Errors and funnel margins of one feedback evaluation.

    Holds the internal-chain errors ``e10``, ``e11``, ``e12``, the
    output-chain errors ``e20``, ``e21``, the norm of the bundle ``ebar =
    (e12, e21)`` and four margins.  Margins are the gain denominators ``1
    - phi^2 e^2`` of each chain (and the bundled ``1 - phi^2
    ||ebar||^2``); each gain is ``kappa / margin`` with its chain's
    ``kappa``, and ``control`` returns diagnostics only when all four lie
    in ``(0, 1]``.  They are not the report's
    ``Metrics.min_funnel_margin``, which is ``1 - ||ebar|| / boundary``:
    near the boundary that one is about half of ``margin_ebar`` (0.035
    against 0.069 at the same point).
    """

    e10: float
    e11: float
    e12: float
    e20: float
    e21: float
    ebar_norm: float
    margin_e10: float
    margin_e11: float
    margin_e20: float
    margin_ebar: float


def _gain(kappa, margin, label, t):
    """``kappa / margin``; a margin that is not positive (NaN included)
    means ``label`` left its funnel and raises ``FunnelViolation``."""
    if not margin > 0.0:
        raise FunnelViolation(f"{label} reached its funnel boundary", time=t)
    return kappa / margin


def control_signals(t, design, ref):
    """The inputs of ``control`` that depend on time alone.

    Returns ``(y_ref, ydot_ref, phi0, phi0_dot, bound1, bound2)``: the
    output reference and its rate, ``phi0`` and its rate, and the error
    bounds ``1 / phi1`` and ``1 / phi2``.  At one time, a Python float,
    all six are Python floats (the two references as pairs), so
    ``control`` computes its chain on floats; over an array of times they
    are arrays with the same bits entry by entry.
    """
    y_ref, ydot_ref = ref(t)
    phi0, phi0_dot = design.phi0.derivatives(t)
    return (y_ref, ydot_ref, phi0, phi0_dot,
            design.phi1.boundary(t), design.phi2.boundary(t))


def control(t, q, v, state, lin, design, ref, strict=True):
    """Funnel feedback ``u_fb`` for the robot state at time ``t``.

    Builds the internal-coordinate error chain (depth two, with surrogate
    derivatives from the linearized internal dynamics) and the output
    error chain (depth one), bundles their top errors ``ebar = (e12,
    e21)``, and returns ``-(kappa2 / margin_ebar) * ebar`` together with
    diagnostics.  The internal chain's surrogate rates use
    ``mu_unstable``, the rate of the unstable coordinate.  Each margin is
    checked before a gain divides by it, in the order e10, e11, e20,
    ebar; the first one that is not positive raises ``FunnelViolation``
    with the time ``t``.  The time-only inputs are ``control_signals``
    at ``float(t)``, evaluated here through ``ref`` and the funnel
    levels.  ``strict`` is accepted and ignored: every evaluation is
    strict.

    The whole chain runs on Python floats: the output ``y`` and its rate
    ``H v``, both from ``robot.output``'s entries, ``psi``, and the
    products with ``ptilde`` and ``k2`` as two-term sums from
    ``lin.float_entries``; squares are products, so an error too large to
    square gives an infinite square and a negative margin rather than
    ``OverflowError``.  ``q`` and ``v`` are sequences of floats, numpy
    arrays included; each entry is converted with ``float``, so no numpy
    scalar enters the chain.  ``u_fb`` is a pair of Python floats.
    """
    params = ref.params
    q = list(map(float, q))
    v = list(map(float, v))
    _, s2, _, beta, gamma = q
    y1, y2 = robot_mod._output_entries(params, s2, beta, gamma)
    yd1, yd2 = robot_mod._output_entries(params, v[1], v[3], v[4])
    (yr1, yr2), (ydr1, ydr2), phi0, phi0_dot, bound1, bound2 = control_signals(
        float(t), design, ref)
    (pt1, pt2), (k21, k22), _, _ = lin.float_entries

    dpsi = psi(q, v, lin, params, (y1, y2)) - state.eta2_ref
    dy1, dy2 = y1 - yr1, y2 - yr2
    dyd1, dyd2 = yd1 - ydr1, yd2 - ydr2

    mu = lin.mu_unstable
    ptilde_dy = pt1 * dy1 + pt2 * dy2
    e10 = lin.k1 * dpsi
    e10_d1 = lin.k1 * (mu * dpsi + ptilde_dy)
    e10_d2 = lin.k1 * (mu * mu * dpsi
                       + mu * ptilde_dy
                       + (pt1 * dyd1 + pt2 * dyd2))

    phi1 = 1.0 / bound1
    phi2 = 1.0 / bound2
    phi0_sq = phi0 * phi0
    e10_sq = e10 * e10

    margin_e10 = 1.0 - phi0_sq * e10_sq
    k10 = _gain(design.kappa0, margin_e10, "e10", t)
    k10_d1 = 2.0 * k10 * (phi0 * phi0_dot * e10_sq + phi0_sq * e10 * e10_d1)
    e11 = e10_d1 + k10 * e10
    e11_d1 = e10_d2 + k10 * e10_d1 + k10_d1 * e10
    margin_e11 = 1.0 - (phi1 * phi1) * (e11 * e11)
    k11 = _gain(design.kappa1, margin_e11, "e11", t)
    e12 = e11_d1 + k11 * e11

    e20 = k21 * dy1 + k22 * dy2
    margin_e20 = 1.0 - phi0_sq * (e20 * e20)
    k20 = _gain(design.kappa0, margin_e20, "e20", t)
    e21 = (k21 * dyd1 + k22 * dyd2) + k20 * e20

    ebar_norm = math.sqrt(e12 * e12 + e21 * e21)
    margin_ebar = 1.0 - (phi2 * phi2) * (ebar_norm * ebar_norm)
    kbar = _gain(design.kappa2, margin_ebar, "ebar", t)
    gain = -kbar
    u_fb = (gain * e12, gain * e21)

    return u_fb, ControlDiagnostics(
        e10=e10, e11=e11, e12=e12, e20=e20, e21=e21, ebar_norm=ebar_norm,
        margin_e10=margin_e10, margin_e11=margin_e11,
        margin_e20=margin_e20, margin_ebar=margin_ebar,
    )
