"""Funnel functions, the reference trajectory and the tracking feedback law.

The feedback shapes two error chains inside prescribed performance
funnels: one driven by the measured realization of the unstable internal
coordinate, one by the output error.  Their top-level errors are bundled
and fed back through a gain that grows as the bundle approaches its
funnel boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import robot as robot_mod
from .errors import FunnelViolation
from .internal import psi

#: Spacing of the table behind the bounded internal reference, in seconds.
REFERENCE_GRID_STEP = 1e-3


@dataclass(frozen=True)
class FunnelFunction:
    """Performance funnel ``phi(t) = 1 / (p exp(-qrate t) + r)``.

    ``1 / phi`` is the error bound: it starts at ``p + r`` and tightens
    exponentially to ``r``.  With ``p >= 0``, ``qrate > 0`` and ``r > 0``
    the function and all its derivatives stay bounded and ``phi`` stays
    positive.
    """

    p: float
    qrate: float
    r: float

    def __post_init__(self):
        if self.p < 0.0:
            raise ValueError("funnel scale p must be non-negative")
        if self.qrate <= 0.0 or self.r <= 0.0:
            raise ValueError("funnel rate and offset must be positive")

    def boundary(self, t):
        """Error bound ``1 / phi(t) = p exp(-qrate t) + r``."""
        t = np.asarray(t, dtype=float)
        return self.p * np.exp(-self.qrate * t) + self.r

    def derivatives(self, t, order=2):
        """``phi`` and its first ``order`` time derivatives (``order <= 2``)."""
        if not 0 <= order <= 2:
            raise ValueError("order must be between 0 and 2")
        t = np.asarray(t, dtype=float)
        w = self.p * np.exp(-self.qrate * t)
        den = w + self.r
        out = [1.0 / den]
        q, r = self.qrate, self.r
        if order >= 1:
            out.append(q * w / den ** 2)
        if order >= 2:
            out.append(q ** 2 * w * (w - r) / den ** 3)
        return tuple(out)


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
        if min(self.kappa0, self.kappa1, self.kappa2) <= 0.0:
            raise ValueError("funnel gains must be positive")

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
    clamped to its endpoint values outside the window.  Batched over ``t``.
    """
    t = np.asarray(t, dtype=float)
    tau = np.clip(t / tf, 0.0, 1.0)
    r = tau ** 5 * (70.0 * tau ** 4 - 315.0 * tau ** 3 + 540.0 * tau ** 2
                    - 420.0 * tau + 126.0)
    rdot = 630.0 * tau ** 4 * (1.0 - tau) ** 4 / tf
    rddot = 2520.0 * tau ** 3 * (1.0 - tau) ** 3 * (1.0 - 2.0 * tau) / tf ** 2
    return r, rdot, rddot


@dataclass(frozen=True)
class ReferenceSignal:
    """Output reference obtained from a straight tool-tip path.

    The tool tip glides from ``r_start`` to ``r_end`` between ``t_start``
    and ``t_end`` under the smooth timing law and rests outside that
    window.  Calling the signal returns ``(y_ref, ydot_ref, yddot_ref)``.
    """

    params: robot_mod.RobotParams
    r_start: tuple = (1.6, -0.6)
    r_end: tuple = (0.9, -0.9)
    t_start: float = 0.0
    t_end: float = 1.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        start = np.asarray(self.r_start, dtype=float)
        end = np.asarray(self.r_end, dtype=float)
        span = self.t_end - self.t_start
        s, sdot, sddot = timing_law(t - self.t_start, span)
        delta_r = end - start
        r_app = start + s[..., None] * delta_r
        rd = sdot[..., None] * delta_r
        rdd = sddot[..., None] * delta_r

        radius = self.params.arm_radius
        y = robot_mod.output_from_end_effector(self.params, r_app)
        y2 = y[..., 1]
        cos2, sin2 = np.cos(y2), np.sin(y2)
        yd2 = -rd[..., 1] / (radius * cos2)
        ydd2 = (-rdd[..., 1] / radius + sin2 * yd2 ** 2) / cos2
        yd1 = rd[..., 0] + radius * sin2 * yd2
        ydd1 = rdd[..., 0] + radius * (cos2 * yd2 ** 2 + sin2 * ydd2)
        ydot = np.stack([yd1, yd2], axis=-1)
        yddot = np.stack([ydd1, ydd2], axis=-1)
        return y, ydot, yddot


def _reference_output(ref, t):
    return np.asarray(ref(t)[0], dtype=float)


@dataclass(frozen=True)
class ControllerState:
    """Dynamic feedback state: the unstable reference coordinate."""

    eta2_ref: float
    eta2_ref0: float

    def __post_init__(self):
        if not (np.isfinite(self.eta2_ref) and np.isfinite(self.eta2_ref0)):
            raise ValueError("controller state must be finite")


def reference_internal(lin, ref):
    """Bounded solution of the unstable reference dynamics, as a callable.

    The reference coordinate obeys ``d/dt eta = qtilde eta + ptilde
    y_ref`` with ``qtilde > 0``; only one initial value keeps it bounded,
    and forward stepping amplifies any error in it by ``exp(qtilde t)``,
    which exhausts double precision within a fraction of a second.  This
    builds the bounded solution in the stable direction instead: backward
    from the settling value ``-ptilde y_ref(t_end) / qtilde`` with
    exponentially weighted Simpson cells, tabulated on a
    ``REFERENCE_GRID_STEP`` grid and interpolated by a cubic spline.
    Constant closed forms cover times outside ``[t_start, t_end]``.
    """
    mu = lin.qtilde
    t_end = float(getattr(ref, "t_end", 0.0))
    tail_value = -float(lin.ptilde @ _reference_output(ref, t_end)) / mu
    head_y = float(lin.ptilde @ _reference_output(ref, min(0.0, t_end)))

    if t_end > 0.0:
        n = int(np.ceil(t_end / REFERENCE_GRID_STEP))
        ts = np.linspace(0.0, t_end, n + 1)
        h = ts[1] - ts[0]
        f = _reference_output(ref, ts) @ lin.ptilde
        f_mid = _reference_output(ref, ts[:-1] + 0.5 * h) @ lin.ptilde
        decay = np.exp(-mu * h)
        decay_half = np.exp(-0.5 * mu * h)
        vals = np.empty(n + 1)
        vals[-1] = tail_value
        for k in range(n - 1, -1, -1):
            cell = h / 6.0 * (f[k] + 4.0 * decay_half * f_mid[k] + decay * f[k + 1])
            vals[k] = decay * vals[k + 1] - cell
        spline = CubicSpline(ts, vals)
        start_value = vals[0]
    else:
        spline = None
        start_value = tail_value

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        inside = tail_value if spline is None \
            else spline(np.clip(t, 0.0, t_end))
        grow = np.exp(mu * np.minimum(t, 0.0))
        before = grow * start_value - head_y * (1.0 - grow) / mu
        return np.where(t < 0.0, before, np.where(t >= t_end, tail_value, inside))

    return evaluate


@dataclass
class ControlDiagnostics:
    """Error chain, gains and funnel margins of one feedback evaluation.

    Margins are the gain denominators ``1 - phi^2 e^2`` (and the bundled
    ``1 - phi^2 ||ebar||^2``); ``control`` returns diagnostics only when
    all four lie in ``(0, 1]``.
    """

    e10: float
    e11: float
    e12: float
    e20: float
    e21: float
    k10: float
    k11: float
    k20: float
    kbar: float
    ebar_norm: float
    margin_e10: float
    margin_e11: float
    margin_e20: float
    margin_ebar: float
    u_fb: np.ndarray

    @property
    def min_margin(self):
        return min(self.margin_e10, self.margin_e11,
                   self.margin_e20, self.margin_ebar)


def _gain(kappa, margin, label, t):
    """``kappa / margin``; a margin that is not positive (NaN included)
    means ``label`` left its funnel and raises ``FunnelViolation``."""
    if not margin > 0.0:
        raise FunnelViolation(f"{label} reached its funnel boundary", time=t)
    return kappa / margin


def control(t, q, v, state, lin, design, ref, strict=True):
    """Funnel feedback ``u_fb`` for the robot state at time ``t``.

    Builds the internal-coordinate error chain (depth two, with surrogate
    derivatives from the linearized internal dynamics) and the output
    error chain (depth one), bundles their top errors, and returns
    ``-rho * kbar * ebar`` together with diagnostics.  Each margin is
    checked before a gain divides by it, in the order e10, e11, e20,
    ebar; the first one that is not positive raises ``FunnelViolation``
    with the time ``t``.  ``strict`` is accepted and ignored: every
    evaluation is strict.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    params = ref.params
    y = robot_mod.output(params, q)
    ydot = robot_mod.output_jacobian(params, q) @ v
    y_ref, ydot_ref, _ = ref(t)

    psi_val = float(psi(q, v, lin, params))
    dpsi = psi_val - state.eta2_ref
    dy = y - y_ref
    dyd = ydot - ydot_ref

    e10 = lin.k1 * dpsi
    e10_d1 = lin.k1 * (lin.qtilde * dpsi + float(lin.ptilde @ dy))
    e10_d2 = lin.k1 * (lin.qtilde ** 2 * dpsi
                       + lin.qtilde * float(lin.ptilde @ dy)
                       + float(lin.ptilde @ dyd))

    phi0, phi0_dot, _ = design.phi0.derivatives(float(t), order=2)
    phi1 = design.phi1.derivatives(float(t), order=0)[0]
    phi2 = design.phi2.derivatives(float(t), order=0)[0]

    margin_e10 = 1.0 - phi0 ** 2 * e10 ** 2
    k10 = _gain(design.kappa0, margin_e10, "e10", t)
    k10_d1 = (2.0 * k10
              * (phi0 * phi0_dot * e10 ** 2 + phi0 ** 2 * e10 * e10_d1))
    e11 = e10_d1 + k10 * e10
    e11_d1 = e10_d2 + k10 * e10_d1 + k10_d1 * e10
    margin_e11 = 1.0 - phi1 ** 2 * e11 ** 2
    k11 = _gain(design.kappa1, margin_e11, "e11", t)
    e12 = e11_d1 + k11 * e11

    e20 = float(lin.k2 @ dy)
    margin_e20 = 1.0 - phi0 ** 2 * e20 ** 2
    k20 = _gain(design.kappa0, margin_e20, "e20", t)
    e21 = float(lin.k2 @ dyd) + k20 * e20

    ebar = np.array([e12, e21])
    ebar_norm = float(np.linalg.norm(ebar))
    margin_ebar = 1.0 - phi2 ** 2 * ebar_norm ** 2
    kbar = _gain(design.kappa2, margin_ebar, "ebar", t)
    u_fb = -lin.rho * kbar * ebar

    diag = ControlDiagnostics(
        e10=e10, e11=e11, e12=e12, e20=e20, e21=e21,
        k10=k10, k11=k11, k20=k20, kbar=kbar,
        ebar_norm=ebar_norm,
        margin_e10=margin_e10, margin_e11=margin_e11,
        margin_e20=margin_e20, margin_ebar=margin_ebar,
        u_fb=u_fb,
    )
    return u_fb, diag
