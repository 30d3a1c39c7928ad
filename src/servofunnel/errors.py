"""Exception types raised by the numerical routines in this package."""


class ServoFunnelError(Exception):
    """Base class for all library-specific failures; ``time`` is the
    simulation time of the failure, when known, and ends the message."""

    def __init__(self, message="", time=None):
        super().__init__(message)
        self.time = time

    def __str__(self):
        text = super().__str__()
        return text if self.time is None else f"{text} at t = {self.time:.6f}"


class SingularMatrix(ServoFunnelError):
    """LU factorisation hit a pivot too small relative to the largest pivot."""


class RankDeficientRows(ServoFunnelError):
    """A matrix expected to have full row rank is numerically rank deficient."""


class ComplexOrRepeatedSpectrum(ServoFunnelError):
    """An eigendecomposition expected to be real and simple is not."""


class NonFiniteEvaluation(ServoFunnelError):
    """NaN or infinity reached a derivative or a linear solve."""


class InfeasibleGeometry(ServoFunnelError):
    """The link lengths cannot close the kinematic loop."""


class OutOfReach(ServoFunnelError):
    """An end-effector target lies outside the reachable workspace."""


class GramSingular(ServoFunnelError):
    """The constraint Gram matrix is singular (constraint rows dependent)."""


class GammaSingular(ServoFunnelError):
    """The high-gain matrix is singular at the requested configuration."""


class DenominatorSingular(ServoFunnelError):
    """A closed-form internal-dynamics denominator vanished."""


class NewtonDiverged(ServoFunnelError):
    """A Newton iteration failed to reach the requested tolerance."""


class BadGrid(ServoFunnelError):
    """A collocation grid is too coarse or not strictly increasing."""


class SaddleSingular(ServoFunnelError):
    """The index-1 saddle-point system could not be solved."""


class FunnelViolation(ServoFunnelError):
    """A tracking error reached its funnel boundary; the closed loop failed."""


class StepSizeUnderflow(ServoFunnelError):
    """The adaptive integrator step size fell below the hard minimum."""


class ConfigError(ServoFunnelError):
    """A scenario file could not be read or parsed, or holds an unusable
    value: non-finite or out of range, an inversion grid that cannot be
    built, or an empty ``out_dir``."""
