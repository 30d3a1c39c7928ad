"""Tracking control for underactuated multibody DAE systems.

Combines feedforward inversion through a servo-constraint boundary value
problem with funnel-based output feedback, specialised to a planar robot
with a kinematic loop and a non-minimum-phase end-effector output.
"""

__version__ = "0.1.0"

from .errors import ServoFunnelError  # noqa: F401
from .model import MbsDims, MbsModel, OperatingSet, get_model, is_colocated, validate_model  # noqa: F401
from .robot import RobotParams, robot_model, robot_operating_set  # noqa: F401
from .internal import (  # noqa: F401
    HighGainAssembly,
    LinearizedInternalDynamics,
    high_gain,
    linearize,
    phi2_rows,
    psi,
)
from .funnel import (  # noqa: F401
    ControllerState,
    FunnelDesign,
    FunnelFunction,
    ReferenceSignal,
    control,
    reference_internal,
    timing_law,
)
from .bvp import (  # noqa: F401
    BoundarySelection,
    BvpOptions,
    CollocationSolution,
    equilibrium,
    feedforward,
    robot_boundary_preset,
    solve_bvp,
)
from .simulate import (  # noqa: F401
    Metrics,
    Scenario,
    TimeSeries,
    compare,
    index1_accelerations,
    integrate_closed_loop,
    parse_scenario,
)
from .cli import main, run_cli  # noqa: F401
