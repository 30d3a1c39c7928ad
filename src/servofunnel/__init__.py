"""Tracking control for underactuated multibody DAE systems.

Combines feedforward inversion through a servo-constraint boundary value
problem with funnel-based output feedback, specialised to a planar robot
with a kinematic loop and a non-minimum-phase end-effector output.
"""

__version__ = "0.1.0"
