"""Kinematic model of the lab's four-wheel omni-directional robot.

The robot body carries four omni wheels whose hubs sit on a circle of
radius ``BODY_RADIUS``, mounted at fixed angular offsets around the body.
Wheel angular rates relate linearly to the velocity in the robot's own
frame, (vx_b, vy_b) = R(theta)^T (vx, vy), so the inverse map rotates the
global command by the heading, then applies the 4x3 wheel matrix.  That
matrix has orthogonal columns, and the forward map is its least-squares
solve: one product with a 3x4 left inverse, the transpose with each row
divided by its squared norm, then the rotation back.  The lab drives one
chassis, so both matrices are read-only constants built at import, with
no linear-algebra call.  The inverse map's product is written out row by
row in float arithmetic and the forward map's column by column, so the
rates do not depend on the BLAS kernel.

The chassis also sets the robot's limits, ``V_MAX`` and ``OMEGA_MAX``.
Every controller commands within them, so the controllers compare on
one machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# The chassis, in metres.
BODY_RADIUS = 0.2
WHEEL_RADIUS = 0.05
# Hub offsets of the four wheels around the body, measured from the chassis
# reference axis which itself sits 45 degrees from the heading.
WHEEL_ANGLES = (
    math.pi / 4.0,
    3.0 * math.pi / 4.0,
    5.0 * math.pi / 4.0,
    7.0 * math.pi / 4.0,
)
# The robot's limits, shared by every controller: the bound on the speed's
# magnitude, m/s, and on the yaw rate, rad/s.
V_MAX = 1.5
OMEGA_MAX = 3.14


def _wheel_matrices() -> tuple[np.ndarray, np.ndarray]:
    """The 4x3 wheel matrix and its 3x4 left inverse, both read-only.

    Row i of the wheel matrix is (1/r) * [-sin(a_i), cos(a_i), R] with a_i
    the mount angle of wheel i, r the wheel radius and R the body radius.
    The four angles are a quarter turn apart, so the columns of W are
    orthogonal and ``W^T W`` is diag(800, 800, 64), up to the rounding of
    the sines and cosines.  The left inverse ``(W^T W)^-1 W^T`` is then
    ``W^T`` with row j divided by the squared norm of column j:
    elementwise arithmetic, independent of the BLAS kernel.
    """
    angles = np.asarray(WHEEL_ANGLES, dtype=float)
    matrix = (
        np.column_stack([-np.sin(angles), np.cos(angles), np.full(4, BODY_RADIUS)])
        / WHEEL_RADIUS
    )
    inverse = matrix.T / (matrix * matrix).sum(axis=0)[:, None]
    matrix.flags.writeable = False
    inverse.flags.writeable = False
    return matrix, inverse


# Maps (vx, vy, omega) to wheel rates, and back by least squares.
WHEEL_MATRIX, WHEEL_LEFT_INVERSE = _wheel_matrices()
# The wheel matrix's rows as Python floats, for inverse_kinematics.
_WHEEL_ROWS = tuple(map(tuple, WHEEL_MATRIX.tolist()))


def wrap_angle(angle):
    """Wrap an angle (scalar or array) into the interval (-pi, pi]."""
    if isinstance(angle, (int, float)):
        # Python's float % rounds exactly as np.mod does, at a tenth of the cost.
        wrapped = float(angle) % TWO_PI
        return wrapped - TWO_PI if wrapped > math.pi else wrapped
    arr = np.asarray(angle, dtype=float)
    wrapped = np.mod(arr, TWO_PI)
    wrapped = np.where(wrapped > math.pi, wrapped - TWO_PI, wrapped)
    if arr.ndim == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class RobotPose:
    """Global planar pose (x, y, theta); theta normalized to (-pi, pi]."""

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.theta)):
            raise ValueError("pose components must be finite")
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta], dtype=float)


@dataclass(frozen=True)
class BodyVelocity:
    """Global-frame translational velocity plus yaw rate."""

    vx: float
    vy: float
    omega: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.vx, self.vy, self.omega)):
            raise ValueError("velocity components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.vx, self.vy, self.omega], dtype=float)


def inverse_kinematics(velocity: BodyVelocity, heading: float) -> np.ndarray:
    """The four wheel rates, rad/s, realizing a global-frame command.

    The command's translation is rotated into the body frame of a robot
    at ``heading`` rad; the yaw rate is the same in both frames.
    """
    c, s = math.cos(heading), math.sin(heading)
    vx_b = c * velocity.vx + s * velocity.vy
    vy_b = c * velocity.vy - s * velocity.vx
    omega = velocity.omega
    return np.array([a * vx_b + b * vy_b + r * omega for a, b, r in _WHEEL_ROWS])


def forward_kinematics(wheels: np.ndarray, heading: float) -> BodyVelocity:
    """Least-squares global-frame velocity reproducing four wheel rates.

    One product with the left inverse of :data:`WHEEL_MATRIX` gives the
    body-frame velocity, which is rotated by ``heading``.  The matrix
    has full column rank, so the least-squares solution is unique; for
    consistent wheel rates it inverts :func:`inverse_kinematics` to
    rounding.  A rate vector that is not four long, or a non-finite rate,
    raises ``ValueError``.
    """
    wheels = np.asarray(wheels, dtype=float)
    if wheels.shape != (4,):
        raise ValueError("forward kinematics needs four wheel rates")
    w = WHEEL_LEFT_INVERSE
    vx_b, vy_b, omega = (
        w[:, 0] * wheels[0] + w[:, 1] * wheels[1] + w[:, 2] * wheels[2] + w[:, 3] * wheels[3]
    ).tolist()
    c, s = math.cos(heading), math.sin(heading)
    return BodyVelocity(c * vx_b - s * vy_b, s * vx_b + c * vy_b, omega)


def integrate_pose(pose: RobotPose, velocity: BodyVelocity, dt: float) -> RobotPose:
    """One forward-Euler step of length dt; RobotPose wraps the new heading."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    return RobotPose(
        pose.x + velocity.vx * dt,
        pose.y + velocity.vy * dt,
        pose.theta + velocity.omega * dt,
    )
