"""Kinematic model of the lab's four-wheel omni-directional robot.

The robot body carries four omni wheels whose hubs sit on a circle of
radius ``BODY_RADIUS``, mounted at fixed angular offsets around the body.
Wheel angular rates relate linearly to the global body velocity, so the
inverse map is a single matrix product.  The 4x3 wheel matrix has
orthogonal columns, and the forward map is its least-squares solve: one
product with a 3x4 left inverse, the transpose with each row divided by
its squared norm.  The lab drives one chassis, so both matrices are
read-only constants built at import, with no linear-algebra call.
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


def inverse_kinematics(velocity: BodyVelocity) -> np.ndarray:
    """The four wheel rates, rad/s, realizing a commanded body velocity."""
    return WHEEL_MATRIX @ velocity.as_array()


def forward_kinematics(wheels: np.ndarray) -> BodyVelocity:
    """Least-squares body velocity reproducing four measured wheel rates.

    One product with the left inverse of :data:`WHEEL_MATRIX`.  The matrix
    has full column rank, so the least-squares solution is unique; for
    consistent wheel rates it inverts :func:`inverse_kinematics` to
    rounding.  A rate vector that is not four long, or a non-finite rate,
    raises ``ValueError``.
    """
    return BodyVelocity(*(WHEEL_LEFT_INVERSE @ wheels).tolist())


def integrate_pose(pose: RobotPose, velocity: BodyVelocity, dt: float) -> RobotPose:
    """Advance a pose by one forward-Euler step of length dt."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    return RobotPose(
        pose.x + velocity.vx * dt,
        pose.y + velocity.vy * dt,
        wrap_angle(pose.theta + velocity.omega * dt),
    )
