"""Kinematic model of a four-wheel omni-directional robot.

The robot body carries four omni wheels whose hubs sit on a circle of
radius ``body_radius``, mounted at fixed angular offsets around the body.
Wheel angular rates relate linearly to the global body velocity, so the
inverse map is a single matrix product and the forward map is a
least-squares solve of the same (full column rank) matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

# Hub offsets of the four wheels around the body, measured from the chassis
# reference axis which itself sits 45 degrees from the heading.
DEFAULT_WHEEL_ANGLES = (
    math.pi / 4.0,
    3.0 * math.pi / 4.0,
    5.0 * math.pi / 4.0,
    7.0 * math.pi / 4.0,
)


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
class OmniGeometry:
    """Chassis geometry: body radius, wheel radius, wheel mount angles."""

    body_radius: float = 0.2
    wheel_radius: float = 0.05
    wheel_angles: tuple[float, float, float, float] = DEFAULT_WHEEL_ANGLES

    def __post_init__(self):
        if not self.body_radius > 0.0:
            raise ValueError("body_radius must be positive")
        if not self.wheel_radius > 0.0:
            raise ValueError("wheel_radius must be positive")
        angles = tuple(float(a) for a in self.wheel_angles)
        if len(angles) != 4:
            raise ValueError("exactly four wheel angles required")
        for a in angles:
            if not 0.0 <= a < TWO_PI:
                raise ValueError("wheel angles must lie in [0, 2*pi)")
        if any(b <= a for a, b in zip(angles, angles[1:])):
            raise ValueError("wheel angles must be strictly increasing")
        object.__setattr__(self, "wheel_angles", angles)


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


@dataclass(frozen=True)
class WheelSpeeds:
    """Angular rates of the four wheels, rad/s."""

    phi_dot: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.phi_dot, dtype=float).reshape(-1)
        if arr.shape != (4,):
            raise ValueError("phi_dot must hold exactly four rates")
        if not np.all(np.isfinite(arr)):
            raise ValueError("wheel rates must be finite")
        object.__setattr__(self, "phi_dot", arr)

    def as_array(self) -> np.ndarray:
        return self.phi_dot


@lru_cache(maxsize=16)
def wheel_matrix(geometry: OmniGeometry) -> np.ndarray:
    """The 4x3 matrix mapping (vx, vy, omega) to wheel rates.

    Row i is (1/r) * [-sin(a_i), cos(a_i), R] with a_i the mount angle of
    wheel i, r the wheel radius and R the body radius.  Built once per
    geometry and shared, so the array is read-only.
    """
    angles = np.asarray(geometry.wheel_angles, dtype=float)
    rows = np.column_stack(
        [
            -np.sin(angles),
            np.cos(angles),
            np.full(4, geometry.body_radius),
        ]
    )
    matrix = rows / geometry.wheel_radius
    matrix.flags.writeable = False
    return matrix


def inverse_kinematics(geometry: OmniGeometry, velocity: BodyVelocity) -> WheelSpeeds:
    """Wheel rates realizing a commanded body velocity."""
    return WheelSpeeds(wheel_matrix(geometry) @ velocity.as_array())


def forward_kinematics(geometry: OmniGeometry, wheels: WheelSpeeds) -> BodyVelocity:
    """Least-squares body velocity reproducing measured wheel rates.

    The wheel matrix has full column rank for any valid geometry, so the
    least-squares solution is unique; for consistent wheel rates it inverts
    :func:`inverse_kinematics` exactly.
    """
    matrix = wheel_matrix(geometry)
    solution, _, rank, _ = np.linalg.lstsq(matrix, wheels.as_array(), rcond=None)
    if rank < 3:
        raise ValueError("wheel matrix is rank deficient")
    return BodyVelocity(*solution)


def integrate_pose(pose: RobotPose, velocity: BodyVelocity, dt: float) -> RobotPose:
    """Advance a pose by one forward-Euler step of length dt."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    return RobotPose(
        pose.x + velocity.vx * dt,
        pose.y + velocity.vy * dt,
        wrap_angle(pose.theta + velocity.omega * dt),
    )
