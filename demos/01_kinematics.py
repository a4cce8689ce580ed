"""Wheel-level kinematics of the four-wheel omni platform.

The chassis mounts four omni wheels at 45, 135, 225 and 315 degrees.
Each wheel contributes one row of a 4x3 matrix mapping the velocity in
the robot's own frame (vx_b, vy_b, omega) to wheel spin rates; the
forward map is the least squares inverse.  Commands are given in the
global frame, so both maps also take the heading and rotate by it.
This walk-through exercises both directions, shows one global command
at two headings, and integrates a short open-loop "dance" to show the
platform translating and spinning independently.
"""

import math
from pathlib import Path

import numpy as np

from omnitrack import (
    WHEEL_MATRIX,
    BodyVelocity,
    RobotPose,
    forward_kinematics,
    integrate_pose,
    inverse_kinematics,
)
from omnitrack.svgplot import line_chart

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# Body radius 0.2 m, wheel radius 0.05 m.
print("wheel matrix (rows = wheels, columns = body vx, vy, omega):")
print(np.array_str(WHEEL_MATRIX, precision=3, suppress_small=True))

# A few instructive commands: pure surge, pure sway, pure spin.
for label, command in [
    ("surge +x", BodyVelocity(1.0, 0.0, 0.0)),
    ("sway  +y", BodyVelocity(0.0, 1.0, 0.0)),
    ("spin  ccw", BodyVelocity(0.0, 0.0, 1.0)),
]:
    spin = inverse_kinematics(command, 0.0)
    back = forward_kinematics(spin, 0.0)
    print(f"{label}: wheels = {np.round(spin, 2)}"
          f"  recovered = {np.round(back.as_array(), 3)}")

# The same global +x command facing +y is a move to the robot's right.
turned = inverse_kinematics(BodyVelocity(1.0, 0.0, 0.0), math.pi / 2.0)
print(f"global +x at heading 90 deg: wheels = {np.round(turned, 2)}"
      " (body -y)")

# Round-trip accuracy over random commands and headings.
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(1000):
    v = rng.uniform([-2, -2, -4], [2, 2, 4])
    heading = rng.uniform(-math.pi, math.pi)
    back = forward_kinematics(inverse_kinematics(BodyVelocity(*v), heading), heading)
    worst = max(worst, float(np.max(np.abs(back.as_array() - v))))
print(f"worst round-trip error over 1000 random commands: {worst:.2e}")

# Open-loop dance: drive a square while spinning at a constant rate.
# An omni platform can do this because heading and course decouple.
pose = RobotPose(0.0, 0.0, 0.0)
ts = 0.02
xs, ys = [pose.x], [pose.y]
legs = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
for vx, vy in legs:
    for _ in range(100):  # 2 s per leg
        pose = integrate_pose(pose, BodyVelocity(vx, vy, 0.8), ts)
        xs.append(pose.x)
        ys.append(pose.y)
print(f"after the dance: x={pose.x:.3f} y={pose.y:.3f} "
      f"theta={math.degrees(pose.theta):.1f} deg")

line_chart(
    OUT / "kinematics_dance.svg",
    [("path", np.array(xs), np.array(ys))],
    title="Open-loop square while spinning",
    xlabel="x [m]",
    ylabel="y [m]",
    equal_aspect=True,
)
print(f"figure -> {OUT / 'kinematics_dance.svg'}")
