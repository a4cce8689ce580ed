import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from omnitrack.kinematics import (
    BodyVelocity,
    OmniGeometry,
    RobotPose,
    WheelSpeeds,
    forward_kinematics,
    integrate_pose,
    inverse_kinematics,
    wheel_matrix,
    wrap_angle,
)


def test_wrap_angle_scalar_and_array():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # half-open on the left
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(2 * math.pi) == pytest.approx(0.0)
    arr = wrap_angle(np.array([0.0, 4 * math.pi, -4 * math.pi, math.pi + 0.1]))
    assert arr == pytest.approx([0.0, 0.0, 0.0, -math.pi + 0.1])
    assert isinstance(wrap_angle(1.0), float)


def test_wrap_angle_idempotent():
    angles = np.linspace(-20.0, 20.0, 1001)
    once = wrap_angle(angles)
    assert np.all(once > -math.pi) and np.all(once <= math.pi)
    assert wrap_angle(once) == pytest.approx(once, abs=1e-12)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


ANGLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(min_value=-(10**15), max_value=10**15),
    st.integers(min_value=-1000, max_value=1000).map(lambda k: k * math.pi),
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 5e-324, -5e-324]),
)


@given(ANGLES)
def test_wrap_angle_scalar_property(angle):
    wrapped = wrap_angle(angle)
    assert type(wrapped) is float
    # The scalar path rounds exactly as the array path does.
    assert bits(wrapped) == bits(wrap_angle(np.array(angle, dtype=float)))
    assert -math.pi < wrapped <= math.pi
    assert bits(wrap_angle(wrapped)) == bits(wrapped)


def test_geometry_validation():
    with pytest.raises(ValueError):
        OmniGeometry(body_radius=0.0)
    with pytest.raises(ValueError):
        OmniGeometry(wheel_radius=-1.0)
    with pytest.raises(ValueError):
        OmniGeometry(wheel_angles=(0.0, 1.0, 0.5, 2.0))  # not increasing


def test_pose_normalizes_heading():
    pose = RobotPose(1.0, 2.0, 3 * math.pi)
    assert pose.theta == pytest.approx(math.pi)


def test_wheel_matrix_shape_and_rows():
    geom = OmniGeometry()
    mat = wheel_matrix(geom)
    assert mat.shape == (4, 3)
    # Built once per geometry and shared, so callers cannot alter it.
    assert wheel_matrix(OmniGeometry()) is mat
    with pytest.raises(ValueError):
        mat[0, 0] = 1.0
    for i, angle in enumerate(geom.wheel_angles):
        row = np.array(
            [-math.sin(angle), math.cos(angle), geom.body_radius]
        ) / geom.wheel_radius
        assert mat[i] == pytest.approx(row, abs=1e-15)


def test_forward_inverse_round_trip_random():
    rng = np.random.default_rng(7)
    geom = OmniGeometry()
    for _ in range(1000):
        vel = BodyVelocity(*rng.uniform(-3.0, 3.0, size=3))
        speeds = inverse_kinematics(geom, vel)
        back = forward_kinematics(geom, speeds)
        assert back.vx == pytest.approx(vel.vx, abs=1e-9)
        assert back.vy == pytest.approx(vel.vy, abs=1e-9)
        assert back.omega == pytest.approx(vel.omega, abs=1e-9)


def test_pure_rotation_wheel_speeds_exact():
    geom = OmniGeometry(body_radius=0.3, wheel_radius=0.06)
    omega = 1.7
    speeds = inverse_kinematics(geom, BodyVelocity(0.0, 0.0, omega))
    expected = geom.body_radius * omega / geom.wheel_radius
    assert np.all(speeds.phi_dot == expected)


def test_pure_translation_symmetry():
    # Driving along +x with the default symmetric layout: the two wheels
    # mounted at pi/4 and 3pi/4 turn together and oppose the pair at
    # 5pi/4 and 7pi/4.
    speeds = inverse_kinematics(OmniGeometry(), BodyVelocity(1.0, 0.0, 0.0))
    phi = speeds.phi_dot
    assert phi[0] == pytest.approx(phi[1], abs=1e-12)
    assert phi[2] == pytest.approx(phi[3], abs=1e-12)
    assert phi[0] == pytest.approx(-phi[2], abs=1e-12)


def test_integrate_pose_straight_line():
    pose = RobotPose(0.0, 0.0, 0.5)
    # Global-frame twist: motion is independent of the heading.
    out = integrate_pose(pose, BodyVelocity(1.0, 0.0, 0.0), 0.1)
    assert (out.x, out.y) == pytest.approx((0.1, 0.0))
    assert out.theta == pytest.approx(0.5)


def test_integrate_pose_wraps_heading():
    pose = RobotPose(0.0, 0.0, 3.0)
    out = integrate_pose(pose, BodyVelocity(0.0, 0.0, 3.0), 0.1)
    assert out.theta == pytest.approx(wrap_angle(3.3))
    assert out.theta <= math.pi


def test_wheel_speeds_validation():
    with pytest.raises(ValueError):
        WheelSpeeds(np.array([1.0, 2.0, 3.0]))  # needs four entries
    with pytest.raises(ValueError):
        WheelSpeeds(np.array([1.0, 2.0, 3.0, np.nan]))


def test_forward_kinematics_least_squares_consistency():
    # The 4x3 map is a tall full-rank matrix; the reconstruction must be
    # its exact pseudo-inverse action on consistent wheel speeds.
    geom = OmniGeometry()
    mat = wheel_matrix(geom)
    vel = np.array([0.4, -0.2, 1.1])
    recovered = forward_kinematics(geom, WheelSpeeds(mat @ vel))
    assert np.array([recovered.vx, recovered.vy, recovered.omega]) == pytest.approx(
        vel, abs=1e-12
    )
