import math
import platform
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnitrack import planning
from omnitrack.kinematics import (
    BODY_RADIUS,
    WHEEL_ANGLES,
    WHEEL_LEFT_INVERSE,
    WHEEL_MATRIX,
    WHEEL_RADIUS,
    BodyVelocity,
    RobotPose,
    forward_kinematics,
    integrate_pose,
    inverse_kinematics,
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


def test_pose_normalizes_heading():
    pose = RobotPose(1.0, 2.0, 3 * math.pi)
    assert pose.theta == pytest.approx(math.pi)


def test_wheel_matrix_shape_and_rows():
    assert WHEEL_MATRIX.shape == (4, 3)
    for i, angle in enumerate(WHEEL_ANGLES):
        row = np.array([-math.sin(angle), math.cos(angle), BODY_RADIUS]) / WHEEL_RADIUS
        assert WHEEL_MATRIX[i] == pytest.approx(row, abs=1e-15)


def test_forward_inverse_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        vel = BodyVelocity(*rng.uniform(-3.0, 3.0, size=3))
        speeds = inverse_kinematics(vel)
        back = forward_kinematics(speeds)
        assert back.vx == pytest.approx(vel.vx, abs=1e-9)
        assert back.vy == pytest.approx(vel.vy, abs=1e-9)
        assert back.omega == pytest.approx(vel.omega, abs=1e-9)


def test_pure_rotation_wheel_speeds_exact():
    omega = 1.7
    speeds = inverse_kinematics(BodyVelocity(0.0, 0.0, omega))
    assert speeds.shape == (4,)
    assert np.all(speeds == BODY_RADIUS * omega / WHEEL_RADIUS)


def test_pure_translation_symmetry():
    # Driving along +x with the symmetric wheel layout: the two wheels
    # mounted at pi/4 and 3pi/4 turn together and oppose the pair at
    # 5pi/4 and 7pi/4.
    phi = inverse_kinematics(BodyVelocity(1.0, 0.0, 0.0))
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


def test_forward_kinematics_rejects_bad_rates():
    with pytest.raises(ValueError):
        forward_kinematics(np.array([1.0, 2.0, 3.0]))  # needs four entries
    with pytest.raises(ValueError):
        forward_kinematics(np.array([1.0, 2.0, 3.0, np.nan]))


def test_forward_kinematics_least_squares_consistency():
    # The 4x3 map is a tall full-rank matrix; the reconstruction must be
    # its exact pseudo-inverse action on consistent wheel speeds.
    vel = np.array([0.4, -0.2, 1.1])
    recovered = forward_kinematics(WHEEL_MATRIX @ vel)
    assert np.array([recovered.vx, recovered.vy, recovered.omega]) == pytest.approx(
        vel, abs=1e-12
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4))
def test_forward_kinematics_matches_least_squares(rates):
    rates = np.array(rates)
    expected = np.linalg.lstsq(WHEEL_MATRIX, rates, rcond=None)[0]
    got = forward_kinematics(rates).as_array()
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_wheel_matrices_are_read_only_constants():
    assert WHEEL_LEFT_INVERSE.shape == (3, 4)
    for matrix in (WHEEL_MATRIX, WHEEL_LEFT_INVERSE):
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0
    assert np.linalg.matrix_rank(WHEEL_MATRIX) == 3
    np.testing.assert_allclose(
        WHEEL_LEFT_INVERSE @ WHEEL_MATRIX, np.eye(3), rtol=0.0, atol=1e-15
    )


def test_wheel_left_inverse_is_the_pseudo_inverse():
    pinv = np.linalg.pinv(WHEEL_MATRIX)
    assert np.abs(WHEEL_LEFT_INVERSE - pinv).max() <= 3e-17


CONSTANT_BYTES = (
    "from omnitrack import kinematics, planning\n"
    "arrays = (kinematics.WHEEL_LEFT_INVERSE, planning._GL_NODES, planning._GL_WEIGHTS)\n"
    "print(' '.join(a.tobytes().hex() for a in arrays))"
)


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and platform.machine() == "x86_64"),
    reason="OPENBLAS_CORETYPE names x86-64 kernels of a Linux OpenBLAS",
)
@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge", "Nehalem", "Prescott"])
def test_import_constants_do_not_depend_on_the_blas_kernel(fresh_python, coretype):
    # The variable picks the kernels of numpy's OpenBLAS in the child only.
    want = " ".join(
        a.tobytes().hex()
        for a in (WHEEL_LEFT_INVERSE, planning._GL_NODES, planning._GL_WEIGHTS)
    )
    assert fresh_python(CONSTANT_BYTES, OPENBLAS_CORETYPE=coretype).strip() == want
