import contextlib
import dataclasses
import io
import math
import platform
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnitrack import planning
from omnitrack.fpid import FpidConfig, FpidIt2Config
from omnitrack.kinematics import (
    BODY_RADIUS,
    OMEGA_MAX,
    V_MAX,
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
from omnitrack.nmpc import OcpConfig


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
        speeds = inverse_kinematics(vel, 0.0)
        back = forward_kinematics(speeds, 0.0)
        assert back.vx == pytest.approx(vel.vx, abs=1e-9)
        assert back.vy == pytest.approx(vel.vy, abs=1e-9)
        assert back.omega == pytest.approx(vel.omega, abs=1e-9)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    st.floats(-100.0, 100.0),
)
def test_round_trip_at_any_heading(velocity, heading):
    vel = BodyVelocity(*velocity)
    back = forward_kinematics(inverse_kinematics(vel, heading), heading)
    assert back.as_array() == pytest.approx(vel.as_array(), rel=0.0, abs=1e-12)


def column_form(velocity: BodyVelocity, heading: float) -> np.ndarray:
    """The wheel rates as whole-column products (the oracle of the per-row form)."""
    c, s = math.cos(heading), math.sin(heading)
    vx_b = c * velocity.vx + s * velocity.vy
    vy_b = c * velocity.vy - s * velocity.vx
    w = WHEEL_MATRIX
    return w[:, 0] * vx_b + w[:, 1] * vy_b + w[:, 2] * velocity.omega


SPEEDS = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6).map(np.float64),  # NMPC's commands are numpy floats
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(SPEEDS, SPEEDS, SPEEDS, ANGLES)
def test_wheel_rates_match_the_column_form_bit_for_bit(vx, vy, omega, heading):
    vel = BodyVelocity(vx, vy, omega)
    rates = inverse_kinematics(vel, heading)
    assert rates.dtype == np.float64 and rates.shape == (4,)
    assert rates.tobytes() == column_form(vel, heading).tobytes()


def test_wheel_rates_follow_the_body_frame():
    # Facing +y, a global +x command is a move to the robot's right: body -y.
    turned = inverse_kinematics(BodyVelocity(1.0, 0.0, 0.0), math.pi / 2.0)
    sideways = inverse_kinematics(BodyVelocity(0.0, -1.0, 0.0), 0.0)
    assert turned == pytest.approx(sideways, rel=0.0, abs=1e-14)
    assert np.abs(turned - inverse_kinematics(BodyVelocity(1.0, 0.0, 0.0), 0.0)).max() > 1.0
    back = forward_kinematics(sideways, math.pi / 2.0)
    assert back.as_array() == pytest.approx([1.0, 0.0, 0.0], rel=0.0, abs=1e-15)


def test_pure_rotation_wheel_speeds_exact():
    omega = 1.7
    for heading in (0.0, 0.4, -math.pi):
        speeds = inverse_kinematics(BodyVelocity(0.0, 0.0, omega), heading)
        assert speeds.shape == (4,)
        assert np.all(speeds == BODY_RADIUS * omega / WHEEL_RADIUS)


def test_pure_translation_symmetry():
    # Driving along +x with the symmetric wheel layout: the two wheels
    # mounted at pi/4 and 3pi/4 turn together and oppose the pair at
    # 5pi/4 and 7pi/4.
    phi = inverse_kinematics(BodyVelocity(1.0, 0.0, 0.0), 0.0)
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


@given(theta=ANGLES, omega=st.floats(-100.0, 100.0), dt=st.floats(1e-3, 1.0))
def test_the_plant_wraps_the_heading_once(theta, omega, dt):
    # RobotPose wraps its heading, and a second wrap gives the same bytes,
    # so integrate_pose leaves the wrap to the pose it builds.
    pose = RobotPose(0.0, 0.0, theta)
    once = wrap_angle(pose.theta + omega * dt)
    out = integrate_pose(pose, BodyVelocity(0.0, 0.0, omega), dt)
    assert bits(out.theta) == bits(once) == bits(wrap_angle(once))


def test_a_pose_and_a_plant_step_reject_bad_values():
    for bad in ((math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, math.nan)):
        with pytest.raises(ValueError, match="pose components must be finite"):
            RobotPose(*bad)
    for dt in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="dt must be positive"):
            integrate_pose(RobotPose(0.0, 0.0), BodyVelocity(1.0, 0.0, 0.0), dt)


def test_forward_kinematics_rejects_bad_rates():
    with pytest.raises(ValueError):
        forward_kinematics(np.array([1.0, 2.0, 3.0]), 0.0)  # needs four entries
    with pytest.raises(ValueError):
        forward_kinematics(np.array([1.0, 2.0, 3.0, np.nan]), 0.0)


def test_forward_kinematics_least_squares_consistency():
    # The 4x3 map is a tall full-rank matrix; the reconstruction must be
    # its exact pseudo-inverse action on consistent wheel speeds.
    vel = np.array([0.4, -0.2, 1.1])
    recovered = forward_kinematics(WHEEL_MATRIX @ vel, 0.0)
    assert np.array([recovered.vx, recovered.vy, recovered.omega]) == pytest.approx(
        vel, abs=1e-12
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4))
def test_forward_kinematics_matches_least_squares(rates):
    rates = np.array(rates)
    expected = np.linalg.lstsq(WHEEL_MATRIX, rates, rcond=None)[0]
    got = forward_kinematics(rates, 0.0).as_array()
    # Subnormal rates round on an absolute grid, so the bound has a floor
    # of a few of its steps.
    floor = 8 * np.finfo(float).smallest_subnormal
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max() + floor


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


def test_the_robot_limits_are_the_chassis_own():
    # One robot, one set of limits: no controller's config holds them.
    for cls, count in ((FpidConfig, 0), (FpidIt2Config, 2), (OcpConfig, 3)):
        names = {f.name for f in dataclasses.fields(cls)}
        assert len(names) == count and not names & {"v_max", "omega_max"}, cls
        for name in ("v_max", "omega_max"):
            with pytest.raises(TypeError, match=name):
                cls(**{name: 1.0})
    # NMPC's input box is the chassis'; its config only reads the limits.
    config = OcpConfig()
    assert (config.v_max, config.omega_max) == (V_MAX, OMEGA_MAX) == (1.5, 3.14)
    with pytest.raises(AttributeError):
        config.v_max = 2.0
    _, upper, *_ = config.constants(0.1)
    assert upper.tolist() == [V_MAX, OMEGA_MAX] * config.horizon


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


ENGINE_BYTES = (
    "import numpy as np\n"
    "from omnitrack.fuzzy import Type1Engine, Type2Engine\n"
    "from omnitrack.fpid import FpidIt2Config\n"
    "inputs = np.random.default_rng(19).uniform(-1.2, 1.2, (300, 2)).tolist()\n"
    "cfg = FpidIt2Config()\n"
    "for engine in (Type1Engine(), Type2Engine(cfg.fou_height_scale, cfg.fou_lag)):\n"
    "    print(np.array([engine.infer(e, de) for e, de in inputs]).tobytes().hex())\n"
)


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and platform.machine() == "x86_64"),
    reason="OPENBLAS_CORETYPE names x86-64 kernels of a Linux OpenBLAS",
)
@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge", "Nehalem", "Prescott"])
def test_fuzzy_increments_do_not_depend_on_the_blas_kernel(fresh_python, coretype):
    # Both engines' sums are numpy reductions, which no BLAS kernel computes.
    want = io.StringIO()
    with contextlib.redirect_stdout(want):
        exec(ENGINE_BYTES, {})
    got = fresh_python(ENGINE_BYTES, OPENBLAS_CORETYPE=coretype).splitlines()
    assert len(got) == 2
    for name, line, expected in zip(("t1", "it2"), got, want.getvalue().splitlines()):
        rows = np.frombuffer(bytes.fromhex(line), dtype=float).reshape(-1, 3)
        wanted = np.frombuffer(bytes.fromhex(expected), dtype=float).reshape(-1, 3)
        assert len(rows) == 300
        differing = int((rows != wanted).any(axis=1).sum())
        assert differing == 0, f"{name}: {differing} of 300 inputs differ under {coretype}"
