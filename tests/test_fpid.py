import contextlib
import io
import math
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omnitrack import fpid
from omnitrack.cli import main
from omnitrack.fpid import (
    FpidConfig,
    FuzzyPidController,
    PidState,
    compute_errors,
    fpid_step,
)
from omnitrack.fuzzy import GainDeltas, Type1Engine, Type2Engine
from omnitrack.kinematics import RobotPose, wrap_angle
from omnitrack.simlab import _controller

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


class ZeroEngine:
    """Stub engine: no gain adaptation, reduces the loop to fixed PID."""

    def infer(self, e, de):
        return GainDeltas(0.0, 0.0, 0.0)


class ConstantEngine:
    def __init__(self, dkp, dki, dkd):
        self.out = GainDeltas(dkp, dki, dkd)

    def infer(self, e, de):
        return self.out


# ---------------------------------------------------------------- errors


def test_errors_direct_fields():
    err = compute_errors(RobotPose(1.0, 2.0, 0.5), RobotPose(4.0, 6.0, 1.0))
    assert err.e_x == pytest.approx(3.0)
    assert err.e_y == pytest.approx(4.0)
    assert err.dr == pytest.approx(5.0)
    assert err.e_theta == pytest.approx(0.5)


def test_heading_error_wraps_across_cut():
    # Headings 3 and -3 rad sit either side of the +/-pi cut; the short
    # way round is ~0.283 rad, not ~6.
    err = compute_errors(RobotPose(0.0, 0.0, 3.0), RobotPose(-1.0, 0.0, -3.0))
    assert err.e_theta == pytest.approx(2 * math.pi - 6.0, abs=1e-12)
    assert abs(err.e_theta) < 0.3


def test_first_translation_does_not_depend_on_the_heading():
    # The speed follows the line of sight in the global frame: turning the
    # robot on the spot leaves a fresh controller's (vx, vy) bit for bit.
    rng = np.random.default_rng(21)
    for _ in range(20):
        x, y = rng.uniform(-2.0, 2.0, 2)
        target = RobotPose(*rng.uniform(-2.0, 2.0, 2), rng.uniform(-3.0, 3.0))
        first = None
        for theta in np.linspace(-math.pi, math.pi, 30):
            cmd = FuzzyPidController().command(RobotPose(x, y, theta), target, 0.1)
            if first is None:
                first = bits(cmd.vx, cmd.vy)
            assert bits(cmd.vx, cmd.vy) == first, theta


# ------------------------------------------------------------- pid loop


def test_fixed_gain_step_matches_hand_computation():
    state = PidState(kp=2.0, ki=0.5, kd=0.1)
    out = fpid_step(state, ZeroEngine(), error=0.4, dt=0.1, norm_scale=1.0)
    # integral = 0.4*0.1 = 0.04; derivative = (0.4-0)/0.1 = 4
    assert state.integral == pytest.approx(0.04)
    assert out == pytest.approx(2.0 * 0.4 + 0.5 * 0.04 + 0.1 * 4.0)
    assert state.prev_error == 0.4


@pytest.mark.parametrize(
    "kwargs", [{"dt": 0.0}, {"norm_scale": -1.0}, {"de_scale": 0.0}, {"de_scale": math.nan}]
)
def test_step_rejects_nonpositive_scales(kwargs):
    args = {"error": 1.0, "dt": 0.1, "norm_scale": 1.0, **kwargs}
    with pytest.raises(ValueError):
        fpid_step(PidState(1.0, 0.0, 0.1), Type1Engine(), **args)


def test_gain_updates_apply_before_output():
    state = PidState(kp=1.0, ki=0.0, kd=0.0)
    out = fpid_step(state, ConstantEngine(0.05, 0.0, 0.0), 1.0, 0.1, 1.0)
    assert state.kp == pytest.approx(1.05)
    assert out == pytest.approx(1.05 * 1.0)  # new gain already in force


def test_gains_clamp_to_limits():
    state = PidState(kp=9.99, ki=0.0, kd=0.0, k_max=10.0)
    for _ in range(5):
        fpid_step(state, ConstantEngine(0.1, -0.1, 0.0), 1.0, 0.1, 1.0)
    assert state.kp == 10.0
    assert state.ki == 0.0  # cannot go below zero


def test_integral_clamps_to_limit():
    state = PidState(kp=0.0, ki=1.0, kd=0.0, i_max=0.25)
    for _ in range(100):
        fpid_step(state, ZeroEngine(), 1.0, 0.1, 1.0)
    assert state.integral == pytest.approx(0.25)
    state2 = PidState(kp=0.0, ki=1.0, kd=0.0, i_max=0.25)
    for _ in range(100):
        fpid_step(state2, ZeroEngine(), -1.0, 0.1, 1.0)
    assert state2.integral == pytest.approx(-0.25)


def test_engine_sees_normalized_inputs():
    seen = []

    class Probe:
        def infer(self, e, de):
            seen.append((e, de))
            return GainDeltas(0.0, 0.0, 0.0)

    state = PidState(kp=1.0, ki=0.0, kd=0.0)
    fpid_step(state, Probe(), error=math.pi / 2, dt=0.1, norm_scale=math.pi)
    e_n, de_n = seen[0]
    assert e_n == pytest.approx(0.5)
    # Rate (pi/2 / 0.1) normalized by pi and de_scale=10, clamped to 1.
    assert de_n == pytest.approx(min(1.0, (math.pi / 2 / 0.1) / math.pi / 10.0))
    fpid_step(state, Probe(), error=100.0, dt=0.1, norm_scale=1.0)
    assert seen[1][0] == 1.0  # clamped


# ------------------------------------------------------------ controller


def test_command_drives_toward_target():
    ctrl = FuzzyPidController(FpidConfig())
    cmd = ctrl.command(RobotPose(0.0, 0.0, 0.0), RobotPose(1.0, 0.0, 0.0), 0.1)
    assert cmd.vx > 0.1
    assert cmd.vy == pytest.approx(0.0, abs=1e-12)


def test_command_velocity_saturates():
    cfg = FpidConfig(v_max=1.5, omega_max=3.14)
    ctrl = FuzzyPidController(cfg)
    cmd = ctrl.command(RobotPose(0.0, 0.0, 0.0), RobotPose(50.0, 0.0, math.pi), 0.1)
    speed = math.hypot(cmd.vx, cmd.vy)
    assert speed == pytest.approx(1.5, abs=1e-9)
    assert abs(cmd.omega) <= 3.14 + 1e-12


def test_command_stops_inside_deadband():
    ctrl = FuzzyPidController(FpidConfig())
    cmd = ctrl.command(RobotPose(0.0, 0.0, 0.0), RobotPose(0.004, 0.003, 0.0), 0.1)
    assert cmd.vx == 0.0 and cmd.vy == 0.0
    # With a zero threshold a robot on the target has no line of sight either.
    ctrl = FuzzyPidController(FpidConfig(threshold=0.0))
    cmd = ctrl.command(RobotPose(0.3, 0.2, 1.0), RobotPose(0.3, 0.2, 0.0), 0.1)
    assert cmd.vx == 0.0 and cmd.vy == 0.0


def test_body_frame_accounts_for_heading():
    # Robot heading +pi/2, target straight ahead of the BODY x-axis: the
    # command must point along +y in the global frame.
    ctrl = FuzzyPidController(FpidConfig())
    cmd = ctrl.command(RobotPose(0.0, 0.0, math.pi / 2), RobotPose(0.0, 2.0, math.pi / 2), 0.1)
    assert cmd.vy > 0.1
    assert cmd.vx == pytest.approx(0.0, abs=1e-9)


def test_zero_engine_reduces_to_fixed_pid():
    cfg = FpidConfig()
    fuzzy_ctrl = FuzzyPidController(cfg)
    fixed_ctrl = FuzzyPidController(cfg, engine=ZeroEngine())
    robot = RobotPose(0.0, 0.0, 0.0)
    target = RobotPose(1.0, 1.0, 1.0)
    a = fuzzy_ctrl.command(robot, target, 0.1)
    b = fixed_ctrl.command(robot, target, 0.1)
    # Same structure, but the fuzzy adaptation changed the applied gains.
    assert (a.vx, a.vy, a.omega) != (b.vx, b.vy, b.omega)
    assert fixed_ctrl.distance.kp == cfg.dist_kp  # untouched gains
    assert fuzzy_ctrl.distance.kp != cfg.dist_kp


def test_type1_and_degenerate_type2_controllers_agree():
    t1 = _controller("fpid-t1")
    t2 = _controller("fpid-it2", FpidConfig(fou_lag=0.0, fou_height_scale=1.0))
    robot = RobotPose(0.0, 0.0, 0.0)
    rng = np.random.default_rng(9)
    for _ in range(25):
        target = RobotPose(*rng.uniform(-2.0, 2.0, 2), rng.uniform(-3.0, 3.0))
        a = t1.command(robot, target, 0.1)
        b = t2.command(robot, target, 0.1)
        assert a.vx == pytest.approx(b.vx, abs=1e-7)
        assert a.vy == pytest.approx(b.vy, abs=1e-7)
        assert a.omega == pytest.approx(b.omega, abs=1e-7)


def test_engine_choice_from_config():
    # The controller id picks the engine; the fou_* fields shape the type-2 one.
    assert isinstance(_controller("fpid-t1").engine, Type1Engine)
    assert isinstance(_controller("fpid-t1", FpidConfig(fou_lag=0.45)).engine, Type1Engine)
    it2 = _controller("fpid-it2", FpidConfig(fou_lag=0.45, fou_height_scale=0.8)).engine
    assert isinstance(it2, Type2Engine)
    probes = [(0.4, -0.2), (0.8, 0.1), (-0.6, 0.5)]
    outputs = [it2.infer(e, de) for e, de in probes]
    assert outputs == [Type2Engine(height_scale=0.8, lag=0.45).infer(e, de) for e, de in probes]
    assert outputs != [Type2Engine().infer(e, de) for e, de in probes]
    # A zero or infinite scale divides the error into 0/0 or nothing, and
    # a NaN threshold turns every range comparison false.  Gains outside
    # [0, k_max] and footprints the type-2 engine rejects fail here, not
    # when the first episode builds its controller.
    for bad in (
        {"de_scale": 0.0},
        {"dist_norm": 0.0},
        {"head_norm": -1.0},
        {"de_scale": math.inf},
        {"dist_norm": math.nan},
        {"threshold": math.nan},
        {"threshold": -0.01},
        {"threshold": math.inf},
        {"dist_kp": 12.0},
        {"head_kd": -0.1},
        {"dist_ki": 5.0, "k_max": 4.0},
        {"k_max": 0.0},
        {"k_max": math.inf},
        {"i_max": 0.0},
        {"i_max": math.nan},
        {"fou_lag": 1.0},
        {"fou_lag": -0.1},
        # Lags this close to 1 round a lower set's foot onto its apex.
        {"fou_lag": 0.9999999999999998},
        {"fou_lag": 0.9999999999999999},
        {"fou_height_scale": 0.0},
        {"fou_height_scale": 1.5},
    ):
        with pytest.raises(ValueError):
            FpidConfig(**bad)
    with pytest.raises(ValueError, match="fou_lag"):
        FpidConfig(fou_lag=0.9999999999999998)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    lag=st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.999999999999999, 0.9999999999999998, math.nextafter(1.0, 0.0)]),
    ),
    height_scale=st.one_of(st.floats(0.0, 1.0), st.just(5e-324)),
    e=st.floats(-1.0, 1.0),
    de=st.floats(-1.0, 1.0),
)
def test_every_accepted_footprint_builds_a_finite_type2_engine(lag, height_scale, e, de):
    try:
        config = FpidConfig(fou_lag=lag, fou_height_scale=height_scale)
    except ValueError:
        return
    engine = _controller("fpid-it2", config).engine
    for point in ((e, de), (0.0, 0.0), (0.5, -1 / 3)):
        assert all(math.isfinite(value) for value in engine.infer(*point)), point


def test_closed_loop_settles_into_tracking_band():
    # Drive the kinematic model with the controller: the robot must enter
    # the ten-percent band around the target quickly and stay there.  (A
    # small residual orbit remains because the range error never changes
    # sign, so exact rest on the point is not expected.)
    from omnitrack.kinematics import integrate_pose

    ctrl = FuzzyPidController(FpidConfig())
    pose = RobotPose(0.0, 0.0, 0.0)
    target = RobotPose(0.8, -0.5, 1.2)
    distance = math.hypot(target.x, target.y)
    band = 0.1 * distance
    history = []
    for _ in range(100):
        cmd = ctrl.command(pose, target, 0.1)
        pose = integrate_pose(pose, cmd, 0.1)
        history.append(
            (
                math.hypot(target.x - pose.x, target.y - pose.y),
                abs(wrap_angle(target.theta - pose.theta)),
            )
        )
    tail = history[40:]
    assert max(dr for dr, _ in tail) < band
    assert max(dth for _, dth in tail) < 0.05


# ------------------------------------------------ reuse of gain increments


def always_infer_step(state, engine, error, dt, norm_scale, de_scale=10.0):
    """The loop update that asks the engine at every step (the oracle)."""
    derivative = (error - state.prev_error) / dt
    e_n = min(max(error / norm_scale, -1.0), 1.0)
    de_n = min(max(derivative / (norm_scale * de_scale), -1.0), 1.0)
    dkp, dki, dkd = engine.infer(e_n, de_n)
    state.kp = min(max(state.kp + dkp, 0.0), state.k_max)
    state.ki = min(max(state.ki + dki, 0.0), state.k_max)
    state.kd = min(max(state.kd + dkd, 0.0), state.k_max)
    state.integral = min(max(state.integral + error * dt, -state.i_max), state.i_max)
    output = state.kp * error + state.ki * state.integral + state.kd * derivative
    state.prev_error = error
    return output


def bits(*values):
    """Bytes of floats: equal exactly when the floats are equal bit for bit."""
    return struct.pack(f"{len(values)}d", *values)


def loop_fields(state):
    return bits(state.kp, state.ki, state.kd, state.integral, state.prev_error)


class Probe:
    """Wraps an engine; logs (name, input bytes) of every call to a shared list."""

    def __init__(self, name, engine, calls):
        self.name, self.engine, self.calls = name, engine, calls

    def infer(self, e, de):
        self.calls.append((self.name, bits(e, de)))
        return self.engine.infer(e, de)


_REAL_ENGINES = (Type1Engine(), Type2Engine())
# Errors drawn from a small pool repeat often; the pool holds both signed
# zeros, values that saturate the normalized error and rate, and apexes.
_POOL = (0.0, -0.0, 1 / 3, -2 / 3, 0.5, -0.5, 1.0, 2.5, -2.5, 40.0, -40.0)


@st.composite
def error_runs(draw):
    """(error, engine index) steps as runs, so inputs and engines repeat."""
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        error = draw(
            st.one_of(
                st.sampled_from((0.0, -0.0)),
                st.sampled_from(_POOL),
                st.floats(-3.0, 3.0, allow_subnormal=False),
            )
        )
        engine = draw(st.integers(0, 1))
        steps += [(error, engine)] * draw(st.integers(1, 5))
    return steps


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(error_runs(), st.sampled_from([(1.0, 10.0), (math.pi, 10.0), (0.5, 2.0)]))
@example([(0.0, 0), (-0.0, 0), (-0.0, 0), (0.0, 0), (0.0, 1), (0.0, 1)], (1.0, 10.0))
def test_reuse_matches_the_always_infer_oracle_bit_for_bit(steps, scales):
    norm_scale, de_scale = scales
    oracle_calls, calls = [], []
    oracle_engines = [Probe(i, engine, oracle_calls) for i, engine in enumerate(_REAL_ENGINES)]
    engines = [Probe(i, engine, calls) for i, engine in enumerate(_REAL_ENGINES)]
    oracle_state, state = PidState(1.0, 0.2, 0.1), PidState(1.0, 0.2, 0.1)
    for error, which in steps:
        expected = always_infer_step(
            oracle_state, oracle_engines[which], error, 0.1, norm_scale, de_scale
        )
        got = fpid_step(state, engines[which], error, 0.1, norm_scale, de_scale)
        assert bits(got) == bits(expected)
        assert loop_fields(state) == loop_fields(oracle_state)
    # One call per change of engine or of input bytes: 0.0 and -0.0 differ.
    changes = [c for k, c in enumerate(oracle_calls) if k == 0 or c != oracle_calls[k - 1]]
    assert calls == changes


def test_a_repeated_input_is_inferred_once_per_engine_swap():
    calls = []
    a = Probe("a", ConstantEngine(0.01, 0.0, 0.0), calls)
    b = Probe("b", ConstantEngine(-0.02, 0.0, 0.0), calls)
    state = PidState(kp=1.0, ki=0.0, kd=0.0)
    for engine in (a, a, a, b, b, a):
        fpid_step(state, engine, 0.0, 0.1, 1.0)
    zero = bits(0.0, 0.0)
    assert calls == [("a", zero), ("b", zero), ("a", zero)]
    assert state.kp == pytest.approx(1.0 + 4 * 0.01 - 2 * 0.02)  # reuses apply too
    # The sign of a zero input is part of the input.
    fpid_step(state, a, -0.0, 0.1, 1.0)
    fpid_step(state, a, -0.0, 0.1, 1.0)
    assert calls[3:] == [("a", bits(-0.0, -0.0)), ("a", bits(-0.0, 0.0))]


@pytest.mark.parametrize("memo", ["engine", "last_input", "last_deltas"])
def test_the_memo_is_not_a_constructor_parameter(memo):
    with pytest.raises(TypeError):
        PidState(1.0, 0.0, 0.0, **{memo: None})
    state = PidState(1.0, 0.0, 0.0)
    assert (state.engine, state.last_input, state.last_deltas) == (None, None, None)
    assert state == PidState(1.0, 0.0, 0.0) and "last" not in repr(state)


def test_a_failed_inference_is_not_remembered():
    class Flaky:
        fail = True

        def infer(self, e, de):
            if self.fail:
                raise ValueError("e and de must be finite")
            return GainDeltas(0.01, 0.0, 0.0)

    engine, state = Flaky(), PidState(kp=1.0, ki=0.0, kd=0.0)
    with pytest.raises(ValueError):
        fpid_step(state, engine, 0.0, 0.1, 1.0)
    engine.fail = False
    fpid_step(state, engine, 0.0, 0.1, 1.0)
    assert state.kp == 1.01


def count_infer_calls(monkeypatch, command, config):
    """Engine calls per engine class, and the changes of each loop's input.

    The changes are counted from the errors the loops see: a loop's
    normalized (e, de) pair, or its engine, differs from its previous one.
    """
    calls, changes, last = Counter(), Counter(), {}
    for cls in (Type1Engine, Type2Engine):

        def counted(self, e, de, infer=cls.infer, name=cls.__name__):
            calls[name] += 1
            return infer(self, e, de)

        monkeypatch.setattr(cls, "infer", counted)

    def watched(state, engine, error, dt, norm_scale, de_scale=10.0, step=fpid.fpid_step):
        derivative = (error - state.prev_error) / dt
        e_n = min(max(error / norm_scale, -1.0), 1.0)
        de_n = min(max(derivative / (norm_scale * de_scale), -1.0), 1.0)
        key = (engine, bits(e_n, de_n))
        if last.get(id(state), (None, None))[1] != key:
            changes[type(engine).__name__] += 1
        last[id(state)] = (state, key)  # holding the state keeps its id unique
        return step(state, engine, error, dt, norm_scale, de_scale)

    monkeypatch.setattr(fpid, "fpid_step", watched)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", str(CONFIG_DIR / config), "--out", "out"]) == 0
    return calls, changes


@pytest.mark.parametrize(
    "command, config, expected",
    [("track", "track.ini", 459), ("step", "step.ini", 152)],
)
def test_engines_are_called_once_per_change_of_a_loops_input(
    monkeypatch, tmp_path, command, config, expected
):
    monkeypatch.chdir(tmp_path)
    calls, changes = count_infer_calls(monkeypatch, command, config)
    assert changes == {"Type1Engine": expected, "Type2Engine": expected}
    assert calls == changes
