import contextlib
import dataclasses
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
    FpidIt2Config,
    FuzzyPidController,
    PidState,
    compute_errors,
    fpid_step,
)
from omnitrack.fuzzy import GainDeltas, Type1Engine, Type2Engine
from omnitrack.kinematics import OMEGA_MAX, V_MAX, RobotPose, wrap_angle
from omnitrack.planning import ReferenceTrajectory
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


def one_target(target: RobotPose) -> ReferenceTrajectory:
    """A two-row 0.1 s trajectory holding one target pose, read at step 0."""
    return ReferenceTrajectory(0.1, np.tile(target.as_array(), (2, 1)), np.zeros(2), np.zeros(2))


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
        target = one_target(RobotPose(*rng.uniform(-2.0, 2.0, 2), rng.uniform(-3.0, 3.0)))
        first = None
        for theta in np.linspace(-math.pi, math.pi, 30):
            cmd = FuzzyPidController().command(RobotPose(x, y, theta), target, 0)
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
    "kwargs", [{"dt": 0.0}, {"norm_scale": -1.0}, {"norm_scale": math.nan}, {"dt": math.nan}]
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
    state = PidState(kp=fpid.K_MAX - 0.01, ki=0.0, kd=0.0)
    for _ in range(5):
        fpid_step(state, ConstantEngine(0.1, -0.1, 0.0), 1.0, 0.1, 1.0)
    assert state.kp == fpid.K_MAX
    assert state.ki == 0.0  # cannot go below zero
    # A loop cannot start outside the range its gains are clamped to.
    for gains in (
        (12.0, 0.0, 0.1),
        (2.0, 0.0, -0.1),
        (1.0, math.nextafter(fpid.K_MAX, math.inf), 0.1),
        (2.0, math.nan, 0.1),
    ):
        with pytest.raises(ValueError, match="initial gains"):
            PidState(*gains)


def test_integral_clamps_to_limit():
    state = PidState(kp=0.0, ki=1.0, kd=0.0)
    for _ in range(100):
        fpid_step(state, ZeroEngine(), 1.0, 0.1, 1.0)
    assert state.integral == fpid.I_MAX
    state2 = PidState(kp=0.0, ki=1.0, kd=0.0)
    for _ in range(100):
        fpid_step(state2, ZeroEngine(), -1.0, 0.1, 1.0)
    assert state2.integral == -fpid.I_MAX
    # The bounds are the module's, not parameters.
    for removed in ("k_max", "i_max"):
        with pytest.raises(TypeError):
            PidState(kp=0.0, ki=1.0, kd=0.0, **{removed: 1.0})


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
    # Rate (pi/2 / 0.1) normalized by pi and the rate divisor 10, clamped to 1.
    assert de_n == pytest.approx(min(1.0, (math.pi / 2 / 0.1) / math.pi / 10.0))
    fpid_step(state, Probe(), error=100.0, dt=0.1, norm_scale=1.0)
    assert seen[1][0] == 1.0  # clamped


# ------------------------------------------------------------ controller


def test_command_drives_toward_target():
    ctrl = FuzzyPidController(FpidConfig())
    cmd = ctrl.command(RobotPose(0.0, 0.0, 0.0), one_target(RobotPose(1.0, 0.0, 0.0)), 0)
    assert cmd.vx > 0.1
    assert cmd.vy == pytest.approx(0.0, abs=1e-12)


def test_command_velocity_saturates():
    # The chassis' limits bound the command; no config sets them.
    ctrl = FuzzyPidController(FpidConfig())
    cmd = ctrl.command(RobotPose(0.0, 0.0, 0.0), one_target(RobotPose(50.0, 0.0, math.pi)), 0)
    speed = math.hypot(cmd.vx, cmd.vy)
    assert speed == pytest.approx(V_MAX, abs=1e-9)
    assert abs(cmd.omega) == OMEGA_MAX


def test_command_stops_inside_deadband():
    ctrl = FuzzyPidController(FpidConfig())
    cmd = ctrl.command(RobotPose(0.0, 0.0, 0.0), one_target(RobotPose(0.004, 0.003, 0.0)), 0)
    assert cmd.vx == 0.0 and cmd.vy == 0.0
    # A robot on the target has no line of sight either.
    ctrl = FuzzyPidController(FpidConfig())
    cmd = ctrl.command(RobotPose(0.3, 0.2, 1.0), one_target(RobotPose(0.3, 0.2, 0.0)), 0)
    assert cmd.vx == 0.0 and cmd.vy == 0.0


def test_body_frame_accounts_for_heading():
    # Robot heading +pi/2, target straight ahead of the BODY x-axis: the
    # command must point along +y in the global frame.
    ctrl = FuzzyPidController(FpidConfig())
    target = one_target(RobotPose(0.0, 2.0, math.pi / 2))
    cmd = ctrl.command(RobotPose(0.0, 0.0, math.pi / 2), target, 0)
    assert cmd.vy > 0.1
    assert cmd.vx == pytest.approx(0.0, abs=1e-9)


def test_zero_engine_reduces_to_fixed_pid():
    cfg = FpidConfig()
    fuzzy_ctrl = FuzzyPidController(cfg)
    fixed_ctrl = FuzzyPidController(cfg, engine=ZeroEngine())
    robot = RobotPose(0.0, 0.0, 0.0)
    target = one_target(RobotPose(1.0, 1.0, 1.0))
    a = fuzzy_ctrl.command(robot, target, 0)
    b = fixed_ctrl.command(robot, target, 0)
    # Same structure, but the fuzzy adaptation changed the applied gains.
    assert (a.vx, a.vy, a.omega) != (b.vx, b.vy, b.omega)
    for loop, gains in (("distance", fpid.DISTANCE_GAINS), ("heading", fpid.HEADING_GAINS)):
        state = getattr(fixed_ctrl, loop)
        assert (state.kp, state.ki, state.kd) == gains  # untouched gains
    assert fuzzy_ctrl.distance.kp != fpid.DISTANCE_GAINS[0]


def test_type1_and_degenerate_type2_controllers_agree():
    t1 = _controller("fpid-t1")
    t2 = _controller("fpid-it2", FpidIt2Config(fou_lag=0.0, fou_height_scale=1.0))
    assert isinstance(t2.engine, Type2Engine)
    robot = RobotPose(0.0, 0.0, 0.0)
    rng = np.random.default_rng(9)
    for _ in range(25):
        target = one_target(RobotPose(*rng.uniform(-2.0, 2.0, 2), rng.uniform(-3.0, 3.0)))
        a = t1.command(robot, target, 0)
        b = t2.command(robot, target, 0)
        assert a.vx == pytest.approx(b.vx, abs=1e-7)
        assert a.vy == pytest.approx(b.vy, abs=1e-7)
        assert a.omega == pytest.approx(b.omega, abs=1e-7)


def test_engine_choice_from_config():
    # The config's class picks the engine; the fou_* fields shape the type-2 one.
    assert isinstance(_controller("fpid-t1").engine, Type1Engine)
    assert isinstance(_controller("fpid-it2").engine, Type2Engine)
    probes = [(0.4, -0.2), (0.8, 0.1), (-0.6, 0.5), (0.0, 0.0), (1.0, -1.0)]

    def increments(engine):
        return [struct.pack("3d", *engine.infer(e, de)) for e, de in probes]

    # Through the lab or built directly, the controller's increments are
    # those of a Type2Engine of the config's footprint, bit for bit.
    config = FpidIt2Config(fou_lag=0.45, fou_height_scale=0.8)
    want = increments(Type2Engine(height_scale=0.8, lag=0.45))
    for ctrl in (_controller("fpid-it2", config), FuzzyPidController(config)):
        assert isinstance(ctrl.engine, Type2Engine)
        assert increments(ctrl.engine) == want
    assert want != increments(Type2Engine())
    # An injected engine replaces the one the config would pick.
    assert isinstance(FuzzyPidController(config, engine=Type1Engine()).engine, Type1Engine)
    # Footprints the type-2 engine rejects fail in the type-2 config, not
    # when the first episode builds its controller.
    footprints = (
        {"fou_lag": 1.0},
        {"fou_lag": -0.1},
        # Lags this close to 1 round a lower set's foot onto its apex.
        {"fou_lag": 0.9999999999999998},
        {"fou_lag": 0.9999999999999999},
        {"fou_height_scale": 0.0},
        {"fou_height_scale": 1.5},
    )
    for bad in footprints:
        with pytest.raises(ValueError):
            FpidIt2Config(**bad)
    with pytest.raises(ValueError, match="fou_lag"):
        FpidIt2Config(fou_lag=0.9999999999999998)
    # The starting gains and the gain and integrator bounds are the
    # module's, not fields.
    removed_keys = ("dist_kp", "dist_ki", "dist_kd", "head_kp", "head_ki", "head_kd")
    for cls in (FpidConfig, FpidIt2Config):
        for removed in removed_keys + ("k_max", "i_max"):
            with pytest.raises(TypeError):
                cls(**{removed: 1.0})


def test_only_the_type2_config_takes_a_footprint():
    # A type-1 set has no footprint of uncertainty, and the starting gains
    # are module constants, so the type-1 class has no field at all and
    # the type-2 class exactly the footprint's two.
    assert dataclasses.fields(FpidConfig) == ()
    assert [f.name for f in dataclasses.fields(FpidIt2Config)] == [
        "fou_height_scale",
        "fou_lag",
    ]
    for key in ("fou_height_scale", "fou_lag"):
        with pytest.raises(TypeError, match=key):
            FpidConfig(**{key: 0.5})


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
        config = FpidIt2Config(fou_lag=lag, fou_height_scale=height_scale)
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
    reference = one_target(target)
    history = []
    for _ in range(100):
        cmd = ctrl.command(pose, reference, 0)
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


def always_infer_step(state, engine, error, dt, norm_scale):
    """The loop update that asks the engine at every step (the oracle)."""
    derivative = (error - state.prev_error) / dt
    e_n = min(max(error / norm_scale, -1.0), 1.0)
    de_n = min(max(derivative / (norm_scale * fpid.DE_SCALE), -1.0), 1.0)
    dkp, dki, dkd = engine.infer(e_n, de_n)
    state.kp = min(max(state.kp + dkp, 0.0), fpid.K_MAX)
    state.ki = min(max(state.ki + dki, 0.0), fpid.K_MAX)
    state.kd = min(max(state.kd + dkd, 0.0), fpid.K_MAX)
    state.integral = min(max(state.integral + error * dt, -fpid.I_MAX), fpid.I_MAX)
    output = state.kp * error + state.ki * state.integral + state.kd * derivative
    state.prev_error = error
    return output


def bits(*values):
    """Bytes of floats: equal exactly when the floats are equal bit for bit."""
    return struct.pack(f"{len(values)}d", *values)


def loop_fields(state):
    return bits(state.kp, state.ki, state.kd, state.integral, state.prev_error)


class Probe:
    """Wraps an engine; logs (name, (e, de)) of every call to a shared list."""

    def __init__(self, name, engine, calls):
        self.name, self.engine, self.calls = name, engine, calls

    def infer(self, e, de):
        self.calls.append((self.name, (e, de)))
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
@given(error_runs(), st.sampled_from([1.0, math.pi, 0.5]))
@example([(0.0, 0), (-0.0, 0), (-0.0, 0), (0.0, 0), (0.0, 1), (0.0, 1)], 1.0)
def test_reuse_matches_the_always_infer_oracle_bit_for_bit(steps, norm_scale):
    oracle_calls, calls = [], []
    oracle_engines = [Probe(i, engine, oracle_calls) for i, engine in enumerate(_REAL_ENGINES)]
    engines = [Probe(i, engine, calls) for i, engine in enumerate(_REAL_ENGINES)]
    oracle_state, state = PidState(1.0, 0.2, 0.1), PidState(1.0, 0.2, 0.1)
    for error, which in steps:
        expected = always_infer_step(
            oracle_state, oracle_engines[which], error, 0.1, norm_scale
        )
        got = fpid_step(state, engines[which], error, 0.1, norm_scale)
        assert bits(got) == bits(expected)
        assert loop_fields(state) == loop_fields(oracle_state)
    # One call per change of engine or of input value: 0.0 and -0.0 are one
    # input, and the outputs above match the oracle's bit for bit.
    changes = [c for k, c in enumerate(oracle_calls) if k == 0 or c != oracle_calls[k - 1]]
    assert calls == changes


def test_a_repeated_input_is_inferred_once_per_engine_swap():
    calls = []
    a = Probe("a", ConstantEngine(0.01, 0.0, 0.0), calls)
    b = Probe("b", ConstantEngine(-0.02, 0.0, 0.0), calls)
    state = PidState(kp=1.0, ki=0.0, kd=0.0)
    for engine in (a, a, a, b, b, a):
        fpid_step(state, engine, 0.0, 0.1, 1.0)
    zero = (0.0, 0.0)
    assert calls == [("a", zero), ("b", zero), ("a", zero)]
    assert state.kp == pytest.approx(1.0 + 4 * 0.01 - 2 * 0.02)  # reuses apply too
    # The sign of a zero is not part of the input: (-0.0, -0.0) and
    # (-0.0, 0.0) reuse the increments of (0.0, 0.0).
    fpid_step(state, a, -0.0, 0.1, 1.0)
    fpid_step(state, a, -0.0, 0.1, 1.0)
    assert calls[3:] == []
    assert state.kp == pytest.approx(1.0 + 6 * 0.01 - 2 * 0.02)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(x=st.floats(-1.0, 1.0))
def test_the_sign_of_a_zero_input_does_not_change_the_increments(x):
    # The loops' memo compares (e, de) by value, taking 0.0 and -0.0 for
    # one input; that is exact only while every engine agrees.
    for engine in _REAL_ENGINES:
        assert bits(*engine.infer(0.0, x)) == bits(*engine.infer(-0.0, x)), engine
        assert bits(*engine.infer(x, 0.0)) == bits(*engine.infer(x, -0.0)), engine


@pytest.mark.parametrize("memo", ["engine", "last_input", "last_deltas"])
def test_the_memo_is_not_a_constructor_parameter(memo):
    with pytest.raises(TypeError):
        PidState(1.0, 0.0, 0.0, **{memo: None})
    state = PidState(1.0, 0.0, 0.0)
    assert (state.engine, state.last_input, state.last_deltas) == (None, None, None)
    assert state == PidState(1.0, 0.0, 0.0) and "last" not in repr(state)


@pytest.mark.parametrize("run_state", ["integral", "prev_error"])
def test_the_run_state_is_not_a_constructor_parameter(run_state):
    with pytest.raises(TypeError):
        PidState(1.0, 0.0, 0.0, **{run_state: 0.5})
    state = PidState(1.0, 0.0, 0.0)
    assert (state.integral, state.prev_error) == (0.0, 0.0)


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

    def watched(state, engine, error, dt, norm_scale, step=fpid.fpid_step):
        derivative = (error - state.prev_error) / dt
        e_n = min(max(error / norm_scale, -1.0), 1.0)
        de_n = min(max(derivative / (norm_scale * fpid.DE_SCALE), -1.0), 1.0)
        key = (engine, (e_n, de_n))
        if last.get(id(state), (None, None))[1] != key:
            changes[type(engine).__name__] += 1
        last[id(state)] = (state, key)  # holding the state keeps its id unique
        return step(state, engine, error, dt, norm_scale)

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
