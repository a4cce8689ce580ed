"""Self-tuning fuzzy PID trajectory tracking.

Two independent PID loops chase the reference: a distance loop turns the
range to the target pose into a speed command and a heading loop turns
the heading error into a yaw rate.  Each loop's gains are nudged every
step by a fuzzy engine fed the normalized error and error rate, then
clamped to [0, k_max].  The speed command is emitted along the line of
sight to the target, in the global frame.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

from omnitrack.fuzzy import GainDeltas, Type1Engine, check_footprint
from omnitrack.kinematics import BodyVelocity, RobotPose, wrap_angle

DISTANCE_THRESHOLD = 0.01

# The bytes of a normalized (e, de) pair: equal bytes are the same input
# to an engine, and 0.0 and -0.0 differ.
_PAIR = struct.Struct("dd")


@dataclass
class PidState:
    """Gains plus integrator and previous error of one PID loop.

    The last three fields remember the loop's last engine call: the
    engine, the bytes of its normalized input and the increments it
    returned.  They are a memo, not part of the PID law, so they are not
    constructor parameters: every state starts with an empty memo.
    """

    kp: float
    ki: float
    kd: float
    k_max: float = 10.0
    i_max: float = 1.0
    integral: float = 0.0
    prev_error: float = 0.0
    engine: object = field(default=None, init=False, repr=False, compare=False)
    last_input: bytes | None = field(default=None, init=False, repr=False, compare=False)
    last_deltas: GainDeltas | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not self.k_max > 0.0 or not self.i_max > 0.0:
            raise ValueError("k_max and i_max must be positive")
        for g in (self.kp, self.ki, self.kd):
            if not 0.0 <= g <= self.k_max:
                raise ValueError("initial gains must lie in [0, k_max]")


@dataclass(frozen=True)
class TrackError:
    """Errors between the robot pose and the current reference pose."""

    e_x: float
    e_y: float
    dr: float
    e_theta: float


def compute_errors(robot: RobotPose, target: RobotPose) -> TrackError:
    """Position error, range and wrapped heading error from robot to target."""
    e_x = target.x - robot.x
    e_y = target.y - robot.y
    e_theta = wrap_angle(target.theta - robot.theta)
    return TrackError(e_x, e_y, math.hypot(e_x, e_y), e_theta)


def fpid_step(
    state: PidState,
    engine,
    error: float,
    dt: float,
    norm_scale: float,
    de_scale: float = 10.0,
) -> float:
    """One self-tuning PID update; mutates state, returns the output.

    The engine sees the error and its rate normalized into [-1, 1] (the
    rate additionally divided by de_scale) and returns gain increments,
    which are applied before the PID law is evaluated.  An engine is a
    pure function of that pair, so while the pair repeats bit for bit
    and the engine is the same object, the loop reuses the increments
    of its last call instead of asking again.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if not norm_scale > 0.0:
        raise ValueError("norm_scale must be positive")
    if not de_scale > 0.0:
        raise ValueError("de_scale must be positive")
    derivative = (error - state.prev_error) / dt
    e_n = min(max(error / norm_scale, -1.0), 1.0)
    de_n = min(max(derivative / (norm_scale * de_scale), -1.0), 1.0)
    key = _PAIR.pack(e_n, de_n)
    if engine is not state.engine or key != state.last_input:
        state.last_deltas = engine.infer(e_n, de_n)
        state.engine, state.last_input = engine, key
    dkp, dki, dkd = state.last_deltas
    state.kp = min(max(state.kp + dkp, 0.0), state.k_max)
    state.ki = min(max(state.ki + dki, 0.0), state.k_max)
    state.kd = min(max(state.kd + dkd, 0.0), state.k_max)
    state.integral = min(max(state.integral + error * dt, -state.i_max), state.i_max)
    output = state.kp * error + state.ki * state.integral + state.kd * derivative
    state.prev_error = error
    return output


@dataclass
class FpidConfig:
    """Tuning knobs of the two-loop controller (see README for the file form)."""

    dist_kp: float = 1.0
    dist_ki: float = 0.0
    dist_kd: float = 0.1
    head_kp: float = 2.0
    head_ki: float = 0.0
    head_kd: float = 0.1
    k_max: float = 10.0
    i_max: float = 1.0
    dist_norm: float = 1.0
    head_norm: float = math.pi
    de_scale: float = 10.0
    threshold: float = DISTANCE_THRESHOLD
    v_max: float = 1.5
    omega_max: float = 3.14
    fou_height_scale: float = 1.0
    fou_lag: float = 0.3

    def __post_init__(self):
        if not self.v_max > 0.0 or not self.omega_max > 0.0:
            raise ValueError("velocity bounds must be positive")
        for name in ("dist_norm", "head_norm", "de_scale"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.threshold < math.inf:
            raise ValueError("threshold must be non-negative and finite")
        if not (0.0 < self.k_max < math.inf and 0.0 < self.i_max < math.inf):
            raise ValueError("k_max and i_max must be positive and finite")
        gains = ("dist_kp", "dist_ki", "dist_kd", "head_kp", "head_ki", "head_kd")
        for name in gains:
            if not 0.0 <= getattr(self, name) <= self.k_max:
                raise ValueError(f"{name} must lie in [0, k_max]")
        try:
            check_footprint(self.fou_height_scale, self.fou_lag)
        except ValueError as err:
            raise ValueError(f"fou_{err}") from None  # the message names the argument


class FuzzyPidController:
    """Two-loop self-tuning fuzzy PID tracker.

    Holds mutable loop state across steps; one instance per episode.
    The engine is type-1 unless one is injected (a type-2 engine, or a
    stub that returns zero increments, which reduces it to fixed-gain PID).
    An injected engine must be a pure function of its (e, de) input: each
    loop calls ``engine.infer`` only when its input changes and reuses the
    last increments while it repeats, so an engine that keeps state (one
    that adapts, counts or logs its calls) sees fewer calls than steps.
    """

    def __init__(self, config: FpidConfig | None = None, engine=None):
        self.config = config if config is not None else FpidConfig()
        self.engine = engine if engine is not None else Type1Engine()
        cfg = self.config
        self.distance = PidState(
            cfg.dist_kp, cfg.dist_ki, cfg.dist_kd, cfg.k_max, cfg.i_max
        )
        self.heading = PidState(
            cfg.head_kp, cfg.head_ki, cfg.head_kd, cfg.k_max, cfg.i_max
        )

    def command(self, robot: RobotPose, target: RobotPose, dt: float) -> BodyVelocity:
        """Velocity command driving the robot toward the target pose.

        The speed follows the line of sight to the target in the global
        frame, the frame the plant integrates, whatever the robot's
        heading; inside the threshold range there is no line of sight to
        follow and the speed is zero.
        """
        cfg = self.config
        err = compute_errors(robot, target)
        v = fpid_step(
            self.distance, self.engine, err.dr, dt, cfg.dist_norm, cfg.de_scale
        )
        omega = fpid_step(
            self.heading, self.engine, err.e_theta, dt, cfg.head_norm, cfg.de_scale
        )
        omega = min(max(omega, -cfg.omega_max), cfg.omega_max)
        if err.dr < cfg.threshold or err.dr == 0.0:  # a zero threshold still needs a range
            return BodyVelocity(0.0, 0.0, omega)
        v = min(max(v, 0.0), cfg.v_max)
        return BodyVelocity(v * err.e_x / err.dr, v * err.e_y / err.dr, omega)
