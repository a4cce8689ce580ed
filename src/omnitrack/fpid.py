"""Self-tuning fuzzy PID trajectory tracking.

Two independent PID loops chase the reference pose of the current step:
a distance loop turns the range to that target into a speed command and
a heading loop turns the heading error into a yaw rate.  Each loop's
gains start at a module constant and are nudged every step by a fuzzy
engine fed the normalized error and error rate, then clamped to
[0, K_MAX].  The speed command is emitted along the line of sight to
the target, in the global frame.  The controller is called as the
predictive one is, with the measured pose, the reference trajectory and
the step index, and steps by the trajectory's sample time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from omnitrack.fuzzy import GainDeltas, Type1Engine, Type2Engine, check_footprint
from omnitrack.kinematics import OMEGA_MAX, V_MAX, BodyVelocity, RobotPose, wrap_angle
from omnitrack.planning import ReferenceTrajectory

# Each loop's error range, the error rate's extra divisor, and the range
# to the target inside which the speed command is zero.
DISTANCE_NORM = 1.0
HEADING_NORM = math.pi
DE_SCALE = 10.0
DISTANCE_THRESHOLD = 0.01
# The bound of every scheduled gain, and of each integrator's magnitude.
K_MAX = 10.0
I_MAX = 1.0
# Each loop's starting (kp, ki, kd), which the fuzzy engine then schedules.
DISTANCE_GAINS = (1.0, 0.0, 0.1)
HEADING_GAINS = (2.0, 0.0, 0.1)


@dataclass
class PidState:
    """Gains plus integrator and previous error of one PID loop.

    The gains start in [0, K_MAX]; the integrator and previous error
    start at zero.  The last three fields remember the loop's last engine
    call: the engine, its normalized input and the increments it
    returned, a memo outside the PID law.  None of these five is a
    constructor parameter.
    """

    kp: float
    ki: float
    kd: float
    integral: float = field(default=0.0, init=False)
    prev_error: float = field(default=0.0, init=False)
    engine: object = field(default=None, init=False, repr=False, compare=False)
    last_input: tuple[float, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    last_deltas: GainDeltas | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for g in (self.kp, self.ki, self.kd):
            if not 0.0 <= g <= K_MAX:
                raise ValueError(f"initial gains must lie in [0, {K_MAX:g}]")


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
) -> float:
    """One self-tuning PID update; mutates state, returns the output.

    The engine sees the error and its rate normalized into [-1, 1] (the
    rate additionally divided by DE_SCALE) and returns gain increments,
    which are applied before the PID law is evaluated.  An engine is a
    pure function of that pair, so while the pair repeats and the engine
    is the same object, the loop reuses the increments of its last call
    instead of asking again.  The pair compares by value: both engines
    return the same increments for 0.0 as for -0.0.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if not norm_scale > 0.0:
        raise ValueError("norm_scale must be positive")
    derivative = (error - state.prev_error) / dt
    e_n = min(max(error / norm_scale, -1.0), 1.0)
    de_n = min(max(derivative / (norm_scale * DE_SCALE), -1.0), 1.0)
    pair = (e_n, de_n)
    if engine is not state.engine or pair != state.last_input:
        state.last_deltas = engine.infer(e_n, de_n)
        state.engine, state.last_input = engine, pair
    dkp, dki, dkd = state.last_deltas
    state.kp = min(max(state.kp + dkp, 0.0), K_MAX)
    state.ki = min(max(state.ki + dki, 0.0), K_MAX)
    state.kd = min(max(state.kd + dkd, 0.0), K_MAX)
    state.integral = min(max(state.integral + error * dt, -I_MAX), I_MAX)
    output = state.kp * error + state.ki * state.integral + state.kd * derivative
    state.prev_error = error
    return output


@dataclass
class FpidConfig:
    """The ``[fpid-t1]`` section, which takes no keys: a controller built
    from one runs the type-1 engine.  The starting gains and the gain and
    integrator bounds are module constants."""


@dataclass
class FpidIt2Config:
    """The ``[fpid-it2]`` keys: the type-2 engine's footprint.

    A controller built from one runs a ``Type2Engine`` of this footprint.
    """

    fou_height_scale: float = 1.0
    fou_lag: float = 0.3

    def __post_init__(self):
        try:
            check_footprint(self.fou_height_scale, self.fou_lag)
        except ValueError as err:
            raise ValueError(f"fou_{err}") from None  # the message names the argument


class FuzzyPidController:
    """Two-loop self-tuning fuzzy PID tracker.

    Holds mutable loop state across steps; one instance per episode.
    Each loop starts from its module gains (``DISTANCE_GAINS``,
    ``HEADING_GAINS``).  The config is required, and its class picks the
    engine: an ``FpidIt2Config`` builds a ``Type2Engine`` of its
    footprint and an ``FpidConfig`` a ``Type1Engine``.  An injected
    engine replaces it (a stub that returns zero increments reduces the
    controller to fixed-gain PID).
    An injected engine must be a pure function of its (e, de) input: each
    loop calls ``engine.infer`` only when its input changes and reuses the
    last increments while it repeats, so an engine that keeps state (one
    that adapts, counts or logs its calls) sees fewer calls than steps.
    """

    def __init__(self, config: FpidConfig | FpidIt2Config, engine=None):
        self.config = config
        if engine is not None:
            self.engine = engine
        elif isinstance(config, FpidIt2Config):
            self.engine = Type2Engine(config.fou_height_scale, config.fou_lag)
        else:
            self.engine = Type1Engine()
        self.distance = PidState(*DISTANCE_GAINS)
        self.heading = PidState(*HEADING_GAINS)

    def command(
        self, robot: RobotPose, trajectory: ReferenceTrajectory, k: int
    ) -> BodyVelocity:
        """Velocity command driving the robot toward reference pose k.

        Takes the arguments of ``NmpcController.command``: the target is
        row k of the trajectory and each loop steps by its sample time.
        A step k outside [0, len(trajectory)) raises ``IndexError``.  The
        speed follows the line of sight to the target in the global
        frame, the frame the plant integrates, whatever the robot's
        heading; inside DISTANCE_THRESHOLD there is no line of sight to
        follow and the speed is zero.  The chassis' limits bound the
        speed along that line to [0, V_MAX] and the yaw rate to
        [-OMEGA_MAX, OMEGA_MAX].
        """
        n = len(trajectory)
        if not 0 <= k < n:
            raise IndexError(f"step {k} outside trajectory of length {n}")
        dt = trajectory.ts
        err = compute_errors(robot, RobotPose(*trajectory.poses[k]))
        v = fpid_step(self.distance, self.engine, err.dr, dt, DISTANCE_NORM)
        omega = fpid_step(self.heading, self.engine, err.e_theta, dt, HEADING_NORM)
        omega = min(max(omega, -OMEGA_MAX), OMEGA_MAX)
        if err.dr < DISTANCE_THRESHOLD:
            return BodyVelocity(0.0, 0.0, omega)
        v = min(max(v, 0.0), V_MAX)
        return BodyVelocity(v * err.e_x / err.dr, v * err.e_y / err.dr, omega)
