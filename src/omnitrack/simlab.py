"""Closed-loop simulation lab: episodes, noise, metrics, sweeps.

The plant is ideal kinematics: each commanded global-frame velocity is
integrated for one step as it is, and the wheel rates that realize it at
the step's starting heading are logged beside it.  Measurement noise,
when enabled, corrupts only the pose fed to the controller; metrics are
computed on the true pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from omnitrack.fpid import FpidConfig, FpidIt2Config, FuzzyPidController
from omnitrack.kinematics import (
    RobotPose,
    forward_kinematics,  # not called here; perfbench/tracer.py patches this name
    integrate_pose,
    inverse_kinematics,
    wrap_angle,
)
from omnitrack.nmpc import NmpcController, OcpConfig
from omnitrack.planning import ReferenceTrajectory, sample_count, write_csv

# Each controller id and the config class it is tuned by.
CONTROLLER_IDS = {"fpid-t1": FpidConfig, "fpid-it2": FpidIt2Config, "nmpc": OcpConfig}

RUN_HEADER_BASE = [
    "n", "t",
    "x_ref", "y_ref", "theta_ref",
    "x", "y", "theta",
    "x_meas", "y_meas", "theta_meas",
    "vx_cmd", "vy_cmd", "omega_cmd",
    "phi1", "phi2", "phi3", "phi4",
]
RUN_HEADER_SOLVER = RUN_HEADER_BASE + ["cost", "iters", "kkt"]

STEP_DURATION = 10.0
STEP_AXES = ("x", "y", "theta")

# The noise draw's divisor and the time scale of its sine envelope.
NOISE_DIVISOR = 6.0
NOISE_TIME_SCALE = 5.0


@dataclass
class NoiseModel:
    """Feedback-path noise: uniform draw scaled by a slow sine envelope.

    Each pose channel gets an independent draw from [0, 1) divided by
    ``NOISE_DIVISOR`` and multiplied by sin(n * ts / NOISE_TIME_SCALE).
    """

    def sample(self, n: int, ts: float, rng: np.random.Generator) -> np.ndarray:
        draw = rng.random(3) / NOISE_DIVISOR
        return draw * math.sin(n * ts / NOISE_TIME_SCALE)


@dataclass(eq=False)  # holds arrays, so == compares identity
class EpisodeLog:
    """Per-step arrays recorded by :func:`run_episode`."""

    ts: float
    reference: np.ndarray
    true_pose: np.ndarray
    measured: np.ndarray
    command: np.ndarray
    wheels: np.ndarray
    solver: np.ndarray | None = None  # columns: cost, iterations, kkt

    def __len__(self) -> int:
        return self.reference.shape[0]

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self)) * self.ts


@dataclass
class Episode:
    """Specification of one closed-loop run; ``log`` is filled on run.

    The controller id must be a key of ``CONTROLLER_IDS``, and the config
    an instance of that id's class; built without one, the episode holds
    the class's defaults.  Either mistake raises ValueError.
    """

    trajectory: ReferenceTrajectory
    controller: str
    controller_config: object = None
    noise: NoiseModel | None = None
    seed: int = 0
    initial_pose: RobotPose | None = None
    log: EpisodeLog | None = field(default=None, init=False)

    def __post_init__(self):
        cls = CONTROLLER_IDS.get(self.controller)
        if cls is None:
            raise ValueError(f"unknown controller '{self.controller}'")
        if self.controller_config is None:
            self.controller_config = cls()
        elif not isinstance(self.controller_config, cls):
            raise ValueError(f"controller '{self.controller}' takes an {cls.__name__}")


def run_episode(episode: Episode) -> Episode:
    """Run the closed loop over the episode's reference; fills the log.

    Record n holds the state at time n * ts, the command the plant
    integrates over the following step and the wheel rates that realize
    it at the heading of record n.  Every controller is called the same
    way, as ``command(measured, trajectory, n)``; an ``nmpc`` episode also
    logs its ``last_solution`` in the solver columns.  The controller is
    built from the episode's config, whose class picks a fuzzy PID's
    engine.  The same seed reproduces the run bit for bit.
    """
    traj = episode.trajectory
    n_steps = len(traj)
    # Only noise draws from the generator; building it imports numpy.random.
    rng = np.random.default_rng(episode.seed) if episode.noise is not None else None
    cfg = episode.controller_config
    ctrl = NmpcController(cfg) if episode.controller == "nmpc" else FuzzyPidController(cfg)
    pose = episode.initial_pose or RobotPose(*traj.poses[0])

    reference = traj.poses.copy()
    true_pose = np.empty((n_steps, 3))
    # With noise off the controller is fed the true pose itself.
    measured = true_pose if episode.noise is None else np.empty((n_steps, 3))
    command = np.empty((n_steps, 3))
    wheels = np.empty((n_steps, 4))
    solver = np.empty((n_steps, 3)) if episode.controller == "nmpc" else None

    for n in range(n_steps):
        true_pose[n] = pose.x, pose.y, pose.theta
        meas = pose
        if episode.noise is not None:
            noise = episode.noise.sample(n, traj.ts, rng)
            meas = RobotPose(pose.x + noise[0], pose.y + noise[1], pose.theta + noise[2])
            measured[n] = meas.x, meas.y, meas.theta
        cmd = ctrl.command(meas, traj, n)
        if solver is not None:
            sol = ctrl.last_solution
            solver[n] = (sol.cost, sol.iterations, sol.kkt_residual)

        command[n] = cmd.vx, cmd.vy, cmd.omega
        wheels[n] = inverse_kinematics(cmd, pose.theta)

        pose = integrate_pose(pose, cmd, traj.ts)

    episode.log = EpisodeLog(
        ts=traj.ts,
        reference=reference,
        true_pose=true_pose,
        measured=measured,
        command=command,
        wheels=wheels,
        solver=solver,
    )
    return episode


@dataclass(frozen=True)
class TrackingMetrics:
    """Mean tracking errors of one episode (true pose versus reference)."""

    me_xy: float
    mae_theta: float


def tracking_metrics(log: EpisodeLog) -> TrackingMetrics:
    dx = log.reference[:, 0] - log.true_pose[:, 0]
    dy = log.reference[:, 1] - log.true_pose[:, 1]
    dth = wrap_angle(log.reference[:, 2] - log.true_pose[:, 2])
    return TrackingMetrics(
        me_xy=float(np.mean(np.hypot(dx, dy))),
        mae_theta=float(np.mean(np.abs(dth))),
    )


@dataclass(frozen=True)
class StepMetrics:
    """Classic step-response characteristics; undefined values are None."""

    overshoot_pct: float
    rise_time: float | None
    settling_time: float | None


def _first_crossing(t: np.ndarray, y: np.ndarray, level: float, rising: bool):
    """Linearly interpolated first time y crosses the level."""
    above = y >= level if rising else y <= level
    if not above.any():
        return None
    i = int(np.argmax(above))
    if i == 0:
        return float(t[0])
    frac = (level - y[i - 1]) / (y[i] - y[i - 1])
    return float(t[i - 1] + frac * (t[i] - t[i - 1]))


def step_metrics(t: np.ndarray, y: np.ndarray, target: float) -> StepMetrics:
    """Overshoot, 10-90% rise time and 10% settling time of a series.

    Crossings are linearly interpolated between samples.  Rise or
    settling come back None when the series never crosses 90% or never
    stays inside the band.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or t.size < 2:
        raise ValueError("t and y must be equal-length series of 2 or more")
    y0 = y[0]
    size = target - y0
    if size == 0.0:
        raise ValueError("step size must be nonzero")
    rising = size > 0.0

    peak = float(np.max(y - target)) if rising else float(np.max(target - y))
    overshoot = float(max(0.0, peak / abs(size)) * 100.0)

    t10 = _first_crossing(t, y, y0 + 0.1 * size, rising)
    t90 = _first_crossing(t, y, y0 + 0.9 * size, rising)
    rise = t90 - t10 if t10 is not None and t90 is not None else None

    band = 0.1 * abs(size)
    outside = np.abs(y - target) > band
    if outside[-1]:
        settling = None
    elif not outside.any():
        settling = float(t[0])
    else:
        i = int(np.where(outside)[0][-1])
        edge = np.abs(y[i] - target)
        nxt = np.abs(y[i + 1] - target)
        frac = (edge - band) / (edge - nxt)
        settling = float(t[i] + frac * (t[i + 1] - t[i]))
    return StepMetrics(overshoot_pct=overshoot, rise_time=rise, settling_time=settling)


def _constant_trajectory(target: RobotPose, duration: float, ts: float) -> ReferenceTrajectory:
    n = sample_count(duration, ts)
    poses = np.tile(target.as_array(), (n, 1))
    return ReferenceTrajectory(ts, poses, np.zeros(n), np.zeros(n))


def run_step_response(
    controller: str, controller_config: object = None, ts: float = 0.1
) -> dict[str, tuple[StepMetrics, Episode]]:
    """Unit step on each axis from rest at the origin, for STEP_DURATION s.

    Targets are (1, 0, 0), (0, 1, 0) and (0, 0, 1 rad); the response is
    the matching true-pose component.  Returns per-axis metrics with the
    finished episode for plotting.  ts must lie in (0, STEP_DURATION].
    """
    if not 0.0 < ts <= STEP_DURATION:
        raise ValueError(f"ts must lie in (0, {STEP_DURATION}] for a step response")
    targets = {
        "x": RobotPose(1.0, 0.0, 0.0),
        "y": RobotPose(0.0, 1.0, 0.0),
        "theta": RobotPose(0.0, 0.0, 1.0),
    }
    results = {}
    for axis, target in targets.items():
        traj = _constant_trajectory(target, STEP_DURATION, ts)
        episode = Episode(
            trajectory=traj,
            controller=controller,
            controller_config=controller_config,
            noise=None,
            seed=0,
            initial_pose=RobotPose(0.0, 0.0, 0.0),
        )
        run_episode(episode)
        series = episode.log.true_pose[:, STEP_AXES.index(axis)]
        results[axis] = (step_metrics(episode.log.times, series, 1.0), episode)
    return results


def horizon_sweep(
    template: Episode, horizons: list[int]
) -> list[tuple[int, TrackingMetrics]]:
    """Tracking metrics of the predictive controller per horizon length.

    The template is an ``nmpc`` episode that fixes everything but the
    horizon: trajectory, noise, seed and its ``OcpConfig``.  Each horizon
    runs a copy of it; the template itself is left as it was.
    """
    rows = []
    for horizon in horizons:
        cfg = replace(template.controller_config, horizon=horizon)
        episode = run_episode(replace(template, controller_config=cfg))
        rows.append((cfg.horizon, tracking_metrics(episode.log)))
    return rows


def write_run_csv(log: EpisodeLog, path) -> None:
    """Write one episode's log; floats keep full round-trip precision."""
    blocks = [log.reference, log.true_pose, log.measured, log.command, log.wheels]
    header = RUN_HEADER_BASE
    if log.solver is not None:
        blocks.append(log.solver)
        header = RUN_HEADER_SOLVER
    columns = [column for block in blocks for column in block.T]
    write_csv(path, header, [range(len(log)), log.times, *columns])


def write_metrics_csv(
    results: list[tuple[str, TrackingMetrics]],
    path,
    scenario: str,
    tracking_time: float,
    noise: bool = False,
) -> None:
    """Write one scenario's tracking metrics, a row per (controller id, metrics).

    A noisy scenario's table gains a ``noise`` column.
    """
    header = ["controller", "scenario", "tracking_time", "me_xy", "mae_theta"]
    flag = ["true"] if noise else []
    table = ([cid, scenario, tracking_time, m.me_xy, m.mae_theta] + flag for cid, m in results)
    write_csv(path, header + (["noise"] if noise else []), zip(*table))


def write_step_csv(
    results: list[tuple[str, dict[str, tuple[StepMetrics, Episode]]]], path
) -> None:
    """Write step-response characteristics, a row per controller and axis.

    results pairs each controller id with what :func:`run_step_response`
    returned for it.  Empty fields mean undefined.
    """
    rows = (
        [cid, axis, m.overshoot_pct, m.rise_time, m.settling_time]
        for cid, per_axis in results
        for axis, (m, _) in per_axis.items()
    )
    table = (["" if v is None else v for v in row] for row in rows)
    header = ["controller", "axis", "overshoot_pct", "rise_time", "settling_time"]
    write_csv(path, header, zip(*table))


def write_horizon_csv(rows: list[tuple[int, TrackingMetrics]], path) -> None:
    table = ([horizon, m.me_xy, m.mae_theta] for horizon, m in rows)
    write_csv(path, ["horizon", "me_xy", "mae_theta"], zip(*table))
