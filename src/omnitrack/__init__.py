"""Trajectory-tracking control laboratory for a four-wheel omni robot.

The package splits into small, composable layers:

- :mod:`omnitrack.kinematics` — the fixed chassis's limits, its wheel/body
  velocity maps and pose integration.
- :mod:`omnitrack.planning` — occupancy grids, A* search, B-spline smoothing
  and arc-length-uniform reference sampling.
- :mod:`omnitrack.fuzzy` — type-1 and interval type-2 Mamdani engines that
  emit PID gain increments from a 49-rule table.
- :mod:`omnitrack.fpid` — the two-loop self-tuning fuzzy PID controller.
- :mod:`omnitrack.nmpc` — receding-horizon optimal tracking via a
  Gauss-Newton SQP on the unicycle prediction model.
- :mod:`omnitrack.simlab` — deterministic closed-loop episodes, noise
  injection, tracking/step metrics and CSV logs.
- :mod:`omnitrack.cli` — the ``omnitrack`` command (plan/track/step/horizon).
"""

from omnitrack.kinematics import (
    WHEEL_MATRIX,
    BodyVelocity,
    RobotPose,
    forward_kinematics,
    integrate_pose,
    inverse_kinematics,
    wrap_angle,
)
from omnitrack.planning import (
    GridPath,
    InvalidCellError,
    NoPathError,
    OccupancyGrid,
    PlanningError,
    ReferenceTrajectory,
    SmoothPath,
    astar,
    load_grid,
    plan_reference,
    sample_reference,
    smooth,
    write_trajectory_csv,
)
from omnitrack.fuzzy import (
    GainDeltas,
    Type1Engine,
    Type2Engine,
    km_centroid,
)
from omnitrack.fpid import (
    FpidConfig,
    FpidIt2Config,
    FuzzyPidController,
    PidState,
    TrackError,
    compute_errors,
    fpid_step,
)
from omnitrack.nmpc import (
    NmpcController,
    OcpConfig,
    OcpProblem,
    OcpSolution,
    reference_window,
    solve,
)
from omnitrack.simlab import (
    Episode,
    EpisodeLog,
    NoiseModel,
    StepMetrics,
    TrackingMetrics,
    horizon_sweep,
    run_episode,
    run_step_response,
    step_metrics,
    tracking_metrics,
)

__all__ = [
    "WHEEL_MATRIX",
    "BodyVelocity",
    "RobotPose",
    "forward_kinematics",
    "integrate_pose",
    "inverse_kinematics",
    "wrap_angle",
    "GridPath",
    "InvalidCellError",
    "NoPathError",
    "OccupancyGrid",
    "PlanningError",
    "ReferenceTrajectory",
    "SmoothPath",
    "astar",
    "load_grid",
    "plan_reference",
    "sample_reference",
    "smooth",
    "write_trajectory_csv",
    "GainDeltas",
    "Type1Engine",
    "Type2Engine",
    "km_centroid",
    "FpidConfig",
    "FpidIt2Config",
    "FuzzyPidController",
    "PidState",
    "TrackError",
    "compute_errors",
    "fpid_step",
    "NmpcController",
    "OcpConfig",
    "OcpProblem",
    "OcpSolution",
    "reference_window",
    "solve",
    "Episode",
    "EpisodeLog",
    "NoiseModel",
    "StepMetrics",
    "TrackingMetrics",
    "horizon_sweep",
    "run_episode",
    "run_step_response",
    "step_metrics",
    "tracking_metrics",
]

__version__ = "0.1.0"
