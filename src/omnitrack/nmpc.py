"""Nonlinear model predictive tracking control.

The optimal control problem minimizes quadratic state and input tracking
costs over a horizon of unicycle prediction steps, subject to box bounds
on the inputs, which are the chassis' speed and yaw-rate limits.  The
inputs are the solver's only unknowns: the states are their rollout
through the discrete dynamics, so every returned trajectory satisfies
those dynamics by construction.  The solver takes Gauss-Newton steps
on the input sequence; bounds are enforced by an active-set pass inside
each step and a projection of each line-search trial, and the projected
gradient (the KKT residual) decides convergence.  Each step solves the Gauss-Newton normal
equations, which are positive definite because every input weight is
positive.  The prediction steps by the sample time that comes with the
reference windows, in :class:`OcpProblem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from omnitrack.kinematics import OMEGA_MAX, V_MAX, BodyVelocity, RobotPose, wrap_angle
from omnitrack.planning import ReferenceTrajectory

ARMIJO_SLOPE = 1e-4
MIN_STEP = 1e-12
# The stop rule: a start converges once its KKT residual is at most
# KKT_TOLERANCE, and stops unconverged after MAX_ITERATIONS steps.
KKT_TOLERANCE = 1e-4
MAX_ITERATIONS = 50


class DimensionMismatchError(Exception):
    """Warm start or reference shapes do not match the horizon."""


@dataclass
class OcpConfig:
    """Horizon and weights: the ``[nmpc]`` keys.

    The input box is not tuned here: it is the chassis' ``V_MAX`` and
    ``OMEGA_MAX``, which ``v_max`` and ``omega_max`` read.  Nor is the
    solver's stop rule, the module's ``KKT_TOLERANCE`` and
    ``MAX_ITERATIONS``.
    """

    horizon: int = 15
    q_diag: tuple[float, float, float] = (15.0, 15.0, 15.0)
    r_diag: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        value = self.horizon
        # A bool, a fraction or a non-finite count is not a count.
        if isinstance(value, (bool, np.bool_)) or not (
            math.isfinite(value) and value == int(value) and value >= 1
        ):
            raise ValueError("horizon must be an integer of at least 1")
        self.horizon = int(value)
        self.q_diag = tuple(float(v) for v in self.q_diag)
        self.r_diag = tuple(float(v) for v in self.r_diag)
        if len(self.q_diag) != 3 or len(self.r_diag) != 2:
            raise ValueError("q_diag must have 3 entries, r_diag 2")
        if not all(0.0 <= v < math.inf for v in self.q_diag):
            raise ValueError("q_diag weights must be non-negative and finite")
        # A zero input weight can leave the Gauss-Newton system singular.
        if not all(0.0 < v < math.inf for v in self.r_diag):
            raise ValueError("r_diag weights must be positive and finite")

    @property
    def v_max(self) -> float:
        """The bound on the speed input, the chassis' ``V_MAX``."""
        return V_MAX

    @property
    def omega_max(self) -> float:
        """The bound on the yaw-rate input, the chassis' ``OMEGA_MAX``."""
        return OMEGA_MAX

    def constants(self, ts: float) -> "_Constants":
        """The arrays this configuration fixes at sample time ts, shared."""
        return _constants(self.horizon, ts, self.q_diag, self.r_diag)


class _Constants(NamedTuple):
    """Input box, square-root weights and the constant Jacobian rows."""

    lower: np.ndarray
    upper: np.ndarray
    sq: np.ndarray
    sr: np.ndarray
    before: np.ndarray  # [k - 1, j]: input j acts before state k
    jac: np.ndarray  # the heading and input rows; the rest is zero


@lru_cache(maxsize=64)
def _constants(horizon, ts, q_diag, r_diag) -> _Constants:
    n = horizon
    lower = np.tile([-V_MAX, -OMEGA_MAX], n)
    sq = np.sqrt(np.asarray(q_diag))
    sr = np.sqrt(np.asarray(r_diag))
    before = np.tri(n, dtype=bool)
    rows = 3 * (n + 1)
    jac = np.zeros((rows + 2 * n, 2 * n))
    blocks = jac[3:rows].reshape(n, 3, n, 2)  # [k - 1, state, j, input]
    blocks[:, 2, :, 1] = sq[2] * np.where(before, ts, 0.0)
    jac[rows:] = np.diag(np.tile(sr, n))
    arrays = _Constants(lower, -lower, sq, sr, before, jac)
    for array in arrays:
        array.flags.writeable = False
    return arrays


@dataclass(eq=False)  # holds arrays, so == compares identity
class OcpProblem:
    """One tracking instance: initial pose plus reference windows sampled every ts."""

    initial_state: RobotPose
    x_ref: np.ndarray
    u_ref: np.ndarray
    ts: float

    def __post_init__(self):
        if not 0.0 < self.ts < math.inf:
            raise ValueError("ts must be positive and finite")
        self.x_ref = np.asarray(self.x_ref, dtype=float)
        self.u_ref = np.asarray(self.u_ref, dtype=float)
        if self.x_ref.ndim != 2 or self.x_ref.shape[1] != 3:
            raise DimensionMismatchError("x_ref must be (horizon + 1, 3)")
        if self.u_ref.ndim != 2 or self.u_ref.shape[1] != 2:
            raise DimensionMismatchError("u_ref must be (horizon, 2)")
        if self.x_ref.shape[0] != self.u_ref.shape[0] + 1:
            raise DimensionMismatchError("x_ref must be one row longer than u_ref")

    @property
    def horizon(self) -> int:
        return self.u_ref.shape[0]


@dataclass(eq=False)  # holds arrays, so == compares identity
class OcpSolution:
    """Inputs (N, 2), the states (N + 1, 3) their rollout visits, and diagnostics."""

    inputs: np.ndarray
    states: np.ndarray
    cost: float
    kkt_residual: float
    iterations: int
    converged: bool


def rollout(x0: np.ndarray, inputs: np.ndarray, ts: float) -> np.ndarray:
    """States visited by the unicycle under an input sequence."""
    x, y, theta = np.asarray(x0, dtype=float).tolist()
    states = [(x, y, theta)]
    for v, omega in np.asarray(inputs, dtype=float).tolist():
        x, y, theta = (
            x + ts * v * math.cos(theta),
            y + ts * v * math.sin(theta),
            wrap_angle(theta + ts * omega),
        )
        states.append((x, y, theta))
    return np.array(states)


def defects(problem: OcpProblem, solution: OcpSolution) -> float:
    """Largest violation of the discrete dynamics along a solution, infinity norm."""
    inputs, states = solution.inputs, solution.states
    worst = np.max(np.abs(states[0] - problem.initial_state.as_array()))
    for k in range(problem.horizon):
        nxt = rollout(states[k], inputs[k : k + 1], problem.ts)[1]
        gap = states[k + 1] - nxt
        gap[2] = wrap_angle(gap[2])
        worst = max(worst, float(np.max(np.abs(gap))))
    return float(worst)


class _Condensed:
    """Residual and Jacobian of the cost as a function of inputs only."""

    def __init__(self, problem: OcpProblem, const: _Constants):
        self.problem = problem
        self.x0 = problem.initial_state.as_array()
        self.sq, self.sr = const.sq, const.sr
        self._before, self._jac = const.before, const.jac

    def residual(self, u_flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.problem.horizon
        inputs = u_flat.reshape(n, 2)
        states = rollout(self.x0, inputs, self.problem.ts)
        ex = states - self.problem.x_ref
        ex[:, 2] = wrap_angle(ex[:, 2])
        r = np.concatenate(
            [(ex * self.sq).ravel(), ((inputs - self.problem.u_ref) * self.sr).ravel()]
        )
        return r, states

    def jacobian(self, u_flat: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Chain-rule sensitivities of all residual rows w.r.t. inputs.

        With the unicycle step, for j < k: d theta_k / d omega_j = ts,
        d (x, y)_k / d v_j = ts (cos, sin) theta_j, and
        d (x, y)_k / d omega_j = sum over j < i < k of
        ts^2 v_i (-sin, cos) theta_i; every other entry is zero.
        """
        n = self.problem.horizon
        ts = self.problem.ts
        theta = states[:n, 2]
        cos, sin = np.cos(theta), np.sin(theta)
        jac = self._jac.copy()
        blocks = jac[3 : 3 * (n + 1)].reshape(n, 3, n, 2)
        sq = self.sq[:2, None]
        drive = sq * (ts * np.array([cos, sin]))
        blocks[:, :2, :, 0] = np.where(self._before[:, None], drive, 0.0)
        # Row j, column m of the running sums adds the turn terms of steps
        # j < i <= m in step order, as the rollout does; state k reads m = k - 1.
        turn = ts * u_flat[0::2] * np.array([-sin, cos]) * ts
        sums = np.cumsum(np.where(~self._before, turn[:, None], 0.0), axis=2)
        blocks[:, :2, :, 1] = (sq[:, None] * sums).transpose(2, 0, 1)
        return jac


def _bounded_gn_step(
    jac: np.ndarray,
    grad: np.ndarray,
    u: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """Gauss-Newton step kept inside the box by pinning violated bounds.

    Each pass solves the normal equations ``H delta = -g`` with
    ``H = J^T J`` and ``g = J^T r``, which the caller has already formed
    for its gradient and passes in as ``grad``.  A pinned input's row and
    column of ``H`` become an identity row and column and its value moves
    to the right-hand side, so every pass solves a system of one shape.
    """
    hess = jac.T @ jac
    pinned = np.zeros(u.size, dtype=bool)
    system, rhs = hess, -grad
    for _ in range(u.size + 1):
        delta = np.linalg.solve(system, rhs)
        trial = u + delta
        viol = ~pinned & ((trial < lower) | (trial > upper))
        if not viol.any():
            break
        delta[viol] = np.clip(trial[viol], lower[viol], upper[viol]) - u[viol]
        pinned |= viol
        fixed = np.where(pinned, delta, 0.0)
        system = np.where(pinned[:, None] | pinned, 0.0, hess)
        system[pinned, pinned] = 1.0
        rhs = np.where(pinned, fixed, -grad - hess @ fixed)
    return delta


def _kkt_residual(
    grad: np.ndarray, u: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> float:
    """Infinity norm of the projected gradient over the box."""
    res = np.abs(grad)
    at_lower = u <= lower
    at_upper = u >= upper
    res[at_lower] = np.maximum(0.0, -grad[at_lower])
    res[at_upper] = np.maximum(0.0, grad[at_upper])
    return float(res.max())


def _steer_guess(problem: OcpProblem) -> np.ndarray:
    """Turn-then-drive input guess aimed at the end of the window.

    Pure lateral displacements with aligned headings make the reference
    rollout a stationary point of the condensed cost (moving sideways
    needs a turn whose benefit is invisible to first order), so a second
    start that commits to the turn lets the solver escape it.
    """
    n = problem.horizon
    x0 = problem.initial_state.as_array()
    target = problem.x_ref[-1]
    dx, dy = target[0] - x0[0], target[1] - x0[1]
    dist = math.hypot(dx, dy)
    bearing = math.atan2(dy, dx) if dist > 1e-9 else target[2]
    turn = wrap_angle(bearing - x0[2])
    ts = problem.ts
    turn_steps = min(n, max(1, math.ceil(abs(turn) / (OMEGA_MAX * ts))))
    guess = np.zeros((n, 2))
    guess[:turn_steps, 1] = turn / (turn_steps * ts)
    if turn_steps < n:
        guess[turn_steps:, 0] = dist / ((n - turn_steps) * ts)
    return guess.ravel()


def solve(
    problem: OcpProblem, config: OcpConfig, warm_start: np.ndarray | None = None
) -> OcpSolution:
    """Solve one tracking instance.

    With a warm start the iteration begins there; otherwise two starts
    are tried (the reference inputs and a turn-then-drive guess) and the
    cheaper solution wins.  Starts are clipped into the box.  Iterations
    stop at ``KKT_TOLERANCE`` or after ``MAX_ITERATIONS``; in the latter
    case the best iterate is still returned with ``converged`` False.
    """
    n = problem.horizon
    if config.horizon != n:
        raise DimensionMismatchError("problem horizon does not match config")
    const = config.constants(problem.ts)
    if warm_start is not None:
        start = np.asarray(warm_start, dtype=float).reshape(-1)
        if start.size != 2 * n:
            raise DimensionMismatchError("warm start must hold horizon inputs")
        starts = [start]
    else:
        starts = [problem.u_ref.ravel(), _steer_guess(problem)]

    best = None
    total_iterations = 0
    for start in starts:
        start = np.clip(start, const.lower, const.upper)
        solution = _solve_from(problem, const, start)
        total_iterations += solution.iterations
        if best is None or solution.cost < best.cost:
            best = solution
        if best.cost <= 1e-9:
            break  # an (almost) exact fit cannot be improved
    best.iterations = total_iterations
    return best


def _solve_from(problem: OcpProblem, const: _Constants, u: np.ndarray) -> OcpSolution:
    lower, upper = const.lower, const.upper
    model = _Condensed(problem, const)
    r, states = model.residual(u)
    cost = float(r @ r)
    iterations = 0

    while True:
        jac = model.jacobian(u, states)
        jac_r = jac.T @ r
        grad = 2.0 * jac_r
        kkt = _kkt_residual(grad, u, lower, upper)
        if kkt <= KKT_TOLERANCE or iterations == MAX_ITERATIONS:
            break
        iterations += 1
        delta = _bounded_gn_step(jac, jac_r, u, lower, upper)
        slope = float(grad @ delta)
        if slope >= 0.0:
            # Fall back to a projected gradient direction.
            delta = np.clip(u - grad, lower, upper) - u
            slope = float(grad @ delta)
            if slope >= 0.0:
                break
        alpha = 1.0
        while alpha >= MIN_STEP:
            # u + delta can round an ulp past the bound a pinned input was
            # moved to, so each trial is put back into the box.
            trial = np.clip(u + alpha * delta, lower, upper)
            r_trial, states_trial = model.residual(trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial <= cost + ARMIJO_SLOPE * alpha * slope:
                u, r, states, cost = trial, r_trial, states_trial, cost_trial
                break
            alpha *= 0.5
        else:
            break  # no acceptable step; report current iterate

    return OcpSolution(
        inputs=u.reshape(-1, 2),
        states=states,
        cost=cost,
        kkt_residual=kkt,
        iterations=iterations,
        converged=kkt <= KKT_TOLERANCE,
    )


def reference_window(
    trajectory: ReferenceTrajectory, k: int, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reference slice [k, k + horizon], padded by holding the final pose.

    Past the trajectory end the pose reference repeats the last row and
    the input reference is zero, so the horizon smoothly parks the robot.
    """
    n = len(trajectory)
    if not 0 <= k < n:
        raise IndexError(f"step {k} outside trajectory of length {n}")
    idx = np.minimum(np.arange(k, k + horizon + 1), n - 1)
    x_ref = trajectory.poses[idx].copy()
    u_idx = idx[:-1]
    u_ref = np.column_stack(
        [trajectory.v_ref[u_idx], trajectory.omega_ref[u_idx]]
    )
    padded = u_idx >= n - 1
    u_ref[padded] = 0.0
    return x_ref, u_ref


class NmpcController:
    """Receding-horizon wrapper around :func:`solve`.

    Keeps the previous solution to warm start the next step (shift by
    one, repeat the last input) and exposes per-step diagnostics for the
    run log.  One instance per episode; not reentrant.
    """

    def __init__(self, config: OcpConfig | None = None):
        self.config = config if config is not None else OcpConfig()
        self.last_solution: OcpSolution | None = None

    def command(
        self, robot: RobotPose, trajectory: ReferenceTrajectory, k: int
    ) -> BodyVelocity:
        """Solve from the current pose and emit the first input.

        The unicycle's speed acts along the heading the robot will hold
        during the step, so the global command points along the predicted
        next heading.
        """
        cfg = self.config
        x_ref, u_ref = reference_window(trajectory, k, cfg.horizon)
        problem = OcpProblem(robot, x_ref, u_ref, trajectory.ts)
        warm = None
        if self.last_solution is not None:
            prev = self.last_solution.inputs
            warm = np.vstack([prev[1:], prev[-1:]]).ravel()
        solution = solve(problem, cfg, warm_start=warm)
        self.last_solution = solution
        v, omega = solution.inputs[0]
        psi = solution.states[1, 2]
        return BodyVelocity(v * math.cos(psi), v * math.sin(psi), omega)
