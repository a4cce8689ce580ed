import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnitrack import nmpc
from omnitrack.kinematics import OMEGA_MAX, V_MAX, RobotPose, integrate_pose, wrap_angle
from omnitrack.nmpc import (
    DimensionMismatchError,
    NmpcController,
    OcpConfig,
    OcpProblem,
    defects,
    reference_window,
    rollout,
    solve,
    _bounded_gn_step,
    _Condensed,
)
from omnitrack.planning import ReferenceTrajectory
from omnitrack.simlab import _constant_trajectory


# ---------------------------------------------------- reference helpers


def predict(pose, u, ts):
    """One explicit Euler step of the unicycle model, the rollout's oracle."""
    v, omega = float(u[0]), float(u[1])
    return RobotPose(
        pose.x + ts * v * math.cos(pose.theta),
        pose.y + ts * v * math.sin(pose.theta),
        wrap_angle(pose.theta + ts * omega),
    )


def ocp_cost(problem, config, inputs, states):
    """Quadratic tracking cost of an input sequence and its states."""
    n = problem.horizon
    inputs = np.asarray(inputs, dtype=float)
    states = np.asarray(states, dtype=float)
    if inputs.shape != (n, 2) or states.shape != (n + 1, 3):
        raise DimensionMismatchError(f"need ({n}, 2) inputs and ({n + 1}, 3) states")
    q = np.asarray(config.q_diag)
    r = np.asarray(config.r_diag)
    ex = states - problem.x_ref
    ex[:, 2] = wrap_angle(ex[:, 2])
    eu = inputs - problem.u_ref
    return float(np.sum(ex * ex * q) + np.sum(eu * eu * r))


def projected_fd_gradient(problem, config, inputs, step=1e-6):
    """Infinity norm of the box-projected central-difference gradient of
    the cost of the inputs' rollout (the solver's KKT residual)."""
    x0 = problem.initial_state.as_array()
    u = np.asarray(inputs, dtype=float).ravel()

    def cost(flat):
        seq = flat.reshape(-1, 2)
        return ocp_cost(problem, config, seq, rollout(x0, seq, problem.ts))

    grad = np.empty(u.size)
    for i in range(u.size):
        du = np.zeros(u.size)
        du[i] = step
        grad[i] = (cost(u + du) - cost(u - du)) / (2 * step)
    upper = np.tile([config.v_max, config.omega_max], u.size // 2)
    res = np.abs(grad)
    res[u <= -upper] = np.maximum(0.0, -grad[u <= -upper])
    res[u >= upper] = np.maximum(0.0, grad[u >= upper])
    return float(res.max())


def circle_trajectory(n=60, ts=0.1, radius=1.0, speed=0.6):
    """Constant-curvature reference consistent with the unicycle."""
    omega = speed / radius
    headings = np.array([wrap_angle(omega * ts * k) for k in range(n)])
    poses = np.zeros((n, 3))
    for k in range(1, n):
        poses[k, 0] = poses[k - 1, 0] + ts * speed * math.cos(headings[k - 1])
        poses[k, 1] = poses[k - 1, 1] + ts * speed * math.sin(headings[k - 1])
        poses[k, 2] = headings[k]
    return ReferenceTrajectory(
        ts=ts,
        poses=poses,
        v_ref=np.full(n, speed),
        omega_ref=np.full(n, omega),
    )


def oracle_rollout(x0, inputs, ts):
    """Independent unicycle rollout for a batch of input sequences.

    inputs has shape (m, n, 2); returns (m, n + 1, 3).
    """
    m, n, _ = inputs.shape
    states = np.zeros((m, n + 1, 3))
    states[:, 0] = x0
    for k in range(n):
        x, y, th = states[:, k, 0], states[:, k, 1], states[:, k, 2]
        v, w = inputs[:, k, 0], inputs[:, k, 1]
        states[:, k + 1, 0] = x + ts * v * np.cos(th)
        states[:, k + 1, 1] = y + ts * v * np.sin(th)
        states[:, k + 1, 2] = wrap_angle(th + ts * w)
    return states


def oracle_cost(x0, inputs, x_ref, u_ref, q, r, ts):
    """Tracking cost of a batch of input sequences (heading wrapped)."""
    states = oracle_rollout(x0, inputs, ts)
    ex = states - x_ref
    ex[:, :, 2] = wrap_angle(ex[:, :, 2])
    eu = inputs - u_ref
    return np.sum(ex * ex * q, axis=(1, 2)) + np.sum(eu * eu * r, axis=(1, 2))


def zooming_grid_search(problem, config, rounds=40, pts=9):
    """Global minimum over the input box by repeated grid refinement.

    Scans a full 9^4 lattice over the box, then re-grids around the best
    point with a span of two old cells until the lattice collapses; the
    scan is exhaustive at the top level, so a wrong basin would need a
    feature narrower than the initial spacing.
    """
    q = np.asarray(config.q_diag)
    r = np.asarray(config.r_diag)
    x0 = problem.initial_state.as_array()
    lows = np.array([-config.v_max, -config.omega_max] * 2)
    highs = -lows
    center = 0.5 * (lows + highs)
    span = highs - lows
    best_u, best_c = None, np.inf
    for _ in range(rounds):
        axes = [
            np.linspace(
                max(lows[d], center[d] - 0.5 * span[d]),
                min(highs[d], center[d] + 0.5 * span[d]),
                pts,
            )
            for d in range(4)
        ]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
        costs = oracle_cost(
            x0, mesh.reshape(-1, 2, 2), problem.x_ref, problem.u_ref, q, r, problem.ts
        )
        i = int(np.argmin(costs))
        if costs[i] < best_c:
            best_c = float(costs[i])
            best_u = mesh[i]
        center = best_u
        span = span * (4.0 / (pts - 1))  # keep two old cells around the best
    return best_u, best_c


def recursive_jacobian(model, u_flat, states):
    """Residual Jacobian by the forward sensitivity recursion
    S_{k+1} = A_k S_k + B_k along the rollout, one step at a time."""
    n = model.problem.horizon
    ts = model.problem.ts
    inputs = u_flat.reshape(n, 2)
    jac = np.zeros((3 * (n + 1) + 2 * n, 2 * n))
    sens = np.zeros((3, 2 * n))
    for k in range(n):
        theta, v = states[k, 2], inputs[k, 0]
        a = np.array(
            [
                [1.0, 0.0, -ts * v * math.sin(theta)],
                [0.0, 1.0, ts * v * math.cos(theta)],
                [0.0, 0.0, 1.0],
            ]
        )
        sens = a @ sens
        sens[0, 2 * k] += ts * math.cos(theta)
        sens[1, 2 * k] += ts * math.sin(theta)
        sens[2, 2 * k + 1] += ts
        jac[3 * (k + 1) : 3 * (k + 2)] = model.sq[:, None] * sens
    rows = 3 * (n + 1)
    for k in range(n):
        jac[rows + 2 * k, 2 * k] = model.sr[0]
        jac[rows + 2 * k + 1, 2 * k + 1] = model.sr[1]
    return jac


def lstsq_gn_step(jac, r, u, lower, upper):
    """Bounded Gauss-Newton step by an SVD least-squares solve on the free
    columns, with pinned inputs moved to the residual (the oracle)."""
    free = np.ones(u.size, dtype=bool)
    delta = np.zeros(u.size)
    for _ in range(u.size + 1):
        rhs = r + jac[:, ~free] @ delta[~free]
        if free.any():
            step, *_ = np.linalg.lstsq(jac[:, free], -rhs, rcond=None)
            delta[free] = step
        trial = u + delta
        viol = free & ((trial < lower) | (trial > upper))
        if not viol.any():
            break
        delta[viol] = np.clip(trial[viol], lower[viol], upper[viol]) - u[viol]
        free[viol] = False
    return delta


def random_condensed(rng, horizon, q_diag=None, r_diag=None):
    """A condensed model near a random reference, with its input point."""
    cfg = OcpConfig(
        horizon=horizon,
        q_diag=tuple(rng.uniform(0.5, 20.0, 3)) if q_diag is None else q_diag,
        r_diag=tuple(rng.uniform(0.1, 2.0, 2)) if r_diag is None else r_diag,
    )
    u = rng.uniform([-1.5, -3.0], [1.5, 3.0], (horizon, 2))
    x0 = rng.uniform([-1.0, -1.0, -math.pi], [1.0, 1.0, math.pi])
    x_ref = rollout(x0, u, 0.1)
    x_ref[:, :2] += rng.normal(0.0, 0.3, (horizon + 1, 2))
    u_ref = u + rng.normal(0.0, 0.3, (horizon, 2))
    problem = OcpProblem(RobotPose(*x0), x_ref, u_ref, 0.1)
    model = _Condensed(problem, cfg.constants(problem.ts))
    return model, (u + rng.normal(0.0, 0.2, u.shape)).ravel()


def test_rollout_equals_repeated_prediction():
    rng = np.random.default_rng(13)
    for horizon in (0, 1, 2, 15, 20):
        poses = [RobotPose(*rng.uniform([-1.0, -1.0, -math.pi], [1.0, 1.0, math.pi]))]
        x0 = poses[0].as_array()
        inputs = rng.uniform([-1.5, -3.0], [1.5, 3.0], (horizon, 2))
        for u in inputs:
            poses.append(predict(poses[-1], u, 0.1))
        expected = np.array([pose.as_array() for pose in poses])
        assert rollout(x0, inputs, 0.1).tobytes() == expected.tobytes()


@pytest.mark.parametrize("horizon", [1, 2, 15, 20])
def test_jacobian_matches_central_differences_and_the_recursion(horizon):
    rng = np.random.default_rng(horizon)
    step = 1e-6
    for _ in range(10):
        model, u = random_condensed(rng, horizon)
        r, states = model.residual(u)
        jac = model.jacobian(u, states)
        assert jac.shape == (r.size, u.size)
        np.testing.assert_allclose(
            jac, recursive_jacobian(model, u, states), rtol=0.0, atol=1e-15
        )
        fd = np.empty_like(jac)
        for i in range(u.size):
            du = np.zeros(u.size)
            du[i] = step
            fd[:, i] = (model.residual(u + du)[0] - model.residual(u - du)[0]) / (2 * step)
        np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-6 * np.abs(jac).max())


weight = st.floats(0.1, 20.0)


@pytest.mark.parametrize("horizon", [1, 2, 15, 20])
@pytest.mark.parametrize("bounded", [False, True])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    q_diag=st.tuples(weight, weight, weight),
    r_diag=st.tuples(weight, weight),
    seed=st.integers(0, 2**32 - 1),
)
def test_gn_step_matches_the_least_squares_oracle(horizon, bounded, q_diag, r_diag, seed):
    rng = np.random.default_rng(seed)
    model, u = random_condensed(rng, horizon, q_diag, r_diag)
    r, states = model.residual(u)
    jac = model.jacobian(u, states)
    if bounded:
        # A box around u narrower than the free step pins some inputs,
        # at least the one given half the step's width.
        free_step = lstsq_gn_step(jac, r, u, u - np.inf, u + np.inf)
        width = np.abs(free_step) * rng.uniform(0.0, 2.0, u.size)
        pin = rng.integers(u.size)
        width[pin] = 0.5 * abs(free_step[pin])
        lower, upper = u - width * rng.uniform(0.0, 1.0, u.size), u + width
    else:
        lower, upper = u - 1e3, u + 1e3
    expected = lstsq_gn_step(jac, r, u, lower, upper)
    delta = _bounded_gn_step(jac, jac.T @ r, u, lower, upper)
    assert np.linalg.norm(delta - expected) <= 1e-12 * np.linalg.norm(expected)
    if bounded:
        assert np.any(u + delta != u + free_step)


@settings(max_examples=100, deadline=None)
@given(
    horizon=st.integers(min_value=1, max_value=6),
    offset=st.tuples(
        st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-math.pi, math.pi)
    ),
    # References up to three times the chassis' limits, so the box binds.
    speed=st.floats(-3 * V_MAX, 3 * V_MAX),
    turn=st.floats(-3 * OMEGA_MAX, 3 * OMEGA_MAX),
    warm=st.booleans(),
)
def test_solver_inputs_stay_inside_the_box(horizon, offset, speed, turn, warm):
    cfg = OcpConfig(horizon=horizon)
    u_ref = np.tile([speed, turn], (horizon, 1))
    x_ref = rollout(np.zeros(3), u_ref, 0.1)
    problem = OcpProblem(RobotPose(*offset), x_ref, u_ref, 0.1)
    solution = solve(problem, cfg, warm_start=u_ref.ravel() if warm else None)
    assert np.all(np.abs(solution.inputs[0]) <= [V_MAX, OMEGA_MAX])
    assert np.all(np.abs(solution.inputs) <= [V_MAX, OMEGA_MAX])


# -------------------------------------------------------------- solver


def test_prediction_matches_hand_step():
    pose = predict(RobotPose(1.0, 2.0, math.pi / 3), (0.8, 0.5), 0.1)
    assert pose.x == pytest.approx(1.0 + 0.08 * math.cos(math.pi / 3))
    assert pose.y == pytest.approx(2.0 + 0.08 * math.sin(math.pi / 3))
    assert pose.theta == pytest.approx(math.pi / 3 + 0.05)


def test_consistent_reference_is_fixed_point():
    cfg = OcpConfig(horizon=12)
    u_ref = np.column_stack(
        [np.full(12, 0.7), np.linspace(0.4, -0.4, 12)]
    )
    x0 = np.array([0.3, -0.2, 0.4])
    x_ref = rollout(x0, u_ref, 0.1)
    problem = OcpProblem(RobotPose(*x0), x_ref, u_ref, 0.1)
    solution = solve(problem, cfg)
    assert solution.cost <= 1e-8
    assert solution.converged
    assert defects(problem, solution) <= 1e-12
    assert np.allclose(solution.inputs, u_ref, atol=1e-6)


def test_matches_grid_search_oracle_on_random_instances():
    cfg = OcpConfig(horizon=2)
    rng = np.random.default_rng(77)
    for _ in range(10):
        x0 = rng.uniform([-0.3, -0.3, -1.0], [0.3, 0.3, 1.0])
        steps = rng.uniform([-0.15, -0.15, -0.3], [0.15, 0.15, 0.3], (2, 3))
        x_ref = np.vstack([x0 + rng.uniform(-0.1, 0.1, 3), np.zeros((2, 3))])
        x_ref[1] = x_ref[0] + steps[0]
        x_ref[2] = x_ref[1] + steps[1]
        u_ref = rng.uniform([-0.5, -1.0], [0.5, 1.0], (2, 2))
        problem = OcpProblem(RobotPose(*x0), x_ref, u_ref, 0.1)
        solution = solve(problem, cfg)
        _, oracle_best = zooming_grid_search(problem, cfg)
        assert solution.cost <= oracle_best + 1e-6
        assert abs(solution.cost - oracle_best) <= 1e-6


def test_defects_are_negligible_and_bounds_hold():
    # A circle faster and tighter than the chassis can drive: 2 m/s, 3.33 rad/s.
    traj = circle_trajectory(radius=0.6, speed=2.0)
    cfg = OcpConfig(horizon=10)
    ctrl = NmpcController(cfg)
    pose = RobotPose(0.05, -0.05, 0.1)
    top_speed = 0.0
    for k in range(40):
        cmd = ctrl.command(pose, traj, k)
        sol = ctrl.last_solution
        x_ref, u_ref = reference_window(traj, k, cfg.horizon)
        assert defects(OcpProblem(pose, x_ref, u_ref, traj.ts), sol) <= 1e-6
        assert np.all(np.abs(sol.inputs[:, 0]) <= V_MAX + 1e-12)
        assert np.all(np.abs(sol.inputs[:, 1]) <= OMEGA_MAX + 1e-12)
        top_speed = max(top_speed, float(np.hypot(cmd.vx, cmd.vy)))
        pose = integrate_pose(pose, cmd, traj.ts)
    # The bound binds: the reference moves faster than the cap allows.
    assert top_speed == pytest.approx(V_MAX, abs=1e-6)


def test_heading_reference_shifted_by_two_pi_is_equivalent():
    cfg = OcpConfig(horizon=8)
    rng = np.random.default_rng(5)
    u_ref = rng.uniform([-0.5, -1.0], [0.5, 1.0], (8, 2))
    x0 = np.array([0.0, 0.0, 0.5])
    x_ref = rollout(x0, u_ref, 0.1)
    x_ref_shifted = x_ref.copy()
    x_ref_shifted[:, 2] += 2 * math.pi
    base = solve(OcpProblem(RobotPose(*x0), x_ref, u_ref, 0.1), cfg)
    shifted = solve(OcpProblem(RobotPose(*x0), x_ref_shifted, u_ref, 0.1), cfg)
    assert shifted.cost == pytest.approx(base.cost, abs=1e-9)
    assert np.allclose(shifted.inputs, base.inputs, atol=1e-9)


def test_warm_start_cuts_iterations():
    traj = circle_trajectory()
    cfg = OcpConfig(horizon=10)
    ctrl = NmpcController(cfg)
    pose = RobotPose(0.0, 0.0, 0.0)
    warm_iters = []
    cold_iters = []
    for k in range(30):
        cmd = ctrl.command(pose, traj, k)
        if k >= 2:
            warm_iters.append(ctrl.last_solution.iterations)
            x_ref, u_ref = reference_window(traj, k, cfg.horizon)
            cold = solve(OcpProblem(pose, x_ref, u_ref, traj.ts), cfg)
            cold_iters.append(cold.iterations)
        pose = integrate_pose(pose, cmd, traj.ts)
    assert sum(warm_iters) < sum(cold_iters)
    assert ctrl.last_solution.converged


def test_command_points_along_predicted_heading():
    traj = circle_trajectory()
    cfg = OcpConfig(horizon=10)
    ctrl = NmpcController(cfg)
    cmd = ctrl.command(RobotPose(0.0, 0.0, 0.0), traj, 0)
    sol = ctrl.last_solution
    v, omega = sol.inputs[0]
    psi = sol.states[1, 2]
    assert cmd.vx == pytest.approx(v * math.cos(psi))
    assert cmd.vy == pytest.approx(v * math.sin(psi))
    assert cmd.omega == pytest.approx(omega)


def test_solution_layout_round_trips():
    cfg = OcpConfig(horizon=5)
    u_ref = np.zeros((5, 2))
    x_ref = np.zeros((6, 3))
    problem = OcpProblem(RobotPose(0.1, 0.0, 0.0), x_ref, u_ref, 0.1)
    sol = solve(problem, cfg)
    assert sol.inputs.shape == (5, 2)
    assert sol.states.shape == (6, 3)
    expected = rollout(problem.initial_state.as_array(), sol.inputs, problem.ts)
    assert sol.states.tobytes() == expected.tobytes()
    assert ocp_cost(problem, cfg, sol.inputs, sol.states) == pytest.approx(sol.cost, abs=1e-12)
    assert defects(problem, sol) <= 1e-12


def test_a_solve_stopped_by_the_iteration_cap_reports_its_last_iterate(monkeypatch):
    # The lateral step from rest: the reference inputs are a stationary
    # point, and the turn-then-drive start needs more than ten iterations.
    monkeypatch.setattr(nmpc, "MAX_ITERATIONS", 10)
    cfg = OcpConfig()
    traj = _constant_trajectory(RobotPose(0.0, 1.0, 0.0), 10.0, 0.1)
    x_ref, u_ref = reference_window(traj, 0, cfg.horizon)
    problem = OcpProblem(RobotPose(0.0, 0.0, 0.0), x_ref, u_ref, traj.ts)
    sol = solve(problem, cfg)
    assert sol.iterations == 10
    assert not sol.converged
    assert sol.kkt_residual > nmpc.KKT_TOLERANCE
    expected = projected_fd_gradient(problem, cfg, sol.inputs)
    assert sol.kkt_residual == pytest.approx(expected, rel=1e-6)
    x0 = problem.initial_state.as_array()
    assert sol.states.tobytes() == rollout(x0, sol.inputs, problem.ts).tobytes()
    assert ocp_cost(problem, cfg, sol.inputs, sol.states) == pytest.approx(sol.cost, rel=1e-12)


def test_dimension_validation():
    cfg = OcpConfig(horizon=4)
    with pytest.raises(DimensionMismatchError):
        OcpProblem(RobotPose(0, 0, 0), np.zeros((4, 3)), np.zeros((4, 2)), 0.1)
    with pytest.raises(DimensionMismatchError):
        OcpProblem(RobotPose(0, 0, 0), np.zeros((5, 2)), np.zeros((4, 2)), 0.1)
    with pytest.raises(DimensionMismatchError, match="u_ref"):
        OcpProblem(RobotPose(0, 0, 0), np.zeros((5, 3)), np.zeros((4, 3)), 0.1)
    problem = OcpProblem(RobotPose(0, 0, 0), np.zeros((5, 3)), np.zeros((4, 2)), 0.1)
    with pytest.raises(DimensionMismatchError):
        solve(problem, OcpConfig(horizon=6))
    with pytest.raises(DimensionMismatchError):
        solve(problem, cfg, warm_start=np.zeros(5))


def test_config_validation():
    with pytest.raises(ValueError):
        OcpConfig(horizon=0)
    # A count is an integer: a fraction, a bool or a non-finite value is
    # rejected, naming the field, rather than truncated.
    for bad in (2.7, 3.9, True, False, math.nan, math.inf, 0, np.int64(0)):
        with pytest.raises(ValueError, match="horizon"):
            OcpConfig(horizon=bad)
    for good in (5, 5.0, np.int64(5), np.int32(5)):
        value = OcpConfig(horizon=good).horizon
        assert value == 5 and type(value) is int
    # The sample time comes with the problem's reference windows.
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            OcpProblem(RobotPose(0, 0, 0), np.zeros((2, 3)), np.zeros((1, 2)), bad)
    with pytest.raises(ValueError):
        OcpConfig(q_diag=(1.0, 1.0))
    with pytest.raises(ValueError):
        OcpConfig(r_diag=(-1.0, 1.0))
    # A zero input weight can make the Gauss-Newton system singular.
    with pytest.raises(ValueError):
        OcpConfig(r_diag=(0.0, 1.0))
    with pytest.raises(ValueError):
        OcpConfig(q_diag=(1.0, 1.0, 0.0), r_diag=(0.0, 0.0))
    OcpConfig(q_diag=(1.0, 1.0, 0.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            OcpConfig(q_diag=(bad, 1.0, 1.0))
        with pytest.raises(ValueError):
            OcpConfig(r_diag=(1.0, bad))
    # The stop rule is the module's, not a field.
    for removed in ("kkt_tolerance", "max_iterations"):
        with pytest.raises(TypeError):
            OcpConfig(**{removed: getattr(nmpc, removed.upper())})


def test_reference_window_pads_past_the_end():
    traj = circle_trajectory(n=20)
    x_ref, u_ref = reference_window(traj, 15, 10)
    assert x_ref.shape == (11, 3)
    assert u_ref.shape == (10, 2)
    assert np.all(x_ref[4:] == traj.poses[-1])
    assert np.all(u_ref[4:] == 0.0)
    assert np.all(u_ref[:4, 0] == traj.v_ref[15:19])
    # Both windows are copies: a solve may not write into the trajectory.
    for k, horizon in ((0, 5), (15, 10), (19, 1)):
        for window in reference_window(traj, k, horizon):
            for rows in (traj.poses, traj.v_ref, traj.omega_ref):
                assert not np.shares_memory(window, rows)
    with pytest.raises(IndexError):
        reference_window(traj, 20, 10)
    with pytest.raises(IndexError):
        reference_window(traj, -1, 10)


def test_lateral_displacement_is_not_a_stationary_trap():
    # A target purely to the robot's side with aligned headings makes the
    # zero input a stationary point of the condensed cost; the solver
    # must still find a maneuver that beats parking.
    cfg = OcpConfig(horizon=15)
    x_ref = np.tile([0.0, 1.0, 0.0], (16, 1))
    problem = OcpProblem(RobotPose(0.0, 0.0, 0.0), x_ref, np.zeros((15, 2)), 0.1)
    parked = ocp_cost(problem, cfg, np.zeros((15, 2)), np.zeros((16, 3)))
    solution = solve(problem, cfg)
    assert solution.cost < parked - 1.0
    assert abs(solution.states[-1, 1]) > 0.05  # it actually moves toward y
