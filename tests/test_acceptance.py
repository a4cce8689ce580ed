"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict
lines; each test also enforces its own runtime budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from omnitrack.cli import main, standard_map_path
from omnitrack.fuzzy import (
    KD_RULES,
    KI_RULES,
    KP_RULES,
    LABELS,
    Type1Engine,
    Type2Engine,
    km_centroid,
)
from omnitrack.kinematics import (
    BODY_RADIUS,
    WHEEL_RADIUS,
    BodyVelocity,
    RobotPose,
    forward_kinematics,
    integrate_pose,
    inverse_kinematics,
)
from omnitrack.nmpc import (
    NmpcController,
    OcpConfig,
    OcpProblem,
    defects,
    reference_window,
    rollout,
    solve,
)
from omnitrack.planning import astar, load_grid, plan_reference
from omnitrack.simlab import (
    Episode,
    NoiseModel,
    horizon_sweep,
    run_episode,
    step_metrics,
    tracking_metrics,
)

from test_cli import write_config
from test_fuzzy import audit_tables, brute_force_centroid_bounds
from test_nmpc import zooming_grid_search
from test_planning import dijkstra_oracle, random_grid


@contextmanager
def criterion(number, name, time_limit):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < time_limit else "FAIL (over time budget)"
    print(f"criterion {number} ({name}): {verdict} [{elapsed:.1f} s / {time_limit:.0f} s]")
    assert elapsed < time_limit


@pytest.fixture(scope="module")
def grid():
    return load_grid(standard_map_path())


@pytest.fixture(scope="module")
def ref20(grid):
    return plan_reference(grid, (0, 0), (19, 19), 20.0, 0.1)[2]


@pytest.fixture(scope="module")
def ref30(grid):
    return plan_reference(grid, (0, 0), (19, 19), 30.0, 0.1)[2]


def test_criterion_1_kinematics_round_trip():
    with criterion(1, "kinematics round-trip", 1.0):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            v = rng.uniform([-2.0, -2.0, -4.0], [2.0, 2.0, 4.0])
            wheels = inverse_kinematics(BodyVelocity(*v))
            back = forward_kinematics(wheels).as_array()
            worst = max(worst, float(np.max(np.abs(back - v))))
        assert worst <= 1e-9
        spin = inverse_kinematics(BodyVelocity(0.0, 0.0, 1.7))
        expected = BODY_RADIUS * 1.7 / WHEEL_RADIUS
        assert all(phi == expected for phi in spin)


def test_criterion_2_search_matches_uninformed_oracle():
    with criterion(2, "search oracle equivalence", 5.0):
        rng = np.random.default_rng(404)
        solvable = 0
        for _ in range(50):
            candidate = random_grid(rng, fill=0.2, size=20)
            cost, _ = dijkstra_oracle(candidate, (0, 0), (19, 19))
            if cost is None:
                continue
            solvable += 1
            path = astar(candidate, (0, 0), (19, 19))
            assert path.cost == cost
        assert solvable >= 10  # the comparison must not be vacuous


def test_criterion_3_fuzzy_engine():
    with criterion(3, "fuzzy engine", 10.0):
        # Rule base against the independently transcribed 147-cell table.
        kp, ki, kd = audit_tables()
        cells = 0
        for i in range(7):
            for j in range(7):
                assert LABELS.index(KP_RULES[i][j]) == kp[i][j]
                assert LABELS.index(KI_RULES[i][j]) == ki[i][j]
                assert LABELS.index(KD_RULES[i][j]) == kd[i][j]
                cells += 3
        assert cells == 147

        # Crisp outputs stay inside the increment universe on a fine grid.
        t1 = Type1Engine()
        axis = np.linspace(-1.0, 1.0, 101)
        for e in axis:
            for de in axis:
                out = t1.infer(float(e), float(de))
                for value in (out.dkp, out.dki, out.dkd):
                    assert -0.1 <= value <= 0.1

        # A footprint of zero width reduces the interval engine exactly.
        degenerate = Type2Engine(lag=0.0, height_scale=1.0)
        rng = np.random.default_rng(808)
        for _ in range(1000):
            e, de = rng.uniform(-1.0, 1.0, 2)
            a = t1.infer(e, de)
            b = degenerate.infer(e, de)
            gap = max(abs(a.dkp - b.dkp), abs(a.dki - b.dki), abs(a.dkd - b.dkd))
            assert gap <= 1e-9

        # Closed-form centroid interval equals exhaustive vertex enumeration.
        for _ in range(40):
            n = int(rng.integers(2, 11))
            x = np.sort(rng.uniform(-1.0, 1.0, n))
            fu = rng.uniform(0.05, 1.0, n)
            fl = fu * rng.uniform(0.0, 1.0, n)
            cl, cu = km_centroid(x, fl, fu)
            lo, hi = brute_force_centroid_bounds(x, fl, fu)
            assert abs(cl - lo) <= 1e-6
            assert abs(cu - hi) <= 1e-6


def test_criterion_4_predictive_solver(ref30):
    with criterion(4, "predictive solver", 60.0):
        # Defects and bounds on every step of a full-length episode.
        cfg = OcpConfig()
        controller = NmpcController(cfg)
        pose = RobotPose(*ref30.poses[0])
        for k in range(min(len(ref30), 301)):
            cmd = controller.command(pose, ref30, k)
            solution = controller.last_solution
            x_ref, u_ref = reference_window(ref30, k, cfg.horizon)
            problem = OcpProblem(pose, x_ref, u_ref, ref30.ts)
            assert defects(problem, solution) <= 1e-6
            assert np.all(np.abs(solution.inputs[:, 0]) <= cfg.v_max)
            assert np.all(np.abs(solution.inputs[:, 1]) <= cfg.omega_max)
            pose = integrate_pose(pose, cmd, ref30.ts)

        # Consistent references are zero-residual fixed points.
        fixed_cfg = OcpConfig(horizon=15)
        u_ref = np.column_stack([np.full(15, 0.6), np.full(15, 0.25)])
        x0 = np.array([0.1, -0.2, 0.3])
        x_ref = rollout(x0, u_ref, 0.1)
        fixed = solve(OcpProblem(RobotPose(*x0), x_ref, u_ref, 0.1), fixed_cfg)
        assert fixed.cost <= 1e-8

        # Two-step windows agree with a dense zooming grid search.
        short = OcpConfig(horizon=2)
        rng = np.random.default_rng(1234)
        for _ in range(10):
            x0 = rng.uniform([-0.3, -0.3, -1.0], [0.3, 0.3, 1.0])
            x_ref = np.vstack([x0, np.zeros((2, 3))])
            x_ref[1] = x_ref[0] + rng.uniform(-0.15, 0.15, 3)
            x_ref[2] = x_ref[1] + rng.uniform(-0.15, 0.15, 3)
            u_ref = rng.uniform([-0.5, -1.0], [0.5, 1.0], (2, 2))
            problem = OcpProblem(RobotPose(*x0), x_ref, u_ref, 0.1)
            solution = solve(problem, short)
            _, oracle_best = zooming_grid_search(problem, short)
            assert abs(solution.cost - oracle_best) <= 1e-6


def test_criterion_5_comparative_trend(ref20, ref30):
    with criterion(5, "comparative tracking trend", 120.0):
        me = {}
        for label, trajectory in (("20s", ref20), ("30s", ref30)):
            for controller in ("fpid-t1", "fpid-it2", "nmpc"):
                episode = run_episode(
                    Episode(trajectory=trajectory, controller=controller)
                )
                me[controller, label] = tracking_metrics(episode.log).me_xy
        for label in ("20s", "30s"):
            assert me["nmpc", label] < me["fpid-it2", label]
            assert me["nmpc", label] < me["fpid-t1", label]
        for controller in ("fpid-t1", "fpid-it2", "nmpc"):
            assert me[controller, "30s"] < me[controller, "20s"]
        assert all(value < 0.15 for value in me.values())


def test_criterion_6_noise_trend(ref30):
    with criterion(6, "noise rejection trend", 600.0):
        seeds = range(20)
        results = {c: [] for c in ("fpid-t1", "fpid-it2", "nmpc")}
        for seed in seeds:
            for controller in results:
                episode = run_episode(
                    Episode(
                        trajectory=ref30,
                        controller=controller,
                        noise=NoiseModel(),
                        seed=seed,
                    )
                )
                results[controller].append(tracking_metrics(episode.log).me_xy)
        t1 = np.array(results["fpid-t1"])
        it2 = np.array(results["fpid-it2"])
        nmpc = np.array(results["nmpc"])
        assert nmpc.mean() <= it2.mean() <= t1.mean()
        strictly_best = np.sum((nmpc < it2) & (nmpc < t1))
        assert strictly_best >= math.ceil(0.95 * len(nmpc))


def test_criterion_7_horizon_trend(ref20):
    with criterion(7, "horizon length trend", 120.0):
        template = Episode(trajectory=ref20, controller="nmpc")
        rows = dict(horizon_sweep(template, [1, 15]))
        assert rows[1].me_xy > rows[15].me_xy


def test_criterion_8_step_metrics():
    with criterion(8, "step metric correctness", 1.0):
        t = np.arange(0.0, 8.0, 0.001)
        first_order = step_metrics(t, 1.0 - np.exp(-t), 1.0)
        assert first_order.overshoot_pct == 0.0
        assert abs(first_order.rise_time - math.log(9.0)) <= 0.01 * math.log(9.0)

        # Underdamped second-order response with an exact 20% first peak.
        zeta = -math.log(0.2) / math.sqrt(math.pi**2 + math.log(0.2) ** 2)
        wd = math.sqrt(1.0 - zeta**2)
        phi = math.acos(zeta)
        t2 = np.arange(0.0, 20.0, 0.001)
        damped = 1.0 - np.exp(-zeta * t2) / wd * np.sin(wd * t2 + phi)
        peak = step_metrics(t2, damped, 1.0)
        assert abs(peak.overshoot_pct - 20.0) <= 0.2


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "deterministic experiments", 120.0):
        config = write_config(
            tmp_path,
            experiment={"noise": "true", "total_time": "5.0", "np_values": "1, 4"},
        )
        for command in ("plan", "track", "step", "horizon"):
            first = tmp_path / f"{command}_a"
            second = tmp_path / f"{command}_b"
            assert main([command, "--config", str(config), "--out", str(first)]) == 0
            assert main([command, "--config", str(config), "--out", str(second)]) == 0
            names = sorted(p.name for p in first.glob("*.csv"))
            assert names == sorted(p.name for p in second.glob("*.csv"))
            assert names, f"{command} produced no tables"
            for name in names:
                assert (first / name).read_bytes() == (second / name).read_bytes()
