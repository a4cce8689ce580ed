import copy
import csv
import inspect
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omnitrack.cli import load_config, standard_map_path
from omnitrack.fpid import FpidConfig, FpidIt2Config, FuzzyPidController
from omnitrack.kinematics import (
    BodyVelocity,
    RobotPose,
    integrate_pose,
    inverse_kinematics,
    wrap_angle,
)
from omnitrack.nmpc import NmpcController, OcpConfig, OcpProblem, reference_window, solve
from omnitrack.planning import (
    OccupancyGrid,
    ReferenceTrajectory,
    load_grid,
    plan_reference,
)
from omnitrack.simlab import (
    NOISE_DIVISOR,
    NOISE_TIME_SCALE,
    RUN_HEADER_BASE,
    RUN_HEADER_SOLVER,
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
    write_metrics_csv,
    write_run_csv,
    write_step_csv,
)

ROOT = Path(__file__).resolve().parents[1]


def circle_trajectory(n=80, ts=0.1, radius=1.0, speed=0.6):
    omega = speed / radius
    poses = np.zeros((n, 3))
    for k in range(1, n):
        th = poses[k - 1, 2]
        poses[k, 0] = poses[k - 1, 0] + ts * speed * math.cos(th)
        poses[k, 1] = poses[k - 1, 1] + ts * speed * math.sin(th)
        poses[k, 2] = wrap_angle(th + ts * omega)
    return ReferenceTrajectory(
        ts=ts,
        poses=poses,
        v_ref=np.full(n, speed),
        omega_ref=np.full(n, omega),
    )


# ---------------------------------------------------------------- noise


def test_noise_is_zero_at_the_first_step():
    rng = np.random.default_rng(0)
    assert np.all(NoiseModel().sample(0, 0.1, rng) == 0.0)


def test_noise_matches_the_documented_form():
    model = NoiseModel()
    got = model.sample(37, 0.1, np.random.default_rng(123))
    expected = np.random.default_rng(123).random(3) / 6.0 * math.sin(37 * 0.1 / 5.0)
    assert np.array_equal(got, expected)


def test_noise_amplitude_statistics():
    model = NoiseModel()
    rng = np.random.default_rng(99)
    n, ts = 78, 0.1  # envelope near its crest
    draws = np.concatenate([model.sample(n, ts, rng) for _ in range(34000)])
    envelope = math.sin(n * ts / 5.0)
    assert np.all(np.abs(draws) <= envelope / 6.0)
    assert abs(np.mean(draws) / envelope - 1.0 / 12.0) < 0.003


def test_the_noise_is_biased_and_sets_the_floor_readme_states():
    # Each channel's mean is sin(n ts / NOISE_TIME_SCALE) / 12, not zero, on
    # both sides of the envelope's sign change.
    model, rng, ts = NoiseModel(), np.random.default_rng(5), 0.1
    for n in (40, 200, 290):
        draws = np.array([model.sample(n, ts, rng) for _ in range(20000)])
        bias = math.sin(n * ts / NOISE_TIME_SCALE) / (2.0 * NOISE_DIVISOR)
        assert np.all(np.abs(draws.mean(axis=0) - bias) < 2e-3)
    # A controller that follows the measurement exactly sits at the mean
    # offset, |bias| in x and in y, over every step of the noisy episode.
    config = load_config(ROOT / "configs" / "noise.ini", need_controllers=True)
    grid = load_grid(standard_map_path())
    _, _, trajectory = plan_reference(
        grid, config.start, config.goal, config.total_time, config.ts
    )
    envelope = np.abs(np.sin(np.arange(len(trajectory)) * config.ts / NOISE_TIME_SCALE))
    floor = math.sqrt(2.0) / (2.0 * NOISE_DIVISOR) * float(np.mean(envelope))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert f"`me_xy` floor of {floor:.4f} m" in readme


# ------------------------------------------------------------- episodes


def test_unknown_controller_is_rejected():
    traj = circle_trajectory()
    with pytest.raises(ValueError):
        Episode(trajectory=traj, controller="pid")
    # The id alone says what runs, so a config of the other kind is refused
    # when the episode is built, also when a sweep replaces the config.
    with pytest.raises(ValueError, match="'nmpc'"):
        Episode(trajectory=traj, controller="nmpc", controller_config=FpidConfig())
    with pytest.raises(ValueError, match="'fpid-t1'"):
        Episode(trajectory=traj, controller="fpid-t1", controller_config=OcpConfig())
    with pytest.raises(ValueError, match="'nmpc'"):
        replace(Episode(traj, "nmpc"), controller_config=FpidConfig())
    # The config's class picks the fuzzy engine, so the two fuzzy PIDs
    # refuse each other's class.
    for controller, config in (("fpid-it2", FpidConfig()), ("fpid-t1", FpidIt2Config())):
        with pytest.raises(ValueError, match=f"'{controller}' takes an "):
            Episode(trajectory=traj, controller=controller, controller_config=config)
        with pytest.raises(ValueError, match=f"'{controller}' takes an "):
            replace(Episode(traj, controller), controller_config=config)


def test_an_episode_holds_its_ids_default_config():
    # Built without a config, an episode holds a default instance of its
    # id's class, and that config is the one its controller runs with.
    traj = circle_trajectory(n=20)
    classes = {"fpid-t1": FpidConfig, "fpid-it2": FpidIt2Config, "nmpc": OcpConfig}
    for controller, cls in classes.items():
        config = Episode(traj, controller).controller_config
        assert type(config) is cls and config == cls()
    footprint = FpidIt2Config(fou_lag=0.45, fou_height_scale=0.8)
    commands = [
        run_episode(Episode(traj, "fpid-it2", config)).log.command
        for config in (None, FpidIt2Config(), footprint)
    ]
    assert np.array_equal(commands[0], commands[1])
    assert not np.array_equal(commands[0], commands[2])


def test_log_layout_and_initial_row():
    traj = circle_trajectory(n=40)
    episode = run_episode(Episode(trajectory=traj, controller="fpid-t1"))
    log = episode.log
    assert len(log) == 40
    assert np.array_equal(log.reference, traj.poses)
    assert np.array_equal(log.true_pose[0], traj.poses[0])
    assert np.allclose(log.times, np.arange(40) * traj.ts)
    assert log.solver is None
    nmpc = run_episode(Episode(trajectory=circle_trajectory(n=20), controller="nmpc"))
    assert nmpc.log.solver.shape == (20, 3)
    assert np.all(nmpc.log.solver[:, 1] >= 0)
    assert np.all(np.isfinite(nmpc.log.solver))


def test_plant_integrates_exactly_what_was_commanded():
    # The plant is the command: each logged pose is, bit for bit, the
    # Euler step of the previous one under the logged command, and the
    # logged wheel rates are that command's inverse map at the step's
    # starting heading.
    traj = circle_trajectory(n=50)
    for controller in ("fpid-t1", "fpid-it2", "nmpc"):
        for noise in (None, NoiseModel()):
            episode = Episode(trajectory=traj, controller=controller, noise=noise, seed=2)
            log = run_episode(episode).log
            for n in range(len(log) - 1):
                cmd = BodyVelocity(*log.command[n])
                stepped = integrate_pose(RobotPose(*log.true_pose[n]), cmd, traj.ts)
                assert np.array_equal(log.true_pose[n + 1], stepped.as_array())
                heading = log.true_pose[n, 2]
                assert np.array_equal(log.wheels[n], inverse_kinematics(cmd, heading))


@pytest.mark.parametrize("noise", [None, NoiseModel()])
@pytest.mark.parametrize("controller", ["fpid-t1", "fpid-it2", "nmpc"])
def test_every_controller_is_called_the_same_way(monkeypatch, controller, noise):
    calls = []
    for cls in (FuzzyPidController, NmpcController):

        def spy(self, robot, trajectory, k, command=cls.command):
            calls.append((robot, trajectory, k))
            return command(self, robot, trajectory, k)

        monkeypatch.setattr(cls, "command", spy)
    traj = circle_trajectory(n=30)
    log = run_episode(Episode(traj, controller, noise=noise, seed=3)).log
    assert [k for _, _, k in calls] == list(range(len(traj)))
    assert all(trajectory is traj for _, trajectory, _ in calls)
    fed = np.array([(robot.x, robot.y, robot.theta) for robot, _, _ in calls])
    assert np.array_equal(fed, log.measured)


def test_both_controllers_take_the_same_parameters():
    fpid, nmpc = (inspect.signature(cls.command) for cls in (FuzzyPidController, NmpcController))
    assert list(fpid.parameters) == list(nmpc.parameters) == ["self", "robot", "trajectory", "k"]


@pytest.mark.parametrize("k", [-1, -30, 30, 31])
@pytest.mark.parametrize(
    "config", [FpidConfig(), FpidIt2Config(), OcpConfig()], ids=["fpid-t1", "fpid-it2", "nmpc"]
)
def test_a_step_outside_the_trajectory_is_refused(config, k):
    # A negative step would otherwise read from the end of the reference.
    cls = NmpcController if isinstance(config, OcpConfig) else FuzzyPidController
    with pytest.raises(IndexError, match=f"step {k} outside trajectory of length 30"):
        cls(config).command(RobotPose(0.0, 0.0, 0.0), circle_trajectory(n=30), k)


def test_noise_touches_only_the_measurement_path():
    traj = circle_trajectory(n=60)
    clean = run_episode(Episode(trajectory=traj, controller="fpid-t1"))
    assert np.array_equal(clean.log.measured, clean.log.true_pose)
    noisy = run_episode(
        Episode(trajectory=traj, controller="fpid-t1", noise=NoiseModel(), seed=4)
    )
    gap = noisy.log.measured - noisy.log.true_pose
    assert np.all(gap[0] == 0.0)  # envelope starts at zero
    assert np.max(np.abs(gap)) > 1e-3
    rng = np.random.default_rng(4)
    model = NoiseModel()
    for n in range(len(noisy.log)):
        expected = noisy.log.true_pose[n] + model.sample(n, traj.ts, rng)
        expected[2] = wrap_angle(expected[2])
        assert np.array_equal(noisy.log.measured[n], expected)


def test_same_seed_reproduces_the_run_bit_for_bit():
    traj = circle_trajectory(n=60)

    def run(seed):
        return run_episode(
            Episode(trajectory=traj, controller="fpid-t1", noise=NoiseModel(), seed=seed)
        ).log

    a, b, c = run(8), run(8), run(9)
    for name in ("reference", "true_pose", "measured", "command", "wheels"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(a.measured, c.measured)


def moved(poses, angle, offset):
    """Poses rotated by angle about the origin, then shifted by offset."""
    c, s = math.cos(angle), math.sin(angle)
    x, y, theta = np.asarray(poses, dtype=float).T
    return np.column_stack(
        [c * x - s * y + offset[0], s * x + c * y + offset[1], wrap_angle(theta + angle)]
    )


_CIRCLE = circle_trajectory(n=60)
_START = RobotPose(0.3, -0.25, 0.5)


@pytest.mark.parametrize("controller", ["fpid-t1", "fpid-it2", "nmpc"])
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(
    angle=st.floats(-math.pi, math.pi, exclude_min=True),
    offset=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
)
@example(angle=math.pi, offset=(-100.0, 100.0))
def test_closed_loop_commutes_with_rigid_motions(controller, angle, offset):
    # Every controller acts on errors between poses, so moving the
    # reference and the start together moves the whole run with them.
    # Noise stays off: it is drawn in world axes.
    moved_ref = replace(_CIRCLE, poses=moved(_CIRCLE.poses, angle, offset))
    start = RobotPose(*moved([_START.as_array()], angle, offset)[0])
    a = run_episode(Episode(trajectory=_CIRCLE, controller=controller, initial_pose=_START)).log
    b = run_episode(Episode(trajectory=moved_ref, controller=controller, initial_pose=start)).log
    want = moved(a.true_pose, angle, offset)
    tol = 1e-9 * (1.0 + math.hypot(*offset))
    assert np.abs(b.true_pose[:, :2] - want[:, :2]).max() <= tol
    assert np.abs(wrap_angle(b.true_pose[:, 2] - want[:, 2])).max() <= tol
    ma, mb = tracking_metrics(a), tracking_metrics(b)
    assert mb.me_xy == pytest.approx(ma.me_xy, rel=1e-9)
    assert mb.mae_theta == pytest.approx(ma.mae_theta, rel=1e-9)


MIRROR = [1.0, -1.0, -1.0]  # y -> -y, theta -> -theta


def mirror_image_runs(controller):
    """Logs of the circle and of its reflection in the x axis, each run
    from its own reflection of the start."""
    mirror_ref = replace(_CIRCLE, poses=_CIRCLE.poses * MIRROR, omega_ref=-_CIRCLE.omega_ref)
    start = RobotPose(*(_START.as_array() * MIRROR))
    a = run_episode(Episode(trajectory=_CIRCLE, controller=controller, initial_pose=_START))
    b = run_episode(Episode(trajectory=mirror_ref, controller=controller, initial_pose=start))
    return a.log, b.log


@pytest.mark.parametrize("controller", ["fpid-t1", "fpid-it2"])
def test_fuzzy_paths_mirror_bit_for_bit_but_headings_do_not(controller):
    # The fuzzy PIDs steer translation by distance and bearing alone, so
    # the reflected run's path is the reflected path.  Its headings are
    # not: the gain tables are not centrally symmetric (tests/test_fuzzy.py).
    a, b = mirror_image_runs(controller)
    assert np.array_equal(b.true_pose[:, 0], a.true_pose[:, 0])
    assert np.array_equal(b.true_pose[:, 1], -a.true_pose[:, 1])
    gap = np.abs(wrap_angle(b.true_pose[:, 2] + a.true_pose[:, 2])).max()
    assert gap == pytest.approx({"fpid-t1": 0.1275, "fpid-it2": 0.0681}[controller], abs=1e-4)


def test_nmpc_mirrors_to_rounding():
    # NMPC's cost is mirror-symmetric, but not bit for bit: wrap_angle(-a)
    # can differ from -wrap_angle(a) by an ulp (a = 0.06), so the
    # reflected reference already does.
    a, b = mirror_image_runs("nmpc")
    assert np.abs(b.true_pose[:, :2] * MIRROR[:2] - a.true_pose[:, :2]).max() <= 1e-12
    assert np.abs(wrap_angle(b.true_pose[:, 2] + a.true_pose[:, 2])).max() <= 1e-12


def test_noise_free_episode_does_not_import_numpy_random(fresh_python):
    # Only noise draws from the generator, and building one imports
    # numpy.random, which costs about 10 ms in a fresh process.
    code = (
        "import sys, numpy as np\n"
        "from omnitrack.planning import ReferenceTrajectory\n"
        "from omnitrack.simlab import Episode, run_episode\n"
        "traj = ReferenceTrajectory(0.1, np.zeros((5, 3)), np.zeros(5), np.zeros(5))\n"
        "for controller in ('fpid-t1', 'fpid-it2', 'nmpc'):\n"
        "    run_episode(Episode(trajectory=traj, controller=controller, seed=3))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    assert fresh_python(code).strip() == "False"


# -------------------------------------------------------------- metrics


def test_tracking_metrics_hand_computed():
    log = EpisodeLog(
        ts=0.1,
        reference=np.array([[0.0, 0.0, 3.0], [1.0, 0.0, 0.5]]),
        true_pose=np.array([[3.0, 4.0, -3.0], [1.0, 1.0, 0.5]]),
        measured=np.zeros((2, 3)),
        command=np.zeros((2, 3)),
        wheels=np.zeros((2, 4)),
    )
    m = tracking_metrics(log)
    assert m.me_xy == pytest.approx((5.0 + 1.0) / 2.0)
    # wrap(3 - (-3)) = 6 - 2*pi, so the wrapped gap is the short way round
    assert m.mae_theta == pytest.approx((2.0 * math.pi - 6.0) / 2.0, abs=1e-12)


def test_step_metrics_of_a_first_order_lag():
    t = np.arange(0.0, 8.0, 0.001)
    y = 1.0 - np.exp(-t)
    m = step_metrics(t, y, 1.0)
    assert m.overshoot_pct == 0.0 and type(m.overshoot_pct) is float
    assert m.rise_time == pytest.approx(math.log(9.0), abs=2e-3)
    assert m.settling_time == pytest.approx(math.log(10.0), abs=2e-3)


def test_step_metrics_of_a_piecewise_linear_peak():
    t = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y = np.array([0.0, 1.2, 1.0, 1.0, 1.0])
    m = step_metrics(t, y, 1.0)
    assert m.overshoot_pct == pytest.approx(20.0, abs=1e-12)
    assert type(m.overshoot_pct) is float
    assert m.rise_time == pytest.approx((0.9 - 0.1) / 1.2, abs=1e-12)
    assert m.settling_time == pytest.approx(1.5, abs=1e-12)


def test_step_metrics_undefined_cases():
    t = np.linspace(0.0, 1.0, 11)
    stalled = step_metrics(t, np.full(11, 0.5), 1.0)
    assert stalled.rise_time is None
    assert stalled.settling_time is None
    assert stalled.overshoot_pct == 0.0
    # Entering the band right after the first sample interpolates the
    # crossing inside the first interval.
    quick = step_metrics(np.array([0.0, 0.1, 0.2]), np.array([0.0, 1.0, 1.0]), 1.0)
    assert quick.settling_time == pytest.approx(0.09, abs=1e-12)
    falling = step_metrics(t, np.linspace(1.0, -0.2, 11), 0.0)
    assert falling.overshoot_pct == pytest.approx(20.0)
    assert type(falling.overshoot_pct) is float


def test_step_metrics_validation():
    with pytest.raises(ValueError):
        step_metrics(np.arange(3.0), np.arange(4.0), 1.0)
    with pytest.raises(ValueError):
        step_metrics(np.array([0.0]), np.array([0.0]), 1.0)
    with pytest.raises(ValueError):
        step_metrics(np.arange(3.0), np.zeros(3), 0.0)


def test_step_response_axes_and_predictive_lateral_hold():
    fpid = run_step_response("fpid-t1")
    assert set(fpid) == {"x", "y", "theta"}
    for axis, (metrics, episode) in fpid.items():
        assert np.all(episode.log.reference == episode.log.reference[0])
        assert metrics.rise_time is not None
        assert metrics.settling_time is not None
    nmpc = run_step_response("nmpc")
    assert nmpc["x"][0].rise_time is not None
    assert nmpc["theta"][0].rise_time is not None
    # A pure sideways unit step leaves the predictive controller in a
    # window equilibrium short of the 90% line: characteristics that
    # require crossing it stay undefined.
    lateral, episode = nmpc["y"]
    assert lateral.rise_time is None
    assert lateral.settling_time is None
    y_final = episode.log.true_pose[-1, 1]
    assert 0.3 < y_final < 0.9


# ---------------------------------------------------------------- sweeps


def test_horizon_sweep_orders_short_horizons_worst():
    template = Episode(trajectory=circle_trajectory(n=100), controller="nmpc")
    rows = horizon_sweep(template, [1, 10])
    assert [h for h, _ in rows] == [1, 10]
    assert rows[0][1].me_xy > rows[1][1].me_xy
    with pytest.raises(ValueError):
        horizon_sweep(template, [0])


def test_horizon_sweep_accepts_a_base_config():
    traj = circle_trajectory(n=30)
    base = OcpConfig(q_diag=(5.0, 5.0, 5.0))
    template = Episode(traj, "nmpc", base, noise=NoiseModel(), seed=3)
    rows = horizon_sweep(template, [3])
    assert rows[0][0] == 3
    # A row is the template's episode with only the horizon replaced; the
    # template itself is left as it was.
    alone = Episode(traj, "nmpc", replace(base, horizon=3), noise=NoiseModel(), seed=3)
    assert rows[0][1] == tracking_metrics(run_episode(alone).log)
    assert template.log is None and template.controller_config is base


def test_horizon_sweep_runs_a_template_built_without_a_config():
    traj = circle_trajectory(n=30)
    template = Episode(traj, "nmpc")
    rows = horizon_sweep(template, [3, 4])
    assert [h for h, _ in rows] == [3, 4]
    alone = Episode(traj, "nmpc", OcpConfig(horizon=4))
    assert rows[1][1] == tracking_metrics(run_episode(alone).log)
    assert template.log is None and template.controller_config == OcpConfig()


def test_the_log_is_not_a_constructor_parameter():
    traj = circle_trajectory(n=5)
    with pytest.raises(TypeError):
        Episode(traj, "fpid-t1", log=None)
    episode = run_episode(Episode(traj, "fpid-t1"))
    assert len(episode.log) == 5
    assert replace(episode, seed=1).log is None  # a copy has not run


@pytest.fixture(scope="module")
def array_records():
    """One record of each class that holds arrays, and an episode of them."""
    grid = OccupancyGrid(np.zeros((6, 6)))
    _, curve, ref = plan_reference(grid, (0, 0), (5, 5), 3.0, 0.1)
    x_ref, u_ref = reference_window(ref, 0, 5)
    problem = OcpProblem(RobotPose(*ref.poses[0]), x_ref, u_ref, ref.ts)
    episode = run_episode(Episode(ref, "nmpc"))
    return {
        "OccupancyGrid": grid,
        "SmoothPath": curve,
        "ReferenceTrajectory": ref,
        "OcpProblem": problem,
        "OcpSolution": solve(problem, OcpConfig(horizon=5)),
        "EpisodeLog": episode.log,
        "Episode": episode,
    }


@pytest.mark.parametrize(
    "name",
    ["OccupancyGrid", "SmoothPath", "ReferenceTrajectory", "OcpProblem", "OcpSolution",
     "EpisodeLog", "Episode"],
)
def test_records_that_hold_arrays_compare_by_identity(array_records, name):
    # Comparing field by field would ask an array for one truth value and
    # raise; a record equals itself and not a copy.
    record = array_records[name]
    assert record == record
    assert (record == copy.deepcopy(record)) is False


# ------------------------------------------------------------- csv files


def read_csv_floats(path):
    """Header and float rows of a CSV, read with nothing but csv and float()."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, np.array([[float(v) for v in row] for row in rows])


def test_run_csv_round_trips_exactly(tmp_path):
    traj = circle_trajectory(n=30)
    episode = run_episode(
        Episode(trajectory=traj, controller="fpid-t1", noise=NoiseModel(), seed=2)
    )
    path = tmp_path / "run.csv"
    write_run_csv(episode.log, path)
    header, rows = read_csv_floats(path)
    assert header == RUN_HEADER_BASE
    assert path.read_text().splitlines()[2].startswith("1,0.1,")
    log = episode.log
    assert np.array_equal(rows[:, 0], np.arange(len(log)))
    assert np.array_equal(rows[:, 1], log.times)
    columns = (log.reference, log.true_pose, log.measured, log.command, log.wheels)
    assert np.array_equal(rows[:, 2:], np.hstack(columns))


def test_run_csv_keeps_solver_columns(tmp_path):
    episode = run_episode(Episode(trajectory=circle_trajectory(n=12), controller="nmpc"))
    path = tmp_path / "run.csv"
    write_run_csv(episode.log, path)
    header, rows = read_csv_floats(path)
    assert header == RUN_HEADER_SOLVER
    assert header[-3:] == ["cost", "iters", "kkt"]
    assert np.array_equal(rows[:, 18:], episode.log.solver)
    assert np.array_equal(rows[:, 2:5], episode.log.reference)


def test_metrics_csv_layout(tmp_path):
    results = [("fpid-t1", TrackingMetrics(me_xy=0.125, mae_theta=0.04))]
    plain = tmp_path / "metrics.csv"
    write_metrics_csv(results, plain, "maps/a,b.map", 30.0)
    lines = plain.read_text().splitlines()
    assert lines[0] == "controller,scenario,tracking_time,me_xy,mae_theta"
    assert lines[1] == 'fpid-t1,"maps/a,b.map",30.0,0.125,0.04'
    with open(plain, newline="") as fh:
        assert list(csv.reader(fh))[1][1] == "maps/a,b.map"
    noisy = tmp_path / "noisy.csv"
    write_metrics_csv(results, noisy, "maps/a,b.map", 30.0, noise=True)
    lines = noisy.read_text().splitlines()
    assert lines[0].endswith(",noise")
    assert lines[1].endswith(",true")


def test_step_csv_leaves_undefined_fields_empty(tmp_path):
    undefined = StepMetrics(overshoot_pct=0.0, rise_time=None, settling_time=None)
    path = tmp_path / "step.csv"
    write_step_csv([("nmpc", {"y": (undefined, None)})], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "controller,axis,overshoot_pct,rise_time,settling_time"
    assert lines[1] == "nmpc,y,0.0,,"
