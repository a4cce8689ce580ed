import contextlib
import csv
import dataclasses
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omnitrack
from omnitrack.cli import (
    EXIT_ERROR,
    EXIT_NO_PATH,
    EXIT_OK,
    ExperimentConfig,
    _coerce_field,
    load_config,
    main,
    standard_map_path,
)
from omnitrack.fpid import FpidIt2Config
from omnitrack.kinematics import OMEGA_MAX, V_MAX
from omnitrack.nmpc import OcpConfig
from omnitrack.simlab import CONTROLLER_IDS, EpisodeLog, run_step_response, tracking_metrics

from test_simlab import read_csv_floats

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
FREE_MAP = "8 8 0.5\n" + "\n".join(["0" * 8] * 8) + "\n"
WALLED_MAP = "8 8 0.5\n" + "\n".join(
    ["0" * 8] * 4 + ["1" * 8] + ["0" * 8] * 3
) + "\n"


def write_config(tmp_path, name="lab.ini", **overrides):
    experiment = {
        "map": str(tmp_path / "arena.map"),
        "start": "0,0",
        "goal": "7,7",
        "total_time": "6.0",
        "ts": "0.1",
        "seed": "0",
        "noise": "false",
        "controllers": "fpid-t1, fpid-it2, nmpc",
    }
    experiment.update(overrides.pop("experiment", {}))
    sections = {"fpid-t1": {}, "fpid-it2": {}, "nmpc": {"horizon": "8"}}
    sections.update(overrides.pop("sections", {}))
    assert not overrides
    lines = ["[experiment]"]
    lines += [f"{k} = {v}" for k, v in experiment.items() if v is not None]
    for section, body in sections.items():
        if body is None:  # omit the section entirely
            continue
        lines.append(f"\n[{section}]")
        lines += [f"{k} = {v}" for k, v in body.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    (tmp_path / "arena.map").write_text(FREE_MAP, encoding="ascii")
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ----------------------------------------------------------------- plan


def test_plan_writes_trajectory_and_figure(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["plan", "--config", str(config), "--out", str(out)]) == EXIT_OK
    _, trajectory = read_csv_floats(out / "trajectory.csv")
    assert len(trajectory) == 61  # 6 s at 0.1 s plus the initial sample
    assert trajectory[1, 1] == 0.1
    svg = (out / "plan.svg").read_text()
    assert svg.startswith("<svg")
    assert (out / config.name).exists()  # config copied beside results
    capsys.readouterr()


def test_plan_on_a_walled_map_exits_with_the_no_path_code(tmp_path, capsys):
    config = write_config(tmp_path)
    (tmp_path / "arena.map").write_text(WALLED_MAP, encoding="ascii")
    code = main(["plan", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == EXIT_NO_PATH
    assert "no path" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("resolution", ["inf", "1e200"])
def test_plan_rejects_an_extreme_map_resolution(tmp_path, capsys, resolution):
    config = write_config(tmp_path, experiment={"goal": "3,0", "total_time": "1.0"})
    (tmp_path / "arena.map").write_text(f"4 1 {resolution}\n0000\n", encoding="ascii")
    out = tmp_path / "out"
    assert main(["plan", "--config", str(config), "--out", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_standard_map_is_bundled(tmp_path, capsys):
    config = write_config(
        tmp_path, experiment={"map": "standard", "goal": "19,19", "total_time": "8.0"}
    )
    assert standard_map_path().exists()
    out = tmp_path / "out"
    assert main(["plan", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert (out / "trajectory.csv").exists()
    capsys.readouterr()


# ---------------------------------------------------------------- track


def test_track_outputs_and_recomputable_metrics(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["track", "--config", str(config), "--out", str(out)]) == EXIT_OK
    for name in ("tracking_xy.svg", "tracking_theta.svg", "metrics.csv"):
        assert (out / name).exists()
    rows = read_rows(out / "metrics.csv")
    assert [r["controller"] for r in rows] == ["fpid-t1", "fpid-it2", "nmpc"]
    for row in rows:
        _, run = read_csv_floats(out / f"run_{row['controller']}.csv")
        columns = (run[:, 2:5], run[:, 5:8], run[:, 8:11], run[:, 11:14], run[:, 14:18])
        log = EpisodeLog(0.1, *columns)
        recomputed = tracking_metrics(log)
        assert float(row["me_xy"]) == pytest.approx(recomputed.me_xy, abs=1e-12)
        assert float(row["mae_theta"]) == pytest.approx(recomputed.mae_theta, abs=1e-12)
        assert float(row["tracking_time"]) == 6.0
        assert "noise" not in row
    capsys.readouterr()


def test_track_runs_are_deterministic(tmp_path, capsys):
    config = write_config(tmp_path, experiment={"noise": "true"})
    outs = [tmp_path / f"out{i}" for i in range(2)]
    for out in outs:
        code = main(["track", "--config", str(config), "--out", str(out)])
        assert code == EXIT_OK
    for name in ("run_fpid-t1.csv", "run_nmpc.csv", "metrics.csv"):
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()
    rows = read_rows(outs[0] / "metrics.csv")
    assert all(row["noise"] == "true" for row in rows)
    capsys.readouterr()


def test_seed_flag_changes_noisy_runs(tmp_path, capsys):
    config = write_config(
        tmp_path, experiment={"noise": "true", "controllers": "fpid-t1"}
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["track", "--config", str(config), "--out", str(out_a)]) == EXIT_OK
    code = main(["track", "--config", str(config), "--out", str(out_b), "--seed", "7"])
    assert code == EXIT_OK
    _, a = read_csv_floats(out_a / "run_fpid-t1.csv")
    _, b = read_csv_floats(out_b / "run_fpid-t1.csv")
    assert not np.array_equal(a[:, 8:11], b[:, 8:11])  # x_meas .. theta_meas
    capsys.readouterr()


# ----------------------------------------------------------------- step


def test_step_writes_one_row_per_controller_axis(tmp_path, capsys):
    config = write_config(tmp_path, experiment={"controllers": "fpid-t1"})
    out = tmp_path / "out"
    assert main(["step", "--config", str(config), "--out", str(out)]) == EXIT_OK
    rows = read_rows(out / "step_metrics.csv")
    assert [(r["controller"], r["axis"]) for r in rows] == [
        ("fpid-t1", "x"),
        ("fpid-t1", "y"),
        ("fpid-t1", "theta"),
    ]
    for axis in ("x", "y", "theta"):
        assert (out / f"step_{axis}.svg").exists()
    capsys.readouterr()


def test_step_reports_undefined_fields_as_empty(tmp_path, capsys):
    config = write_config(tmp_path, experiment={"controllers": "nmpc"})
    out = tmp_path / "out"
    assert main(["step", "--config", str(config), "--out", str(out)]) == EXIT_OK
    rows = {r["axis"]: r for r in read_rows(out / "step_metrics.csv")}
    assert rows["x"]["rise_time"] != ""
    assert rows["y"]["rise_time"] == ""
    assert rows["y"]["settling_time"] == ""
    capsys.readouterr()


@pytest.mark.parametrize("name", ["track.ini", "noise.ini", "step.ini"])
def test_every_controller_keeps_to_the_chassis_limits(tmp_path, capsys, name):
    # One robot: in the bundled runs every controller's command keeps its
    # speed's magnitude within V_MAX, to rounding, and its yaw rate within
    # OMEGA_MAX.  `track` logs its commands; `step` logs none, so its
    # episodes are run as the subcommand runs them.
    path = CONFIG_DIR / name
    config = load_config(path, need_controllers=True)
    commands = {}
    if name == "step.ini":
        for cid in config.controllers:
            steps = run_step_response(cid, config.controller_configs[cid], ts=config.ts)
            for axis, (_, episode) in steps.items():
                commands[f"{cid} {axis}"] = episode.log.command
    else:
        out = tmp_path / "out"
        assert main(["track", "--config", str(path), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        for cid in config.controllers:
            header, run = read_csv_floats(out / f"run_{cid}.csv")
            commands[cid] = run[:, header.index("vx_cmd") : header.index("omega_cmd") + 1]
    assert len(commands) == (9 if name == "step.ini" else 3)
    for run, command in commands.items():
        vx, vy, omega = command.T
        assert np.hypot(vx, vy).max() <= V_MAX * (1 + 1e-12), run
        assert np.abs(omega).max() <= OMEGA_MAX, run


# -------------------------------------------------------------- horizon


def test_horizon_sweep_csv_and_flag_override(tmp_path, capsys):
    config = write_config(
        tmp_path,
        experiment={"total_time": "4.0", "np_values": "1, 6", "controllers": ""},
    )
    out = tmp_path / "out"
    assert main(["horizon", "--config", str(config), "--out", str(out)]) == EXIT_OK
    rows = read_rows(out / "horizon.csv")
    assert [int(r["horizon"]) for r in rows] == [1, 6]
    assert float(rows[0]["me_xy"]) > float(rows[1]["me_xy"])
    assert (out / "horizon.svg").exists()

    out2 = tmp_path / "out2"
    code = main(
        ["horizon", "--config", str(config), "--out", str(out2), "--np-values", "2,3"]
    )
    assert code == EXIT_OK
    assert [int(r["horizon"]) for r in read_rows(out2 / "horizon.csv")] == [2, 3]
    capsys.readouterr()


def test_noisy_horizon_sweep_follows_the_seed(tmp_path, capsys):
    config = write_config(
        tmp_path,
        experiment={
            "total_time": "4.0",
            "np_values": "1, 6",
            "controllers": "",
            "noise": "true",
        },
    )
    tables = []
    for run, seed in enumerate(("1", "1", "2")):
        out = tmp_path / f"out{run}"
        argv = ["horizon", "--config", str(config), "--out", str(out), "--seed", seed]
        assert main(argv) == EXIT_OK
        tables.append((out / "horizon.csv").read_bytes())
    assert tables[0] == tables[1]
    assert tables[0] != tables[2]
    capsys.readouterr()


# ------------------------------------------------------------ bad input


def test_usage_and_config_errors_exit_with_one(tmp_path, capsys):
    config = write_config(tmp_path)
    cases = [
        ["plan"],  # --config is required
        ["plan", "--config", str(tmp_path / "absent.ini")],
        ["plan", "--config", str(config), "--bogus"],
        ["frobnicate", "--config", str(config)],
        ["track", "--config", str(config), "--parallel"],  # removed option
        # Plans and step responses are noise-free, so they take no seed.
        ["plan", "--config", str(config), "--seed", "3"],
        ["step", "--config", str(config), "--seed", "3"],
    ]
    for argv in cases:
        assert main(argv) == EXIT_ERROR, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_config_validation_errors_exit_with_one(tmp_path, capsys):
    missing_section = write_config(tmp_path, name="m.ini", sections={"fpid-t1": None})
    assert main(["track", "--config", str(missing_section)]) == EXIT_ERROR

    unknown_key = write_config(tmp_path, name="u.ini", experiment={"warp": "9"})
    assert main(["plan", "--config", str(unknown_key)]) == EXIT_ERROR

    bad_time = write_config(tmp_path, name="t.ini", experiment={"total_time": "0"})
    assert main(["plan", "--config", str(bad_time)]) == EXIT_ERROR

    bad_np = write_config(tmp_path, name="n.ini", experiment={"np_values": "0,5"})
    assert main(["horizon", "--config", str(bad_np)]) == EXIT_ERROR
    capsys.readouterr()

    endless = [
        ("track", write_config(tmp_path, name=f"e{i}.ini", experiment={"total_time": value}))
        for i, value in enumerate(("inf", "1e400", "1e16"))
    ]
    # Sample counts whose quotient overflows a float: 1e308 / 0.1, and
    # 6 / 1e-320 or step's 10 s / 1e-320.
    endless += [
        ("plan", write_config(tmp_path, name="o1.ini", experiment={"total_time": "1e308"})),
        ("track", write_config(tmp_path, name="o2.ini", experiment={"ts": "1e-320"})),
        (
            "step",
            write_config(
                tmp_path, name="o3.ini", experiment={"ts": "1e-320", "total_time": "1e-300"}
            ),
        ),
    ]
    bad_knobs = [
        ("track", write_config(tmp_path, name="f.ini", sections={"fpid-it2": {"fou_lag": "-1"}})),
        ("track", write_config(tmp_path, name="q.ini", sections={"nmpc": {"q_diag": "nan, 1, 1"}})),
        ("track", write_config(tmp_path, name="k.ini", sections={"nmpc": {"horizon": "inf"}})),
    ]
    out = tmp_path / "never"
    for command, config in endless + bad_knobs:
        argv = [command, "--config", str(config), "--out", str(out)]
        assert main(argv) == EXIT_ERROR, config.name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists(), config.name

    # Rejected before planning, with the culprit named.
    zero_r = write_config(
        tmp_path, name="r.ini", sections={"nmpc": {"q_diag": "1, 1, 0", "r_diag": "0, 0"}}
    )
    tall_fou = write_config(
        tmp_path, name="g.ini", sections={"fpid-it2": {"fou_height_scale": "1.5"}}
    )
    negative_seed = write_config(tmp_path, name="s.ini", experiment={"seed": "-1"})
    # The trajectory alone sets the sample time and the section name the engine.
    nmpc_ts = write_config(
        tmp_path, name="ts.ini", sections={"nmpc": {"horizon": "8", "ts": "0.05"}}
    )
    it2_engine = write_config(tmp_path, name="en.ini", sections={"fpid-it2": {"engine": "t1"}})
    # A lag that rounds a lower set's foot onto its apex.
    flat_fou = write_config(
        tmp_path, name="fl.ini", sections={"fpid-it2": {"fou_lag": "0.9999999999999998"}}
    )
    # An empty horizon list is an error, not the default list.
    no_np = write_config(tmp_path, name="np.ini", experiment={"np_values": ""})
    # A step response lasts STEP_DURATION (10 s); a longer sample time
    # leaves it fewer than two samples.
    slow_step = write_config(
        tmp_path, name="st.ini", experiment={"ts": "12", "total_time": "30"}
    )
    not_bool = write_config(tmp_path, name="b.ini", experiment={"noise": "maybe"})
    # A repeated id would run its episodes twice and overwrite its run file.
    repeated = write_config(
        tmp_path, name="rp.ini", experiment={"controllers": "fpid-t1, fpid-t1"}
    )
    good = write_config(tmp_path)
    out = tmp_path / "never"
    for argv, culprit in (
        (["track", "--config", str(zero_r)], "[nmpc]"),
        (["track", "--config", str(tall_fou)], "[fpid-it2] section: fou_height_scale"),
        (["track", "--config", str(negative_seed)], "seed"),
        (["track", "--config", str(nmpc_ts)], "'ts' in [nmpc]"),
        (["track", "--config", str(it2_engine)], "'engine' in [fpid-it2]"),
        (["track", "--config", str(flat_fou)], "fou_lag"),
        (["horizon", "--config", str(no_np)], "np_values"),
        (["horizon", "--config", str(good), "--np-values", ""], "np_values"),
        (["horizon", "--config", str(good), "--np-values", "2,x"], "--np-values"),
        (["step", "--config", str(slow_step)], "ts must"),
        (["plan", "--config", str(not_bool)], "'noise'"),
        (["track", "--config", str(repeated)], "controllers"),
        (["step", "--config", str(repeated)], "controllers"),
        (["track", "--config", str(good), "--seed", "-1"], "seed"),
        (["horizon", "--config", str(good), "--seed", "-1"], "seed"),
    ):
        assert main([*argv, "--out", str(out)]) == EXIT_ERROR, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and culprit in err, err
        assert not out.exists()


@pytest.mark.parametrize(
    "stray",
    [
        # configparser would hand [DEFAULT]'s keys to every section, so the
        # error would name a key that [experiment] never lists.
        "[DEFAULT]\nhorizon = 5",
        "[DEFAULT]",
        # A misspelt controller section would be ignored, and the
        # controller run with its defaults.
        "[nmcp]\nhorizon = 3",
    ],
    ids=["default-with-key", "default-empty", "misspelt"],
)
def test_stray_sections_exit_with_one(tmp_path, capsys, stray):
    config = write_config(tmp_path)
    config.write_text(config.read_text(encoding="ascii") + stray + "\n", encoding="ascii")
    name = stray.splitlines()[0]
    out = tmp_path / "never"
    for command in ("plan", "track", "step", "horizon"):
        assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown section {name}") and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize(
    "section, body, culprit",
    [
        ("fpid-t1", {"bogus_key": "1"}, "'bogus_key' in [fpid-t1]"),
        ("fpid-it2", {"fou_lag": "-5"}, "[fpid-it2] section: fou_lag"),
    ],
    ids=["unknown-key", "out-of-range"],
)
def test_unlisted_controller_section_is_checked(tmp_path, capsys, section, body, culprit):
    config = write_config(
        tmp_path, experiment={"controllers": "nmpc"}, sections={section: body}
    )
    out = tmp_path / "never"
    for command in ("plan", "track", "step", "horizon"):
        assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and culprit in err, err
        assert not out.exists()


def test_config_values_are_read_literally(tmp_path, capsys):
    # '%' is not configparser interpolation: a map path may hold it.
    folder = tmp_path / "50%(x)s"
    folder.mkdir()
    config = write_config(folder, experiment={"map": str(folder / "arena.map")})
    assert main(["plan", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert (tmp_path / "out" / "trajectory.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.ini")), ids=lambda p: p.name)
def test_bundled_configs_load(path):
    # perfbench's cli-suite reads these files at run time, so a key the lab
    # no longer takes must leave them in the same change.
    config = load_config(path, need_controllers=False)
    assert config.controller_configs
    if config.controllers:
        assert load_config(path, need_controllers=True) == config
    for cid, controller_config in config.controller_configs.items():
        assert type(controller_config) is CONTROLLER_IDS[cid], cid


def ini_value(value):
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("section", sorted(CONTROLLER_IDS) + ["experiment"])
def test_every_default_round_trips_through_ini(tmp_path, section):
    # Each key is parsed by its field's declared type, so a default written
    # out loads back equal and of the same type (an int never becomes a
    # float, nor a bool a string).
    default = CONTROLLER_IDS.get(section, ExperimentConfig)()
    keys = [f for f in dataclasses.fields(default) if f.init]
    body = {f.name: ini_value(getattr(default, f.name)) for f in keys}
    if section == "experiment":
        path = write_config(tmp_path, experiment=body)
        loaded = load_config(path, need_controllers=False)
    else:
        path = write_config(tmp_path, experiment={"controllers": section}, sections={section: body})
        loaded = load_config(path, need_controllers=True).controller_configs[section]
    for f in keys:
        value, want = getattr(loaded, f.name), getattr(default, f.name)
        assert value == want, f.name
        assert type(value) is type(want), f.name
        if isinstance(want, tuple):
            assert [type(v) for v in value] == [type(v) for v in want], f.name


def test_the_readme_config_example_loads(tmp_path):
    # The README's INI example advertises only keys the lab reads.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```ini\n")[1:]
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0].split("```")[0], encoding="ascii")
    config = load_config(path, need_controllers=True)
    assert config.controllers == ("fpid-t1", "fpid-it2", "nmpc")
    assert sorted(config.controller_configs) == sorted(CONTROLLER_IDS)


# The README config table's section column, and the class whose keys each
# lists; [fpid-t1] takes no keys, so no row names it.
README_SECTIONS = {
    "[experiment]": ExperimentConfig,
    "[fpid-it2]": FpidIt2Config,
    "[nmpc]": OcpConfig,
}


def test_the_readme_config_table_lists_every_key_with_its_default():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = [
        [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for line in readme.splitlines()
        if line.startswith("| `[")
    ]
    listed = {(section, key): default for section, key, default, _ in rows}
    assert len(listed) == len(rows)
    assert set(listed) == {
        (section, f.name)
        for section, cls in README_SECTIONS.items()
        for f in dataclasses.fields(cls)
        if f.init
    }
    # Each default, read as a file's value would be, is the field's own.
    for (section, key), raw in listed.items():
        cls = README_SECTIONS[section]
        value = _coerce_field(cls, key, "" if raw == "(empty)" else raw)
        want = {f.name: f.default for f in dataclasses.fields(cls)}[key]
        assert value == want and type(value) is type(want), (section, key)


# Each constant that was once a key, and the sections that took it.
REMOVED_KEYS = {
    "dist_norm": ("fpid-t1", "fpid-it2"),
    "head_norm": ("fpid-t1", "fpid-it2"),
    "de_scale": ("fpid-t1", "fpid-it2"),
    "threshold": ("fpid-t1", "fpid-it2"),
    "v_max": ("fpid-t1", "fpid-it2", "nmpc"),
    "omega_max": ("fpid-t1", "fpid-it2", "nmpc"),
    "k_max": ("fpid-t1", "fpid-it2"),
    "i_max": ("fpid-t1", "fpid-it2"),
    "kkt_tolerance": ("nmpc",),
    "max_iterations": ("nmpc",),
    "dist_kp": ("fpid-t1", "fpid-it2"),
    "dist_ki": ("fpid-t1", "fpid-it2"),
    "dist_kd": ("fpid-t1", "fpid-it2"),
    "head_kp": ("fpid-t1", "fpid-it2"),
    "head_ki": ("fpid-t1", "fpid-it2"),
    "head_kd": ("fpid-t1", "fpid-it2"),
}


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_the_fuzzy_pid_constants_are_not_keys(tmp_path, capsys, key):
    # The normalizing ranges, the rate divisor, the stopping range, the
    # starting gains and the gain and integrator bounds are constants of
    # omnitrack.fpid, NMPC's stop rule is omnitrack.nmpc's, and the speed
    # and yaw-rate limits are the chassis' own in omnitrack.kinematics; a
    # file that sets one fails as a typo does, on every subcommand.
    out = tmp_path / "never"
    for section in REMOVED_KEYS[key]:
        config = write_config(tmp_path, sections={section: {key: "0.05"}})
        for command in ("plan", "track", "step", "horizon"):
            assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_ERROR
            err = capsys.readouterr().err
            assert err.startswith(f"error: unknown key '{key}' in [{section}]"), err
            assert not out.exists()


@pytest.mark.parametrize("key", ["fou_height_scale", "fou_lag"])
def test_a_type1_section_takes_no_footprint(tmp_path, capsys, key):
    # A type-1 set has no footprint of uncertainty: [fpid-t1] refuses the
    # type-2 keys as it refuses a typo, on every subcommand.
    config = write_config(tmp_path, sections={"fpid-t1": {key: "0.5"}})
    out = tmp_path / "never"
    for command in ("plan", "track", "step", "horizon"):
        assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown key '{key}' in [fpid-t1]"), err
        assert not out.exists()


def test_a_straight_reference_is_charted_in_finite_time(tmp_path):
    # Straight up a free map, the reference and NMPC headings span two
    # ulps of pi/2, a range too narrow for adding a tick step to change a
    # tick.  The run goes in a child process so that a hang fails the test.
    (tmp_path / "free.map").write_text("20 20 1\n" + ("0" * 20 + "\n") * 20, encoding="ascii")
    config = tmp_path / "straight.ini"
    config.write_text(
        "[experiment]\nmap = free.map\nstart = 0,0\ngoal = 0,19\ntotal_time = 20\n"
        "controllers = nmpc\n[nmpc]\n",
        encoding="ascii",
    )
    src = Path(omnitrack.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "omnitrack.cli", "track", "--config", str(config)]
    try:
        result = subprocess.run(
            argv + ["--out", "out"],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=30,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("track on a straight reference did not finish in 30 s", pytrace=False)
    assert result.returncode == EXIT_OK, result.stderr
    assert (tmp_path / "out" / "tracking_theta.svg").exists()


def test_failing_commands_write_nothing(tmp_path, monkeypatch, capsys):
    configs, walled, cwd = tmp_path / "configs", tmp_path / "walled", tmp_path / "cwd"
    for directory in (configs, walled, cwd):
        directory.mkdir()
    missing = write_config(configs, name="m.ini", sections={"fpid-t1": None})
    bad_time = write_config(configs, name="t.ini", experiment={"total_time": "0"})
    bad_np = write_config(configs, name="n.ini", experiment={"np_values": "0,5"})
    endless = write_config(configs, name="e.ini", experiment={"total_time": "inf"})
    huge = write_config(configs, name="h.ini", experiment={"total_time": "1e16"})
    bad_fpid = write_config(configs, name="f.ini", sections={"fpid-it2": {"fou_lag": "1.5"}})
    bad_nmpc = write_config(configs, name="q.ini", sections={"nmpc": {"q_diag": "nan, 1, 1"}})
    nmpc_ts = write_config(configs, name="ts.ini", sections={"nmpc": {"ts": "0.05"}})
    blocked = write_config(walled)
    (walled / "arena.map").write_text(WALLED_MAP, encoding="ascii")
    monkeypatch.chdir(cwd)
    cases = [
        (["track", "--config", str(missing)], EXIT_ERROR),
        (["step", "--config", str(missing)], EXIT_ERROR),
        (["plan", "--config", str(bad_time)], EXIT_ERROR),
        (["horizon", "--config", str(bad_np)], EXIT_ERROR),
        (["plan", "--config", str(endless)], EXIT_ERROR),
        (["plan", "--config", str(huge)], EXIT_ERROR),
        (["track", "--config", str(bad_fpid)], EXIT_ERROR),
        (["horizon", "--config", str(bad_nmpc)], EXIT_ERROR),
        (["track", "--config", str(nmpc_ts)], EXIT_ERROR),
        (["horizon", "--config", str(blocked), "--np-values", "0"], EXIT_ERROR),
        (["plan", "--config", str(blocked)], EXIT_NO_PATH),
        (["track", "--config", str(blocked)], EXIT_NO_PATH),
        (["horizon", "--config", str(blocked)], EXIT_NO_PATH),
    ]
    for argv, code in cases:
        assert main(argv) == code, argv
    # A writer that fails once the stage beside --out holds files: --out
    # is not made, and the stage is removed.
    good = write_config(configs, name="g.ini", experiment={"controllers": "fpid-t1"})
    monkeypatch.setattr(omnitrack.cli, "write_metrics_csv", disk_full)
    monkeypatch.setattr(omnitrack.cli.svgplot, "grid_overlay", disk_full)
    for command in ("plan", "track"):
        assert main([command, "--config", str(good), "--out", "out"]) == EXIT_ERROR
    assert list(cwd.iterdir()) == []
    capsys.readouterr()


def disk_full(*args, **kwargs):
    raise OSError(28, "No space left on device")


def snapshot(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_a_failed_run_leaves_out_as_it_was(tmp_path, monkeypatch, capsys):
    config = write_config(
        tmp_path, experiment={"noise": "true", "controllers": "fpid-t1, fpid-it2"}
    )
    runs = tmp_path / "runs"
    out = runs / "out"
    argv = ["track", "--config", str(config), "--out", str(out)]
    assert main(argv) == EXIT_OK
    earlier = snapshot(out)
    # The run CSVs are staged before the metrics table fails.
    monkeypatch.setattr(omnitrack.cli, "write_metrics_csv", disk_full)
    assert main(argv + ["--seed", "3"]) == EXIT_ERROR
    assert "No space left on device" in capsys.readouterr().err
    assert snapshot(out) == earlier
    assert list(runs.iterdir()) == [out]
    fresh = tmp_path / "new" / "out"
    assert main(["track", "--config", str(config), "--out", str(fresh)]) == EXIT_ERROR
    assert list(fresh.parent.iterdir()) == []
    monkeypatch.undo()

    taken = runs / "taken"
    taken.write_bytes(b"not a directory\n")
    assert main(["plan", "--config", str(config), "--out", str(taken)]) == EXIT_ERROR
    assert taken.read_bytes() == b"not a directory\n"
    assert sorted(runs.iterdir()) == [out, taken]

    # The same rerun with the writer back does replace the earlier files.
    assert main(argv + ["--seed", "3"]) == EXIT_OK
    later = snapshot(out)
    assert later.keys() == earlier.keys()
    assert later["run_fpid-t1.csv"] != earlier["run_fpid-t1.csv"]
    capsys.readouterr()


def test_a_linked_out_is_staged_beside_its_target(tmp_path, monkeypatch, capsys):
    # os.replace cannot cross filesystems, and a link may lead to another.
    config = write_config(tmp_path)
    target = tmp_path / "elsewhere" / "results"
    target.mkdir(parents=True)
    link = tmp_path / "link"
    link.symlink_to(target, target_is_directory=True)
    stages = []
    mkdtemp = omnitrack.cli.tempfile.mkdtemp

    def spy(**kwargs):
        stages.append(Path(kwargs["dir"]))
        return mkdtemp(**kwargs)

    monkeypatch.setattr(omnitrack.cli.tempfile, "mkdtemp", spy)
    assert main(["plan", "--config", str(config), "--out", str(link)]) == EXIT_OK
    assert stages == [target.resolve().parent]
    assert sorted(snapshot(target)) == [config.name, "plan.svg", "trajectory.csv"]
    assert list(target.parent.iterdir()) == [target]
    capsys.readouterr()


def test_a_rerun_may_read_its_config_from_out(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["plan", "--config", str(config), "--out", str(out)]) == EXIT_OK
    inside = out / config.name
    assert main(["plan", "--config", str(inside), "--out", str(out)]) == EXIT_OK
    assert inside.read_bytes() == config.read_bytes()
    assert sorted(snapshot(out)) == [config.name, "plan.svg", "trajectory.csv"]
    beside = sorted(path.name for path in tmp_path.iterdir())
    assert beside == ["arena.map", config.name, "out"]  # and no stage
    capsys.readouterr()


# Values every fuzzed key may take besides its valid ones.
BAD_VALUES = ["0", "-1", "nan", "inf", "1e16", "1e308", "1e-320", "", "x"]
FUZZ_POOL = {
    "experiment": {
        "start": ["0,0", "2,1"],
        "goal": ["7,7", "3,2", "0,0"],
        "total_time": ["0.5", "1.0"],
        "ts": ["0.1", "0.25"],
        "seed": ["0", "7"],
        "noise": ["false", "true"],
        "controllers": ["fpid-t1", "fpid-it2, nmpc"],
    },
    "fpid-t1": {},
    "fpid-it2": {"fou_lag": ["0.3", "0.7"], "fou_height_scale": ["1.0", "0.8"]},
    "nmpc": {
        "horizon": ["3"],
        "q_diag": ["15, 15, 15", "1, 1", "1, 2, 3, 4"],  # then two wrong lengths
        "r_diag": ["1, 1", "0, 0"],
    },
}


# Sections no config may hold; one drawn config in ten carries one.
STRAY_SECTIONS = ["[DEFAULT]\nhorizon = 3", "[DEFAULT]\nseed = 1", "[nmcp]", "[fpid_t1]\nfou_lag = 0.3"]


@st.composite
def fuzzed_config(draw):
    """INI text from FUZZ_POOL: mostly valid, with bad, missing and stray
    keys; and whether it holds a stray section."""
    stray = draw(st.integers(0, 9)) == 9
    lines = [draw(st.sampled_from(STRAY_SECTIONS))] if stray else []
    for section, keys in FUZZ_POOL.items():
        if section != "experiment" and draw(st.integers(0, 9)) == 9:
            continue  # a missing controller section
        lines.append(f"[{section}]")
        if section == "experiment":
            lines.append("map = {map}")
        for key, valid in keys.items():
            roll = draw(st.integers(0, 19))
            if roll < 19:  # 1 in 20 keys is left out
                pool = valid if roll < 17 else BAD_VALUES
                lines.append(f"{key} = {draw(st.sampled_from(pool))}")
        if draw(st.integers(0, 19)) == 19:
            lines.append("warp = 9")
    return "\n".join(lines) + "\n", stray


# A config valid but for its sample count: each value is valid alone, and
# their quotient overflows a float.  Few drawn configs are valid enough to
# reach the planner, so the fuzzer is handed this one.
OVERFLOWING = (
    "[experiment]\nmap = {map}\ngoal = 7,7\ntotal_time = 1e308\nts = 1e-320\n"
    "controllers = fpid-t1\n[fpid-t1]\n"
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(drawn=fuzzed_config(), command=st.sampled_from(["plan", "track"]))
@example(drawn=(OVERFLOWING, False), command="plan")
@example(drawn=(OVERFLOWING, False), command="track")
def test_fuzzed_configs_fail_cleanly(drawn, command):
    text, stray = drawn
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "arena.map").write_text(FREE_MAP, encoding="ascii")
        config = root / "lab.ini"
        config.write_text(text.format(map=root / "arena.map"), encoding="ascii")
        out, err = root / "out", io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(config), "--out", str(out)])
        assert code in ((EXIT_ERROR,) if stray else (EXIT_OK, EXIT_ERROR, EXIT_NO_PATH))
        if code != EXIT_OK:
            assert err.getvalue().startswith("error:")
            assert not out.exists()


def test_cli_import_does_not_load_scipy(fresh_python):
    # Importing the CLI loads neither scipy nor numpy.polynomial and makes
    # no numpy.linalg call: every public numpy.linalg function raises.
    code = (
        "import sys, numpy.linalg as la\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('numpy.linalg called during import')\n"
        "for name in la.__all__:\n"
        "    if not isinstance(getattr(la, name), type):\n"
        "        setattr(la, name, refuse)\n"
        "import omnitrack.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " or m.startswith('numpy.polynomial')))"
    )
    assert fresh_python(code).strip() == "[]"
