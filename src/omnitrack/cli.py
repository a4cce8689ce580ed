"""Command-line front end for the tracking lab.

Subcommands::

    omnitrack plan    --config cfg.ini [--out DIR]
    omnitrack track   --config cfg.ini [--seed N] [--out DIR]
    omnitrack step    --config cfg.ini [--out DIR]
    omnitrack horizon --config cfg.ini [--np-values 5,10,15] [--out DIR]
                      [--seed N]

Every run copies its config file into the output directory as given: a
``--seed`` or ``--np-values`` flag is not recorded there.  A rerun with
the same config and flags in one environment reproduces the CSVs bit for bit.
Nothing is written before the config is validated and the plan and the
episodes have run.  The outputs are then staged in a directory beside
the output directory and moved into it file by file, so a failing
command leaves the output directory as it was.
Exit codes: 0 success, 1 configuration or I/O error, 2 no path between
start and goal.

Config files are INI-style.  ``[experiment]`` holds the scenario (map,
start, goal, total_time, ts, seed, noise, controllers, out, np_values);
one section per controller id (``[fpid-t1]``, ``[fpid-it2]``, ``[nmpc]``)
holds that controller's keys and may be empty to accept the defaults;
``[fpid-t1]`` takes no keys.  README's config table lists every key with
its default and the values it accepts.  ``controllers`` lists each id at
most once, each with its section; every controller section the file
holds is checked, listed or not.  Any other section, ``[DEFAULT]``
included, is an error.
Every section is read into a dataclass, each key parsed by its field's
declared type; values are literal, with no ``%`` interpolation.  The
section name picks the config class and the class picks the controller
and its fuzzy engine: only ``[fpid-it2]`` takes the type-2 footprint
keys ``fou_height_scale`` and ``fou_lag``.  The sample time is
``[experiment] ts``, never a controller key.  Nor are the robot's
limits: every controller drives the one chassis of
``omnitrack.kinematics``, within its ``V_MAX`` of 1.5 m/s and
``OMEGA_MAX`` of 3.14 rad/s.  The fuzzy PIDs bound the speed's
magnitude along the line of sight and the yaw rate; NMPC boxes its
unicycle inputs, the speed v along the heading and the yaw rate.  The
fuzzy PIDs' starting gains (``DISTANCE_GAINS``, ``HEADING_GAINS``) and
their gain and integrator bounds (``K_MAX``, ``I_MAX``), and NMPC's stop
rule (``KKT_TOLERANCE``, ``MAX_ITERATIONS``), are constants of their
modules, not keys either.
``map = standard`` selects the bundled map.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import shutil
import sys
import tempfile
import configparser
import typing
from importlib import resources
from pathlib import Path

import numpy as np

from . import svgplot
from .nmpc import OcpConfig
from .planning import (
    NoPathError,
    PlanningError,
    load_grid,
    plan_reference,
    write_trajectory_csv,
)
from .simlab import (
    CONTROLLER_IDS,
    STEP_AXES,
    Episode,
    NoiseModel,
    horizon_sweep,
    run_episode,
    run_step_response,
    tracking_metrics,
    write_horizon_csv,
    write_metrics_csv,
    write_run_csv,
    write_step_csv,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_PATH = 2


class CliError(Exception):
    """Configuration or usage problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep 2 for no-path
        raise CliError(message)


@dataclasses.dataclass
class ExperimentConfig:
    """One experiment: each ``[experiment]`` key with its type and default.

    ``load_config`` fills the one field that is not a key: the
    controller configs of the file's sections.
    """

    map: str = "standard"
    start: tuple[int, int] = (0, 0)
    goal: tuple[int, int] = (19, 19)
    total_time: float = 30.0
    ts: float = 0.1
    seed: int = 0
    noise: bool = False
    controllers: tuple[str, ...] = ()
    out: str = ""
    np_values: tuple[int, ...] = (1, 5, 10, 15, 20)
    controller_configs: dict[str, object] = dataclasses.field(
        default_factory=dict, init=False
    )

    def __post_init__(self):
        for name in ("start", "goal"):
            if len(getattr(self, name)) != 2:
                raise ValueError(f"{name} must be 'col,row'")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not 0.0 < self.ts < self.total_time < math.inf:
            raise ValueError("requires finite total_time > ts > 0")
        if not self.np_values:
            raise ValueError("np_values must not be empty")
        for h in self.np_values:  # OcpConfig alone states the horizon rule
            try:
                OcpConfig(horizon=h)
            except ValueError as err:
                raise ValueError(f"np_values entry {h}: {err}") from None
        for cid in self.controllers:
            if cid not in CONTROLLER_IDS:
                raise ValueError(
                    f"unknown controller '{cid}' (known: {', '.join(CONTROLLER_IDS)})"
                )
        if len(set(self.controllers)) != len(self.controllers):
            raise ValueError("controllers must list each controller once")


def standard_map_path() -> Path:
    """Filesystem path of the bundled demonstration map."""
    return Path(str(resources.files("omnitrack").joinpath("data", "standard.map")))


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw}") from None


# How an INI value becomes a config field, by the field's declared type.
_INI_PARSERS = {int: int, float: float, str: str.strip, bool: _boolean}


def _coerce_field(cls, name: str, raw: str):
    kind = typing.get_type_hints(cls)[name]
    if typing.get_origin(kind) is tuple:
        parse = _INI_PARSERS[typing.get_args(kind)[0]]
        return tuple(parse(p) for p in raw.replace(",", " ").split())
    return _INI_PARSERS[kind](raw)


def _section_config(cls, name: str, section):
    """Build the dataclass cls from INI section [name], key by key."""
    kwargs = {}
    known = {f.name for f in dataclasses.fields(cls) if f.init}
    for key in section:
        if key not in known:
            raise CliError(f"unknown key '{key}' in [{name}]")
        try:
            kwargs[key] = _coerce_field(cls, key, section[key])
        except ValueError as err:
            raise CliError(f"bad value for '{key}' in [{name}]: {err}") from None
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise CliError(f"invalid [{name}] section: {err}") from None


def load_config(path, *, need_controllers: bool) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    # Values are read literally, '%' included.  The default section gets a
    # name no section header can hold, so [DEFAULT] is an ordinary section
    # (and an unknown one) rather than keys inherited by every section.
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None, default_section="\n"
    )
    try:
        with open(path, "r", encoding="ascii") as fh:
            parser.read_file(fh)
    except OSError as err:
        raise CliError(f"cannot read config file: {err}") from None
    except (configparser.Error, UnicodeDecodeError) as err:
        raise CliError(f"cannot parse config file: {err}") from None
    known = ("experiment", *CONTROLLER_IDS)
    for name in parser.sections():
        if name not in known:
            raise CliError(
                f"unknown section [{name}] (known: {', '.join(f'[{k}]' for k in known)})"
            )
    if not parser.has_section("experiment"):
        raise CliError("config is missing the [experiment] section")
    config = _section_config(ExperimentConfig, "experiment", parser["experiment"])
    if need_controllers and not config.controllers:
        raise CliError("[experiment] must list at least one controller")
    # Every controller section is checked, listed or not: horizon reads [nmpc].
    for cid in parser.sections():
        if cid != "experiment":
            config.controller_configs[cid] = _section_config(
                CONTROLLER_IDS[cid], cid, parser[cid]
            )
    for cid in config.controllers:
        if cid not in config.controller_configs:
            raise CliError(f"controller '{cid}' has no [{cid}] section")
    return config


def _load_map(config: ExperimentConfig):
    path = standard_map_path() if config.map == "standard" else Path(config.map)
    try:
        return load_grid(path)
    except OSError as err:
        raise CliError(f"cannot read map file: {err}") from None
    except ValueError as err:
        raise CliError(f"malformed map file '{path}': {err}") from None


def _override(config: ExperimentConfig, name: str, raw: str | None) -> None:
    """Set an [experiment] value from its command-line flag, read as in a file."""
    if raw is None:
        return
    try:
        value = _coerce_field(ExperimentConfig, name, raw)
        dataclasses.replace(config, **{name: value})  # the file's checks
    except ValueError as err:
        flag = "--" + name.replace("_", "-")
        raise CliError(f"bad value for {flag}: {err}") from None
    setattr(config, name, value)


def _plan(exp: ExperimentConfig):
    grid = _load_map(exp)
    return grid, plan_reference(grid, exp.start, exp.goal, exp.total_time, exp.ts)


def cmd_plan(config: ExperimentConfig) -> typing.Callable[[Path], str]:
    grid, (path, curve, trajectory) = _plan(config)

    def write(stage: Path) -> str:
        write_trajectory_csv(trajectory, stage / "trajectory.csv")
        dense = curve.point(np.linspace(0.0, 1.0, 256))
        svgplot.grid_overlay(
            stage / "plan.svg",
            grid,
            [
                ("grid path", path.world_points(grid)),
                ("smoothed", dense),
                ("reference", trajectory.poses[:, :2]),
            ],
            title=f"plan {config.start} to {config.goal}",
        )
        return (
            f"plan: {len(path)} cells (cost {path.cost}), "
            f"{len(trajectory)} reference rows"
        )

    return write


def cmd_track(config: ExperimentConfig) -> typing.Callable[[Path], str]:
    grid, (path, curve, trajectory) = _plan(config)

    episodes = [
        Episode(
            trajectory=trajectory,
            controller=cid,
            controller_config=config.controller_configs[cid],
            noise=NoiseModel() if config.noise else None,
            seed=config.seed,
        )
        for cid in config.controllers
    ]
    results = []
    for episode in episodes:
        metrics = tracking_metrics(run_episode(episode).log)
        results.append((episode.controller, metrics))
        print(
            f"track[{episode.controller}]: me_xy={metrics.me_xy:.4f} m, "
            f"mae_theta={metrics.mae_theta:.4f} rad"
        )

    def write(stage: Path) -> str:
        xy_curves = [("reference", trajectory.poses[:, 0], trajectory.poses[:, 1])]
        th_curves = [("reference", trajectory.times, trajectory.poses[:, 2])]
        for episode in episodes:
            write_run_csv(episode.log, stage / f"run_{episode.controller}.csv")
            pose = episode.log.true_pose
            xy_curves.append((episode.controller, pose[:, 0], pose[:, 1]))
            th_curves.append((episode.controller, episode.log.times, pose[:, 2]))
        write_metrics_csv(
            results, stage / "metrics.csv", config.map, trajectory.duration, noise=config.noise
        )
        svgplot.line_chart(
            stage / "tracking_xy.svg",
            xy_curves,
            title="tracked position",
            xlabel="x [m]",
            ylabel="y [m]",
            equal_aspect=True,
        )
        svgplot.line_chart(
            stage / "tracking_theta.svg",
            th_curves,
            title="tracked heading",
            xlabel="t [s]",
            ylabel="theta [rad]",
        )
        return f"track: wrote {len(results)} runs"

    return write


def cmd_step(config: ExperimentConfig) -> typing.Callable[[Path], str]:
    results = [
        (cid, run_step_response(cid, config.controller_configs[cid], ts=config.ts))
        for cid in config.controllers
    ]

    def show(value):
        return "-" if value is None else f"{value:.3f}"

    for cid, per_axis in results:
        for axis, (metrics, _) in per_axis.items():
            print(
                f"step[{cid}/{axis}]: overshoot={metrics.overshoot_pct:.2f}% "
                f"rise={show(metrics.rise_time)} s "
                f"settle={show(metrics.settling_time)} s"
            )

    def write(stage: Path) -> str:
        write_step_csv(results, stage / "step_metrics.csv")
        for index, axis in enumerate(STEP_AXES):
            curves = []
            for cid, per_axis in results:
                log = per_axis[axis][1].log
                curves.append((cid, log.times, log.true_pose[:, index]))
            times = curves[0][1]
            svgplot.line_chart(
                stage / f"step_{axis}.svg",
                [("setpoint", times, np.ones_like(times))] + curves,
                title=f"unit step response on {axis}",
                xlabel="t [s]",
                ylabel=axis,
            )
        return f"step: wrote {len(results) * len(STEP_AXES)} rows"

    return write


def cmd_horizon(config: ExperimentConfig) -> typing.Callable[[Path], str]:
    grid, (path, curve, trajectory) = _plan(config)
    template = Episode(
        trajectory=trajectory,
        controller="nmpc",
        controller_config=config.controller_configs.get("nmpc"),
        noise=NoiseModel() if config.noise else None,
        seed=config.seed,
    )
    rows = horizon_sweep(template, config.np_values)
    for horizon, metrics in rows:
        print(
            f"horizon[{horizon}]: me_xy={metrics.me_xy:.4f} m, "
            f"mae_theta={metrics.mae_theta:.4f} rad"
        )

    def write(stage: Path) -> str:
        write_horizon_csv(rows, stage / "horizon.csv")
        svgplot.bar_chart(
            stage / "horizon.svg",
            [str(h) for h in config.np_values],
            [
                ("me_xy [m]", [m.me_xy for _, m in rows]),
                ("mae_theta [rad]", [m.mae_theta for _, m in rows]),
            ],
            title="tracking error vs prediction horizon",
            xlabel="prediction horizon",
            ylabel="mean error",
        )
        return f"horizon: wrote {len(rows)} rows"

    return write


def _build_parser() -> _Parser:
    parser = _Parser(prog="omnitrack", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, need_controllers, seeded=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, need_controllers=need_controllers)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", help="output directory (overrides the config)")
        if seeded:  # step responses and plans are noise-free
            p.add_argument("--seed", help="episode seed (overrides the config)")
        return p

    command("plan", cmd_plan, "plan a reference trajectory", False)
    command("track", cmd_track, "run tracking episodes", True, seeded=True)
    command("step", cmd_step, "per-axis unit step responses", True)
    horizon = command(
        "horizon", cmd_horizon, "prediction-horizon sweep", False, seeded=True
    )
    horizon.add_argument(
        "--np-values", help="comma-separated horizon lengths (overrides the config)"
    )
    return parser


def _run(args) -> None:
    """Load the config, compute, then stage the outputs and publish them."""
    config = load_config(args.config, need_controllers=args.need_controllers)
    for name in ("seed", "np_values"):
        _override(config, name, getattr(args, name, None))
    write = args.func(config)
    out = Path(args.out or config.out or f"runs/{args.command}")
    # Beside the linked-to directory, so that each move stays on one device.
    parent = out.resolve().parent
    parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out.name}-", dir=parent))
    try:
        shutil.copyfile(args.config, stage / Path(args.config).name)
        summary = write(stage)
        out.mkdir(exist_ok=True)
        for staged in sorted(stage.iterdir()):
            os.replace(staged, out / staged.name)
    finally:
        shutil.rmtree(stage)
    print(f"{summary} -> {out}")


def main(argv=None) -> int:
    try:
        _run(_build_parser().parse_args(argv))
    except NoPathError as err:
        print(f"error: no path found: {err}", file=sys.stderr)
        return EXIT_NO_PATH
    except (CliError, PlanningError, OSError, ValueError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
