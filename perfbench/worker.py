"""Workload process: imports omnitrack, sets up, runs and checks operations.

``run.py`` starts this script in a fresh interpreter, several times one
after another for an untraced run and once for a traced run::

    python worker.py WORKLOAD WORKDIR SECONDS TRACE

It reads ``WORKDIR/inputs.json`` (written by ``run.py`` from the seed),
imports the package, does the workload's one-off set-up, prints
``ready <time.monotonic()>``, runs operations for SECONDS and writes
``WORKDIR/result.json``.  ``WORKDIR/state.json`` carries the position in
the operation cycle and each operation's first outputs from one worker of
a run to the next.  Operations run one after
another in this process (closed loop, one client); cli-suite runs each
command in a fresh child process.  numpy and omnitrack are imported inside
functions, so that the import timed in ``main()`` is the first one.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import operator
import resource
import shutil
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
# Default-seed outputs must match the recorded references to this relative
# tolerance (absolute floor for values that are zero).
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Allowance for rounding when checking commands against the input box.
BOX_SLACK = 1e-9
COMMAND_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


def _require_finite(values, what: str) -> None:
    import numpy as np

    if not np.isfinite(np.asarray(values, dtype=float)).all():
        raise CheckFailed(f"non-finite value in {what}")


def _require_in_box(speed, omega, v_max: float, omega_max: float, what: str) -> None:
    import numpy as np

    if np.max(np.abs(speed)) > v_max * (1 + BOX_SLACK) or np.max(np.abs(omega)) > omega_max * (1 + BOX_SLACK):
        raise CheckFailed(f"{what}: NMPC command outside the input box")


class Workload:
    """Operations of one workload; ``seen`` holds each key's first outputs."""

    def __init__(self, ops, workdir: Path, state: dict):
        self.ops = ops
        self.dir = workdir
        self.seen: dict[str, dict] = state.setdefault("seen", {})

    def prepare(self) -> None:
        """Untimed work between set-up and the first operation."""


class SweepNoise(Workload):
    """Noisy closed-loop episodes on the bundled map, all three controllers."""

    name = "sweep-noise"
    warmup = "one untimed episode per controller, on the first noise seed"

    def setup(self) -> None:
        from omnitrack.cli import standard_map_path
        from omnitrack.planning import load_grid, plan_reference

        grid = load_grid(standard_map_path())
        _, _, self.trajectory = plan_reference(grid, (0, 0), (19, 19), 30.0, 0.1)

    @staticmethod
    def kind(op) -> str:
        return op["controller"]

    def warmup_ops(self):
        return self.ops[: len(workloads.CONTROLLERS)]

    def run(self, op, trace_out=None):
        from omnitrack import simlab

        episode = simlab.Episode(
            trajectory=self.trajectory,
            controller=op["controller"],
            noise=simlab.NoiseModel(),
            seed=op["noise_seed"],
        )
        start = time.perf_counter()
        simlab.run_episode(episode)
        return time.perf_counter() - start, episode

    def observe(self, op, episode) -> dict:
        from omnitrack.nmpc import OcpConfig
        from omnitrack.simlab import tracking_metrics

        log = episode.log
        for name in ("reference", "true_pose", "measured", "command", "wheels", "solver"):
            if getattr(log, name) is not None:
                _require_finite(getattr(log, name), f"episode log '{name}'")
        if op["controller"] == "nmpc":
            box = OcpConfig()
            speed = (log.command[:, 0] ** 2 + log.command[:, 1] ** 2) ** 0.5
            _require_in_box(speed, log.command[:, 2], box.v_max, box.omega_max, op["key"])
        tm = tracking_metrics(log)
        end = log.true_pose[-1]
        return {"me_xy": tm.me_xy, "mae_theta": tm.mae_theta,
                "end_x": float(end[0]), "end_y": float(end[1]), "end_theta": float(end[2])}


class PlanMaps(Workload):
    """plan_reference plus write_trajectory_csv on seeded random grids."""

    name = "plan-maps"
    warmup = "one untimed plan of the first grid"

    def setup(self) -> None:
        import omnitrack  # noqa: F401  (set-up is the import alone)

    def prepare(self) -> None:
        import numpy as np
        from omnitrack.planning import OccupancyGrid

        self.grids = {
            op["key"]: OccupancyGrid(
                np.array([[int(ch) for ch in row] for row in op["rows"]], dtype=np.uint8),
                op["resolution"],
            )
            for op in self.ops
        }

    @staticmethod
    def kind(op) -> str:
        return "plan_reference"

    def warmup_ops(self):
        return self.ops[:1]

    def run(self, op, trace_out=None):
        from omnitrack import planning

        grid = self.grids[op["key"]]
        path = self.dir / f"trajectory_{op['key']}.csv"
        start = time.perf_counter()
        grid_path, _, trajectory = planning.plan_reference(
            grid, tuple(op["start"]), tuple(op["goal"]), op["total_time"], op["ts"]
        )
        planning.write_trajectory_csv(trajectory, path)
        return time.perf_counter() - start, (grid_path, trajectory, path)

    def observe(self, op, out) -> dict:
        grid_path, trajectory, path = out
        if grid_path.cells[0] != tuple(op["start"]) or grid_path.cells[-1] != tuple(op["goal"]):
            raise CheckFailed("path does not join start and goal")
        if grid_path.cost != op["distance"]:
            raise CheckFailed(f"path cost {grid_path.cost} differs from BFS distance {op['distance']}")
        _require_finite(trajectory.poses, "reference poses")
        end = trajectory.poses[-1]
        goal_xy = (op["goal"][0] * op["resolution"], op["goal"][1] * op["resolution"])
        if abs(end[0] - goal_xy[0]) > 1e-9 or abs(end[1] - goal_xy[1]) > 1e-9:
            raise CheckFailed("reference does not end on the goal cell")
        with open(path, encoding="ascii") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != len(trajectory):
            raise CheckFailed(f"trajectory CSV holds {rows} rows, expected {len(trajectory)}")
        return {"cost": grid_path.cost, "rows": rows,
                "end_x": float(end[0]), "end_y": float(end[1]), "end_theta": float(end[2])}


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="ascii", newline="") as fh:
        return list(csv.DictReader(fh))


def _numbers(rows: list[dict], skip=()) -> list[float]:
    try:
        return [float(v) for row in rows for k, v in row.items() if k not in skip and v != ""]
    except ValueError as err:
        raise CheckFailed(f"unparsable CSV field: {err}") from None


EXPECTED_FILES = {
    "plan": ("trajectory.csv", "plan.svg"),
    "track": ("metrics.csv", "run_fpid-t1.csv", "run_fpid-it2.csv", "run_nmpc.csv",
              "tracking_xy.svg", "tracking_theta.svg"),
    "step": ("step_metrics.csv", "step_x.svg", "step_y.svg", "step_theta.svg"),
    "horizon": ("horizon.csv", "horizon.svg"),
}


class CliSuite(Workload):
    """One omnitrack subcommand per operation, in a fresh process."""

    name = "cli-suite"
    # The workers' set-ups already warmed the import path, the only cache a
    # fresh command process can reuse; the first timed run of each command
    # is the byte-identity baseline for its later runs.
    warmup = "none beyond the workers' imports"

    def __init__(self, ops, workdir: Path, state: dict):
        super().__init__(ops, workdir, state)
        self.digests: dict[str, str] = state.setdefault("digests", {})

    def setup(self) -> None:
        import omnitrack  # noqa: F401  (each command pays this import)

    def prepare(self) -> None:
        for op in self.ops:
            cwd = self.dir / op["command"]
            cwd.mkdir(parents=True, exist_ok=True)
            (cwd / op["config_name"]).write_text(op["config"], encoding="ascii")

    @staticmethod
    def kind(op) -> str:
        return op["command"]

    def warmup_ops(self):
        return []

    def run(self, op, trace_out=None):
        cwd = self.dir / op["command"]
        shutil.rmtree(cwd / "out", ignore_errors=True)
        argv = [sys.executable, str(HERE / "clichild.py"), str(trace_out or "-"),
                op["command"], "--config", op["config_name"], "--out", "out"]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
        return time.perf_counter() - start, proc

    def observe(self, op, proc) -> dict:
        command = op["command"]
        if proc.returncode != 0:
            raise CheckFailed(f"{command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        out = self.dir / command / "out"
        missing = [name for name in EXPECTED_FILES[command] if not (out / name).is_file()]
        if missing:
            raise CheckFailed(f"{command} did not write {', '.join(missing)}")
        digest = hashlib.sha256()
        for path in sorted(out.glob("*.csv")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        if self.digests.setdefault(op["key"], digest.hexdigest()) != digest.hexdigest():
            raise CheckFailed(f"{command} CSV bytes differ from the first run")
        return getattr(self, f"_observe_{command}")(out, proc, op)

    def _observe_plan(self, out: Path, proc, op) -> dict:
        rows = _read_csv(out / "trajectory.csv")
        _require_finite(_numbers(rows), "trajectory.csv")
        words = proc.stdout.split("(cost ", 1)
        try:
            cost = int(words[1].split(")", 1)[0])
        except (IndexError, ValueError):
            raise CheckFailed("plan did not report the path cost") from None
        end = rows[-1]
        return {"cost": cost, "rows": len(rows), "end_x": float(end["x_ref"]),
                "end_y": float(end["y_ref"]), "end_theta": float(end["theta_ref"])}

    def _observe_track(self, out: Path, proc, op) -> dict:
        nmpc = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        nmpc.read_string(op["config"])
        v_max = nmpc.getfloat("nmpc", "v_max", fallback=1.5)
        omega_max = nmpc.getfloat("nmpc", "omega_max", fallback=3.14)
        for controller in workloads.CONTROLLERS:
            rows = _read_csv(out / f"run_{controller}.csv")
            _require_finite(_numbers(rows), f"run_{controller}.csv")
            if controller == "nmpc":
                speed = [math.hypot(float(r["vx_cmd"]), float(r["vy_cmd"])) for r in rows]
                omega = [float(r["omega_cmd"]) for r in rows]
                _require_in_box(speed, omega, v_max, omega_max, "run_nmpc.csv")
        values = {}
        for row in _read_csv(out / "metrics.csv"):
            for name in ("me_xy", "mae_theta"):
                values[f"{row['controller']}.{name}"] = float(row[name])
        _require_finite(list(values.values()), "metrics.csv")
        return values

    def _observe_step(self, out: Path, proc, op) -> dict:
        values = {}
        rows = _read_csv(out / "step_metrics.csv")
        _require_finite(_numbers(rows, skip=("controller", "axis")), "step_metrics.csv")
        for row in rows:
            for name in ("overshoot_pct", "rise_time", "settling_time"):
                values[f"{row['controller']}.{row['axis']}.{name}"] = (
                    float(row[name]) if row[name] else None
                )
        return values

    def _observe_horizon(self, out: Path, proc, op) -> dict:
        values = {}
        rows = _read_csv(out / "horizon.csv")
        _require_finite(_numbers(rows), "horizon.csv")
        for row in rows:
            for name in ("me_xy", "mae_theta"):
                values[f"{row['horizon']}.{name}"] = float(row[name])
        return values


WORKLOAD_CLASSES = {"sweep-noise": SweepNoise, "cli-suite": CliSuite, "plan-maps": PlanMaps}


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def compare(values: dict, reference: dict | None) -> str | None:
    """Failure message when values differ from the recorded reference."""
    if reference is None:
        return "no recorded reference for this operation"
    if set(values) != set(reference):
        return f"outputs {sorted(values)} differ from reference keys {sorted(reference)}"
    bad = [k for k in sorted(values) if not _close(values[k], reference[k])]
    if bad:
        k = bad[0]
        return f"{len(bad)} value(s) differ from the reference, e.g. {k}: {values[k]!r} vs {reference[k]!r}"
    return None


def attempt(workload, op, references, trace_out=None) -> dict:
    """Run one operation and its correctness gate."""
    record = {"key": op["key"], "kind": workload.kind(op), "elapsed": None, "failure": None}
    try:
        record["elapsed"], out = workload.run(op, trace_out=trace_out)
    except Exception as err:  # a raising operation is counted as failed, not fatal
        record["failure"] = f"raised {type(err).__name__}: {err}"
        return record
    try:
        values = workload.observe(op, out)
    except CheckFailed as err:
        record["failure"] = str(err)
        return record
    if workload.seen.setdefault(op["key"], values) != values:
        record["failure"] = "outputs differ from an earlier run of the same operation"
    elif references is not None:
        record["failure"] = compare(values, references.get(op["key"]))
    return record


def run_untraced(workload, ops, references, seconds: float, first: int) -> dict:
    """Warm up, then run the cycle from position ``first`` for ``seconds``."""
    warmup = [attempt(workload, op, references) for op in workload.warmup_ops()]
    records = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        records.append(attempt(workload, ops[(first + len(records)) % len(ops)], references))
    end = time.perf_counter()
    return {"warmup": warmup, "records": records, "elapsed_s": end - start}


def _traced_pass(workload, ops, references) -> dict:
    """Run ops with the tracer on: records, span summary, counts, the
    per-command main() times and import times, and the raw exports."""
    from tracer import Tracer, merge, summarize

    if not isinstance(workload, CliSuite):
        recorder = Tracer()
        recorder.install()
        try:
            records = []
            for index, op in enumerate(ops):
                recorder.op = index
                records.append(attempt(workload, op, references))
        finally:
            recorder.uninstall()
        return {"records": records, "summary": summarize(recorder.spans),
                "counts": recorder.counts, "main_s": {}, "import_s": [],
                "exports": [recorder.export()]}

    out = {"records": [], "counts": {}, "main_s": {}, "import_s": [], "exports": []}
    for op in ops:
        trace_out = workload.dir / op["command"] / "trace.json"
        trace_out.unlink(missing_ok=True)
        out["records"].append(attempt(workload, op, references, trace_out=trace_out))
        if not trace_out.exists():
            continue
        data = json.loads(trace_out.read_text(encoding="ascii"))
        out["exports"].append(data)
        out["import_s"].append(data["import_s"])
        out["main_s"][op["command"]] = data["main_s"]
        counts = out["counts"]
        for key, value in data["counts"].items():
            combine = max if key.endswith("_max") else operator.add
            counts[key] = combine(counts.get(key, 0), value)
    out["summary"] = merge(summarize(data["spans"]) for data in out["exports"])
    return out


def run_traced(workload, ops, references, seconds: float, import_s: float) -> dict:
    """Alternate untraced and traced passes over a fixed operation list."""
    pass_ops = ops[: workloads.TRACE_PASS_OPS[workload.name]]
    warmup = [attempt(workload, op, references) for op in pass_ops]
    records, passes, exports, imports = [], [], [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        # Swap which half runs first on every pass, so drift cancels out.
        if len(passes) % 2:
            traced = _traced_pass(workload, pass_ops, references)
            plain = [attempt(workload, op, references) for op in pass_ops]
        else:
            plain = [attempt(workload, op, references) for op in pass_ops]
            traced = _traced_pass(workload, pass_ops, references)
        records += plain + traced["records"]
        exports += traced["exports"]
        imports += traced["import_s"]
        passes.append({
            "untraced_s": sum(r["elapsed"] or 0.0 for r in plain),
            "traced_s": sum(r["elapsed"] or 0.0 for r in traced["records"]),
            "layers": metrics.pass_layers(traced["summary"], traced["counts"], traced["main_s"]),
        })
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break  # another pair would overrun the measuring time

    layers = {}
    for metric, _ in metrics.PER_LAYER:
        if metric == "cli.import_s":
            layers[metric] = metrics.median(imports or [import_s])
        elif metric == "trace.overhead_ratio":
            layers[metric] = metrics.median([p["traced_s"] for p in passes]) / metrics.median(
                [p["untraced_s"] for p in passes]
            )
        elif metric in metrics.EXACT:
            layers[metric] = passes[0]["layers"][metric]
        else:
            layers[metric] = metrics.median([p["layers"][metric] for p in passes])
    unstable = sorted(m for m in metrics.EXACT if len({p["layers"][m] for p in passes}) > 1)
    (workload.dir / "spans.json").write_text(json.dumps(exports), encoding="ascii")
    return {"warmup": warmup, "records": records, "passes": len(passes),
            "pass_ops": len(pass_ops), "layers": layers, "unstable_counts": unstable}


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("seconds", type=float)
    parser.add_argument("trace", type=int, choices=(0, 1))
    args = parser.parse_args()

    start = time.perf_counter()
    if args.trace:
        import omnitrack.cli  # noqa: F401  (cli.import_s: the entry point pulls in the package)
    else:
        import omnitrack  # noqa: F401
    import_s = time.perf_counter() - start

    inputs = json.loads((args.workdir / "inputs.json").read_text(encoding="ascii"))
    ops = inputs["ops"]
    state_path = args.workdir / "state.json"
    state = json.loads(state_path.read_text(encoding="ascii")) if state_path.exists() else {"next": 0}
    workload = WORKLOAD_CLASSES[args.workload](ops, args.workdir, state)
    workload.setup()
    print(f"ready {time.monotonic()!r}", flush=True)

    workload.prepare()
    references = None
    if inputs["seed"] == workloads.DEFAULT_SEED:
        references = json.loads(REFERENCE_PATH.read_text(encoding="ascii"))[args.workload]
    if args.trace:
        result = run_traced(workload, ops, references, args.seconds, import_s)
    else:
        result = run_untraced(workload, ops, references, args.seconds, state["next"])
        state["next"] += len(result["records"])
    result["warmup_note"] = (
        "one untimed, untraced pass of the traced operations" if args.trace else workload.warmup
    )
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }
    result["peak_rss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    (args.workdir / "result.json").write_text(json.dumps(result), encoding="ascii")
    state_path.write_text(json.dumps(state), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
