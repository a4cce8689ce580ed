"""Deterministic workload inputs, generated from the workload seed.

Standard library only: run.py builds the inputs before it
starts any process that imports omnitrack, so input generation is never
part of a timed region or of ``setup_s``.
"""

from __future__ import annotations

import collections
import random
from pathlib import Path

WORKLOADS = ("sweep-noise", "cli-suite", "plan-maps")
DEFAULT_SEED = 0
CONTROLLERS = ("fpid-t1", "fpid-it2", "nmpc")
COMMANDS = ("plan", "track", "step", "horizon")

# sweep-noise: noise seeds per workload seed (acceptance criterion 6 uses 20).
SWEEP_SEEDS = 20

# plan-maps: one grid per size on a fixed ladder, so every workload seed
# sees the same mix of sizes and only the cells and end points change.
PLAN_SIZES = tuple(20 + round(140 * i / 31) for i in range(32))
PLAN_FILL = (0.2, 0.3)
PLAN_RESOLUTION = 0.25
PLAN_TS = 0.1
# The bundled scenario covers a 38-cell path in 30 s; keep that pace.
PLAN_SECONDS_PER_CELL = 30.0 / 38.0

# Operations per traced pass: one noise seed for all three controllers, the
# four commands once, every grid once.
TRACE_PASS_OPS = {"sweep-noise": 3, "cli-suite": 4, "plan-maps": len(PLAN_SIZES)}

# The bundled configs, as a CLI user runs them.
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
COMMAND_CONFIGS = {"plan": "track.ini", "track": "track.ini", "step": "step.ini", "horizon": "horizon.ini"}


def sweep_noise_ops(seed: int) -> list[dict]:
    """Every controller on each of the seed's noise seeds, seed-major."""
    noise_seeds = range(SWEEP_SEEDS * seed, SWEEP_SEEDS * (seed + 1))
    return [
        {"key": f"{controller}/{noise_seed}", "controller": controller, "noise_seed": noise_seed}
        for noise_seed in noise_seeds
        for controller in CONTROLLERS
    ]


def cli_config_text(command: str, seed: int) -> str:
    """Bundled config for a command with its ``seed`` key set and its
    ``out`` key dropped (the benchmark always passes ``--out``)."""
    lines = (CONFIG_DIR / COMMAND_CONFIGS[command]).read_text(encoding="ascii").splitlines()
    lines = [f"seed = {seed}" if line.startswith("seed") else line
             for line in lines if not line.startswith("out")]
    return "\n".join(lines) + "\n"


def cli_suite_ops(seed: int) -> list[dict]:
    """The four subcommands on the bundled configs.

    The seed only sets the configs' ``seed`` key; with noise off it does
    not change the outputs, so every seed runs the same work.
    """
    return [
        {"key": command, "command": command, "config_name": COMMAND_CONFIGS[command],
         "config": cli_config_text(command, seed)}
        for command in COMMANDS
    ]


def bfs_distances(rows: list[str], start: tuple[int, int]) -> dict[tuple[int, int], int]:
    """4-connected step distances from start over free ('0') cells.

    ``rows[r][c]`` is cell (col c, row r).  This is the generator's own
    connectivity oracle, independent of the package's A*.
    """
    height, width = len(rows), len(rows[0])
    dist = {start: 0}
    queue = collections.deque([start])
    while queue:
        col, row = queue.popleft()
        for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (col + dc, row + dr)
            if (0 <= nxt[0] < width and 0 <= nxt[1] < height
                    and rows[nxt[1]][nxt[0]] == "0" and nxt not in dist):
                dist[nxt] = dist[(col, row)] + 1
                queue.append(nxt)
    return dist


def random_grid(rng: random.Random, size: int) -> dict:
    """One square grid with a connected start (lower-left quarter) and
    goal (upper-right quarter); redrawn until such a pair exists.

    The goal is a reachable cell whose BFS distance is closest to
    1.5 * (size - 1), so path length, and with it the work of one plan,
    depends on the size and hardly on the seed.
    """
    corner = max(2, size // 4)
    target = round(1.5 * (size - 1))
    while True:
        fill = rng.uniform(*PLAN_FILL)
        rows = ["".join("1" if rng.random() < fill else "0" for _ in range(size))
                for _ in range(size)]
        starts = [(c, r) for r in range(corner) for c in range(corner) if rows[r][c] == "0"]
        if not starts:
            continue
        start = rng.choice(starts)
        dist = bfs_distances(rows, start)
        goals = [(c, r) for r in range(size - corner, size)
                 for c in range(size - corner, size) if (c, r) in dist]
        if not goals:
            continue
        best = min(abs(dist[g] - target) for g in goals)
        goal = rng.choice([g for g in goals if abs(dist[g] - target) == best])
        return {"size": size, "fill": fill, "rows": rows, "start": start, "goal": goal,
                "distance": dist[goal]}


def plan_maps_ops(seed: int) -> list[dict]:
    """One connected random grid per ladder size, in a seeded order."""
    rng = random.Random(f"plan-maps:{seed}")
    ops = []
    for index, size in enumerate(PLAN_SIZES):
        grid = random_grid(rng, size)
        grid["key"] = str(index)
        grid["total_time"] = round(grid["distance"] * PLAN_SECONDS_PER_CELL, 1)
        grid["ts"] = PLAN_TS
        grid["resolution"] = PLAN_RESOLUTION
        ops.append(grid)
    rng.shuffle(ops)
    return ops


GENERATORS = {"sweep-noise": sweep_noise_ops, "cli-suite": cli_suite_ops, "plan-maps": plan_maps_ops}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's operation cycle for a seed; identical for equal seeds."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return GENERATORS[workload](seed)
