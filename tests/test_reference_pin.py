"""Tier-1 pins the lab's numbers to the benchmark's recorded reference.

``perfbench/reference.json`` holds the default-seed outputs of every
benchmark operation.  These tests recompute a sample of them in-process,
with the benchmark's own workload code, and compare them by its rule
(``worker.compare``, which applies ``worker._close``: 1e-9 relative,
1e-12 absolute).  The sample:

- cli-suite's ``track``, ``step`` and ``horizon`` on the bundled configs;
- three plan-maps grids;
- two noisy sweep-noise episodes each for fpid-t1 and fpid-it2, whose
  inputs never repeat, so every step runs a fresh fuzzy inference.
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from omnitrack.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_worker():
    """``perfbench/worker.py``, which imports its siblings by bare name."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("omnitrack_bench_worker", BENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


worker = load_worker()
workloads = worker.workloads
SEED = workloads.DEFAULT_SEED
REFERENCE = json.loads(worker.REFERENCE_PATH.read_text(encoding="ascii"))


def ops(workload, keys):
    by_key = {op["key"]: op for op in workloads.generate(workload, SEED)}
    return [by_key[key] for key in keys]


def check(workload, key, values):
    failure = worker.compare(values, REFERENCE[workload][key])
    assert failure is None, f"{workload} {key}: {failure}"


@pytest.mark.parametrize("command", ["track", "step", "horizon"])
def test_cli_suite_values_match_the_reference(command, tmp_path, capsys):
    (op,) = ops("cli-suite", [command])
    suite = worker.CliSuite([op], tmp_path, {})
    suite.prepare()
    cwd = tmp_path / command
    code = main([command, "--config", str(cwd / op["config_name"]), "--out", str(cwd / "out")])
    proc = SimpleNamespace(returncode=code, stdout=capsys.readouterr().out, stderr="")
    check("cli-suite", command, suite.observe(op, proc))


def test_plan_maps_values_match_the_reference(tmp_path, monkeypatch):
    # One seeded stream draws the grids in ladder order, so the first three
    # sizes of the ladder give the first three grids; all 32 take 0.6 s.
    monkeypatch.setattr(workloads, "PLAN_SIZES", workloads.PLAN_SIZES[:3])
    keys = ["0", "1", "2"]
    plans = worker.PlanMaps(ops("plan-maps", keys), tmp_path, {})
    plans.prepare()
    for op in plans.ops:
        _, out = plans.run(op)
        check("plan-maps", op["key"], plans.observe(op, out))


def test_sweep_noise_values_match_the_reference(tmp_path):
    keys = ["fpid-t1/0", "fpid-t1/1", "fpid-it2/0", "fpid-it2/1"]
    sweep = worker.SweepNoise(ops("sweep-noise", keys), tmp_path, {})
    sweep.setup()
    for op in sweep.ops:
        _, episode = sweep.run(op)
        check("sweep-noise", op["key"], sweep.observe(op, episode))
