"""Tests of the benchmark itself: arithmetic, generators, tracer, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import tracer
import workloads

BENCH = Path(__file__).resolve().parents[1]


def test_self_time_subtracts_covered_child_time():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.child", 2.0, 3.0, 1, 0),
        ("b", 5.0, 7.0, 0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),  # overlaps a on [3, 4]
        ("c", 9.0, 12.0, 0, 0),  # runs past the parent's end
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_summarize_and_merge_add_up():
    spans = [("x", 0.0, 2.0, -1, 0), ("y", 0.5, 1.0, 0, 0), ("x", 3.0, 4.0, -1, 1)]
    summary = tracer.summarize(spans)
    assert summary["x"]["calls"] == 2
    assert summary["x"]["total_s"] == pytest.approx(3.0)
    assert summary["x"]["self_s"] == pytest.approx(2.5)
    merged = tracer.merge([summary, summary])
    assert merged["x"]["calls"] == 4 and merged["y"]["durations"] == [0.5, 0.5]


@pytest.mark.parametrize("n", [11, 12, 40, 100, 1000])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    samples = [float(i) for i in range(n, 0, -1)]
    value, pct = metrics.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    with pytest.raises(ValueError):
        metrics.tail([])


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert metrics.percentile(samples, 50) == 50
    assert metrics.percentile(samples, 99) == 99
    assert metrics.percentile([], 50) == 0.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    keys = [op["key"] for op in workloads.generate(workload, 7)]
    assert len(keys) == len(set(keys))


def test_seed_changes_the_generated_inputs():
    for workload in ("sweep-noise", "plan-maps"):
        assert workloads.generate(workload, 1) != workloads.generate(workload, 2)
    assert workloads.generate("sweep-noise", 0)[0]["noise_seed"] == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plan_maps_grids_are_connected(seed):
    ops = workloads.generate("plan-maps", seed)
    assert sorted(op["size"] for op in ops) == sorted(workloads.PLAN_SIZES)
    for op in ops:
        size, start, goal = op["size"], tuple(op["start"]), tuple(op["goal"])
        assert len(op["rows"]) == size and all(len(row) == size for row in op["rows"])
        assert op["rows"][start[1]][start[0]] == "0" and op["rows"][goal[1]][goal[0]] == "0"
        assert workloads.bfs_distances(op["rows"], start).get(goal) == op["distance"]
        assert workloads.PLAN_FILL[0] <= op["fill"] <= workloads.PLAN_FILL[1]
        assert op["total_time"] > op["ts"]


def test_tracer_counts_expansions_and_restores_attributes():
    import numpy as np
    from omnitrack import planning

    grid = planning.OccupancyGrid(np.zeros((8, 8), dtype=np.uint8), 0.25)
    original = planning.astar
    _, expected = original(grid, (0, 0), (7, 7), count_expansions=True)
    recorder = tracer.Tracer()
    recorder.install()
    try:
        path, _, _ = planning.plan_reference(grid, (0, 0), (7, 7), 5.0, 0.1)
        assert planning.astar(grid, (0, 0), (7, 7)).cells == path.cells
    finally:
        recorder.uninstall()
    assert planning.astar is original
    assert recorder.counts["planning.astar_expansions"] == 2 * expected
    names = {span[0] for span in recorder.spans}
    assert {"planning.astar", "planning.smooth", "planning.sample_reference"} <= names


def test_tracer_refuses_a_missing_patch_target(monkeypatch):
    from omnitrack import planning

    original = planning.astar
    monkeypatch.setattr(tracer, "PATCHES", (
        ("omnitrack.planning", "astar", "planning.astar"),
        ("omnitrack.planning", "no_such_function", "planning.missing"),
    ))
    with pytest.raises(AttributeError, match="no_such_function"):
        tracer.Tracer().install()
    assert planning.astar is original


def test_combine_joins_a_runs_workers():
    import run

    parts = [
        {"warmup": [1], "records": [2, 3], "elapsed_s": 1.5, "peak_rss_kb": 10, "note": "a"},
        {"warmup": [4], "records": [5], "elapsed_s": 2.0, "peak_rss_kb": 30, "note": "b"},
    ]
    result = run.combine(parts)
    assert result["warmup"] == [1, 4] and result["records"] == [2, 3, 5]
    assert result["elapsed_s"] == 3.5 and result["peak_rss_kb"] == 30 and result["note"] == "b"


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_its_correctness_gate(workload):
    summary, report = _run(workload, 0)
    assert summary["correct"] and summary["failed"] == 0, report
    assert summary["attempted"] >= 1
    assert set(summary["metrics"]) == {name for name, _ in metrics.END_TO_END}
    assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_traced_smoke_run_reports_every_layer():
    summary, report = _run("plan-maps", 1)
    assert summary["correct"], report
    assert set(summary["metrics"]) == {name for name, _ in metrics.PER_LAYER}
    assert summary["metrics"]["planning.astar_expansions"]["value"] > 0
