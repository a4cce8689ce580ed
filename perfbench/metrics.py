"""Metric definitions and the arithmetic behind them (standard library only)."""

from __future__ import annotations

import math
import statistics

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("peak_rss_mb", "MB"),
)

# Printed in the report but not in the result JSON: they apply to one
# workload only, and failed_ratio is 0 on a correct program.
REPORT_ONLY = (
    ("failed_ratio", "ratio"),
    ("episode_s.fpid-t1", "s"),
    ("episode_s.fpid-it2", "s"),
    ("episode_s.nmpc", "s"),
    ("cmd_s.plan", "s"),
    ("cmd_s.track", "s"),
    ("cmd_s.step", "s"),
    ("cmd_s.horizon", "s"),
)

# Per-layer metrics of the traced run.  Times and counts are per traced
# pass (a fixed list of operations, see workloads.TRACE_PASS_OPS).
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.main_s.plan", "s"),
    ("cli.main_s.track", "s"),
    ("cli.main_s.step", "s"),
    ("cli.main_s.horizon", "s"),
    ("planning.astar_s", "s"),
    ("planning.astar_expansions", "count"),
    ("planning.smooth_s", "s"),
    ("planning.sample_reference_s", "s"),
    ("planning.write_trajectory_csv_s", "s"),
    ("planning.csv_bytes", "bytes"),
    ("fuzzy.t1_infer_s", "s"),
    ("fuzzy.t1_infer_calls", "count"),
    ("fuzzy.it2_infer_s", "s"),
    ("fuzzy.it2_infer_calls", "count"),
    ("fuzzy.km_centroid_s", "s"),
    ("fuzzy.km_centroid_calls", "count"),
    ("fpid.command_self_s", "s"),
    ("fpid.command_ms_p50", "ms"),
    ("fpid.command_ms_p99", "ms"),
    ("nmpc.solve_s", "s"),
    ("nmpc.solve_calls", "count"),
    ("nmpc.gn_iterations", "count"),
    ("nmpc.iterations_max", "count"),
    ("nmpc.nonconverged", "count"),
    ("nmpc.nonconverged_ratio", "ratio"),
    ("nmpc.defects_s", "s"),
    ("nmpc.rollout_s", "s"),
    ("nmpc.rollout_calls", "count"),
    ("nmpc.command_ms_p50", "ms"),
    ("nmpc.command_ms_p99", "ms"),
    ("kinematics.plant_s", "s"),
    ("kinematics.plant_calls", "count"),
    ("simlab.run_episode_s", "s"),
    ("simlab.loop_self_s", "s"),
    ("simlab.noise_sample_s", "s"),
    ("simlab.run_step_response_s", "s"),
    ("simlab.write_run_csv_s", "s"),
    ("simlab.csv_bytes", "bytes"),
    ("svgplot.render_s", "s"),
    ("svgplot.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)

# Metrics that do not depend on timing: they must repeat exactly from one
# traced pass to the next.
EXACT = tuple(name for name, unit in PER_LAYER if unit in ("count", "bytes")) + (
    "nmpc.nonconverged_ratio",
)


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile (the smallest sample with at least pct % at or below it)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile)``: the 11th-largest sample, which is the
    nearest-rank percentile 100 * (n - 10) / n.  With 10 samples or fewer
    no percentile qualifies, and the maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def pass_layers(summary: dict, counts: dict, main_s: dict) -> dict:
    """Per-layer values of one traced pass (everything except import and overhead).

    ``summary`` maps span names to calls/total_s/self_s/durations summed
    over the pass; ``counts`` holds the tracer's counters; ``main_s`` maps
    a CLI command to the wall time of its in-process ``main()``.
    """
    def span(name, field="total_s"):
        entry = summary.get(name)
        return entry[field] if entry else 0

    def ms(name, pct):
        entry = summary.get(name)
        return 1e3 * percentile(entry["durations"], pct) if entry else 0.0

    solves = span("nmpc.solve", "calls")
    nonconverged = counts.get("nmpc.nonconverged", 0)
    values = {f"cli.main_s.{cmd}": main_s.get(cmd, 0.0) for cmd in ("plan", "track", "step", "horizon")}
    values.update({
        "planning.astar_s": span("planning.astar"),
        "planning.astar_expansions": counts.get("planning.astar_expansions", 0),
        "planning.smooth_s": span("planning.smooth"),
        "planning.sample_reference_s": span("planning.sample_reference"),
        "planning.write_trajectory_csv_s": span("planning.write_trajectory_csv"),
        "planning.csv_bytes": counts.get("planning.csv_bytes", 0),
        "fuzzy.t1_infer_s": span("fuzzy.t1_infer"),
        "fuzzy.t1_infer_calls": span("fuzzy.t1_infer", "calls"),
        "fuzzy.it2_infer_s": span("fuzzy.it2_infer"),
        "fuzzy.it2_infer_calls": span("fuzzy.it2_infer", "calls"),
        "fuzzy.km_centroid_s": span("fuzzy.km_centroid"),
        "fuzzy.km_centroid_calls": span("fuzzy.km_centroid", "calls"),
        "fpid.command_self_s": span("fpid.command", "self_s"),
        "fpid.command_ms_p50": ms("fpid.command", 50),
        "fpid.command_ms_p99": ms("fpid.command", 99),
        "nmpc.solve_s": span("nmpc.solve"),
        "nmpc.solve_calls": solves,
        "nmpc.gn_iterations": counts.get("nmpc.gn_iterations", 0),
        "nmpc.iterations_max": counts.get("nmpc.iterations_max", 0),
        "nmpc.nonconverged": nonconverged,
        "nmpc.nonconverged_ratio": nonconverged / solves if solves else 0.0,
        "nmpc.defects_s": span("nmpc.defects"),
        "nmpc.rollout_s": span("nmpc.rollout"),
        "nmpc.rollout_calls": span("nmpc.rollout", "calls"),
        "nmpc.command_ms_p50": ms("nmpc.command", 50),
        "nmpc.command_ms_p99": ms("nmpc.command", 99),
        "kinematics.plant_s": span("kinematics.plant"),
        "kinematics.plant_calls": span("kinematics.plant", "calls"),
        "simlab.run_episode_s": span("simlab.run_episode"),
        "simlab.loop_self_s": span("simlab.run_episode", "self_s"),
        "simlab.noise_sample_s": span("simlab.noise_sample"),
        "simlab.run_step_response_s": span("simlab.run_step_response"),
        "simlab.write_run_csv_s": span("simlab.write_run_csv"),
        "simlab.csv_bytes": counts.get("simlab.csv_bytes", 0),
        "svgplot.render_s": span("svgplot.render"),
        "svgplot.bytes": counts.get("svgplot.bytes", 0),
    })
    return values
