"""Outside-in tracer: spans around calls into omnitrack's public functions.

The tracer patches the attribute each caller actually looks up (for
example ``omnitrack.simlab.inverse_kinematics`` rather than the name in
``omnitrack.kinematics``), records one span per call in memory and
restores every attribute on :meth:`Tracer.uninstall`.  Nothing inside the
package is edited.  Spans are written out only when the run ends.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span in the same list (-1 at top level) and ``op`` the
benchmark operation that caused it.  Self time is a span's duration minus
the part of its interval covered by its direct children.
"""

from __future__ import annotations

import importlib
import os
import time

# (module, attribute, span name).  Every attribute must exist: a package
# change that renames or inlines one must update this list, rather than
# silently turn its layer's time and count into zeros.
PATCHES = (
    ("omnitrack.planning", "astar", "planning.astar"),
    ("omnitrack.planning", "smooth", "planning.smooth"),
    ("omnitrack.planning", "sample_reference", "planning.sample_reference"),
    ("omnitrack.planning", "write_trajectory_csv", "planning.write_trajectory_csv"),
    ("omnitrack.cli", "write_trajectory_csv", "planning.write_trajectory_csv"),
    ("omnitrack.fuzzy:Type1Engine", "infer", "fuzzy.t1_infer"),
    ("omnitrack.fuzzy:Type2Engine", "infer", "fuzzy.it2_infer"),
    ("omnitrack.fuzzy", "km_centroid", "fuzzy.km_centroid"),
    ("omnitrack.fpid:FuzzyPidController", "command", "fpid.command"),
    ("omnitrack.nmpc:NmpcController", "command", "nmpc.command"),
    ("omnitrack.nmpc", "solve", "nmpc.solve"),
    ("omnitrack.nmpc", "defects", "nmpc.defects"),
    ("omnitrack.nmpc", "rollout", "nmpc.rollout"),
    ("omnitrack.simlab", "inverse_kinematics", "kinematics.plant"),
    ("omnitrack.simlab", "forward_kinematics", "kinematics.plant"),
    ("omnitrack.simlab", "integrate_pose", "kinematics.plant"),
    ("omnitrack.simlab", "run_episode", "simlab.run_episode"),
    ("omnitrack.cli", "run_episode", "simlab.run_episode"),
    ("omnitrack.simlab:NoiseModel", "sample", "simlab.noise_sample"),
    ("omnitrack.cli", "run_step_response", "simlab.run_step_response"),
    ("omnitrack.cli", "write_run_csv", "simlab.write_run_csv"),
    ("omnitrack.cli", "write_metrics_csv", "simlab.write_metrics_csv"),
    ("omnitrack.cli", "write_step_csv", "simlab.write_step_csv"),
    ("omnitrack.cli", "write_horizon_csv", "simlab.write_horizon_csv"),
    ("omnitrack.svgplot", "line_chart", "svgplot.render"),
    ("omnitrack.svgplot", "bar_chart", "svgplot.render"),
    ("omnitrack.svgplot", "grid_overlay", "svgplot.render"),
)

# Writers whose output size is counted; the path is their second argument
# (first for svgplot).
BYTE_COUNTERS = {
    "planning.write_trajectory_csv": ("planning.csv_bytes", 1),
    "simlab.write_run_csv": ("simlab.csv_bytes", 1),
    "simlab.write_metrics_csv": ("simlab.csv_bytes", 1),
    "simlab.write_step_csv": ("simlab.csv_bytes", 1),
    "simlab.write_horizon_csv": ("simlab.csv_bytes", 1),
    "svgplot.render": ("svgplot.bytes", 0),
}


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "planning.astar":

            def astar(grid, start, goal, count_expansions=False):
                path, expansions = tracer.call(
                    name, fn, grid, start, goal, count_expansions=True
                )
                tracer.count("planning.astar_expansions", expansions)
                return (path, expansions) if count_expansions else path

            return astar
        if name == "nmpc.solve":

            def solve(*args, **kwargs):
                solution = tracer.call(name, fn, *args, **kwargs)
                tracer.count("nmpc.gn_iterations", solution.iterations)
                tracer.counts["nmpc.iterations_max"] = max(
                    tracer.counts.get("nmpc.iterations_max", 0), int(solution.iterations)
                )
                if not solution.converged:
                    tracer.count("nmpc.nonconverged")
                return solution

            return solve
        if name in BYTE_COUNTERS:
            counter, position = BYTE_COUNTERS[name]

            def writer(*args, **kwargs):
                result = tracer.call(name, fn, *args, **kwargs)
                tracer.count(counter, os.path.getsize(args[position]))
                return result

            return writer

        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Patch every attribute in :data:`PATCHES`."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target, attr, name in PATCHES:
            owner = _resolve(target)
            # A class's own __dict__, so that an inherited method is not wrapped twice.
            original = vars(owner).get(attr)
            if original is None:
                self.uninstall()
                raise AttributeError(f"tracer patch target {target}.{attr} does not exist")
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def export(self) -> dict:
        """Spans and counts as plain JSON-ready data."""
        return {"spans": [list(s) for s in self.spans], "counts": dict(self.counts)}


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(start, end, children.get(i, []))
        for i, (_, start, end, *_) in enumerate(spans)
    ]


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total and self seconds, durations."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end = span[0], span[1], span[2]
        entry = out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        )
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
        entry["durations"].append(end - start)
    return out


def merge(summaries) -> dict[str, dict]:
    """Combine summaries of several processes or passes."""
    out: dict[str, dict] = {}
    for summary in summaries:
        for name, entry in summary.items():
            acc = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            )
            acc["calls"] += entry["calls"]
            acc["total_s"] += entry["total_s"]
            acc["self_s"] += entry["self_s"]
            acc["durations"].extend(entry["durations"])
    return out
