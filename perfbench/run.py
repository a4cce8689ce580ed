"""omnitrack benchmark: the command that runs it.

    python3 perfbench/run.py --workload cli-suite --seed 0 --seconds 45 --trace 0

Runs one workload (or ``all`` of them, one after another) in fresh
interpreters, checks every operation's output and prints a report
followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the per-layer metrics: passes over a fixed list of
operations alternate untraced and traced, and ``trace.overhead_ratio`` is
traced over untraced wall time.  Standard library only; the package under
test is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Everything the benchmark writes lives here, bytecode caches included, so
# that a run leaves the rest of the checkout unchanged.  Child processes
# write their caches here too: after the first set-up in a checkout, imports
# read cached bytecode, as they do for a user.
WORK = ROOT / ".perfbench-work"
sys.pycache_prefix = str(WORK / "pycache")

import metrics  # noqa: E402
import workloads  # noqa: E402

# An untraced run measures its --seconds in this many fresh workers, one
# after another, each for an equal share.  Each worker's start is one
# set-up sample and setup_s is their median, so the samples spread over the
# whole run instead of its first seconds: the shared machine's speed
# changes within a run, and samples taken together all see the same speed.
SEGMENTS = 9
# The whole run, every worker included, must end within this many seconds.
RUN_BUDGET_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({name: "1" for name in THREAD_VARS})
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONPYCACHEPREFIX": str(WORK / "pycache"),
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
    })
    return env


def snapshot(root: Path) -> dict:
    """Size and mtime of every file and directory, benchmark work dirs excluded."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(root):
        if Path(dirpath) == root:
            dirnames[:] = [d for d in dirnames if d not in (WORK.name, ".bench_build", ".git")]
        for name in dirnames + filenames:
            path = Path(dirpath, name)
            st = path.lstat()
            state[str(path.relative_to(root))] = (st.st_size, st.st_mtime_ns)
    return state


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (checkout is not a git repository)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as err:
        return f"unknown ({err})"
    return out.stdout.strip() or "unknown"


def start_worker(workload: str, workdir: Path, seconds: float, trace: int,
                 deadline: float) -> tuple[float, subprocess.Popen]:
    """Start a worker and wait for its set-up; returns set-up seconds."""
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(workdir), str(seconds), str(trace)]
    spawned = time.monotonic()
    # Its own process group, so that stop() also ends the commands it started.
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        line = proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "ready":
            raise BenchmarkError(f"{workload} worker failed during set-up")
        if time.monotonic() > deadline:
            raise BenchmarkError(f"{workload} set-up overran the run budget")
        return float(line[1]) - spawned, proc
    except BaseException:
        stop(proc)
        raise


def stop(proc: subprocess.Popen) -> None:
    """Kill a still-running worker with the commands it started, and reap it."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    proc.stdout.close()


def finish(proc: subprocess.Popen, deadline: float, workload: str) -> None:
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} worker overran the run budget") from None
    finally:
        stop(proc)
    if code != 0:
        raise BenchmarkError(f"{workload} worker exited {code}")


def combine(parts: list[dict]) -> dict:
    """One result from the results of a run's successive workers."""
    result = dict(parts[-1])
    for key in ("warmup", "records"):
        result[key] = [r for part in parts for r in part[key]]
    if "elapsed_s" in result:
        result["elapsed_s"] = sum(part["elapsed_s"] for part in parts)
    result["peak_rss_kb"] = max(part["peak_rss_kb"] for part in parts)
    return result


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics with their sample counts, and report lines."""
    records = result["records"]
    good = [r for r in records if r["failure"] is None]
    latencies = [r["elapsed"] for r in records if r["elapsed"] is not None]
    if not latencies:
        raise BenchmarkError("no operation completed")
    tail, tail_pct = metrics.tail(latencies)
    values = {
        "setup_s": (metrics.median(setups), len(setups), "median of fresh-interpreter set-ups"),
        "ops_per_s": (len(good) / result["elapsed_s"], len(good), "correct operations per second"),
        "op_s_p50": (metrics.median(latencies), len(latencies), "median operation latency"),
        "op_s_tail": (tail, len(latencies), f"p{tail_pct:.1f}, 10 samples beyond it"
                      if len(latencies) > 10 else "maximum: too few samples for 10 beyond"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, 1, "peak resident set of the workload process and its children"),
    }
    attempted = result["warmup"] + records
    failed = sum(r["failure"] is not None for r in attempted)
    values["failed_ratio"] = (failed / len(attempted), len(attempted), "failed over attempted operations, warm-up included")
    for name, _ in metrics.REPORT_ONLY:
        _, _, kind = name.partition(".")
        if not kind:
            continue
        samples = [r["elapsed"] for r in records if r["kind"] == kind and r["elapsed"] is not None]
        values[name] = (metrics.median(samples), len(samples), "median") if samples else None
    units = dict(metrics.END_TO_END + metrics.REPORT_ONLY)
    lines = []
    for name, unit in metrics.END_TO_END + metrics.REPORT_ONLY:
        if values[name] is None:
            lines.append(f"  {name:<22} n/a on this workload")
        else:
            value, n, note = values[name]
            lines.append(f"  {name:<22} {value:<14.6g} {unit:<6} n={n:<5} {note}")
    out = {name: {"value": values[name][0], "unit": units[name]} for name, _ in metrics.END_TO_END}
    return out, lines


def per_layer(result: dict) -> tuple[dict, list[str]]:
    units = dict(metrics.PER_LAYER)
    note = f"per pass of {result['pass_ops']} operations, median of {result['passes']} traced passes"
    lines = [f"  ({note}; counts must repeat exactly in every pass)"]
    for name, unit in metrics.PER_LAYER:
        lines.append(f"  {name:<32} {result['layers'][name]:<14.6g} {unit}")
    out = {name: {"value": result["layers"][name], "unit": units[name]} for name, _ in metrics.PER_LAYER}
    return out, lines


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    before = snapshot(ROOT)
    ops = workloads.generate(workload, seed)
    (workdir / "inputs.json").write_text(json.dumps({"seed": seed, "ops": ops}), encoding="ascii")

    segments = 1 if trace else SEGMENTS
    setups, parts = [], []
    for _ in range(segments):
        setup_s, proc = start_worker(workload, workdir, seconds / segments, trace, deadline)
        setups.append(setup_s)
        finish(proc, deadline, workload)
        parts.append(json.loads((workdir / "result.json").read_text(encoding="ascii")))
    result = combine(parts)

    changed = sorted(set(before.items()) ^ set(snapshot(ROOT).items()))
    records = result["warmup"] + result["records"]
    failures = [r for r in records if r["failure"] is not None]
    if trace:
        values, lines = per_layer(result)
    else:
        values, lines = end_to_end(result, setups)
    problems = [f"{r['key']}: {r['failure']}" for r in failures[:5]]
    if changed:
        problems.append("run changed the checkout: " + ", ".join(sorted({p for p, _ in changed})[:5]))
    if result.get("unstable_counts"):
        problems.append("counts differ between traced passes: " + ", ".join(result["unstable_counts"]))
    env = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        **result["versions"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {name: "1" for name in THREAD_VARS},
        "commit": git_commit(),
        "warmup": result["warmup_note"],
        "wall_s": round(time.monotonic() - started, 3),
    }
    report = [f"workload {workload} seed {seed} seconds {seconds} trace {trace}",
              "env " + json.dumps(env), *lines]
    report += [f"  FAILED {p}" for p in problems]
    return {
        "report": report,
        "summary": {"correct": not problems, "attempted": len(records),
                    "failed": len(failures), "metrics": values},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="omnitrack benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "omnitrack" / "__init__.py").is_file():
        print(f"error: no omnitrack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        try:
            outcome = run_workload(args.workload, args.seed, args.seconds, args.trace)
        except BenchmarkError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        print("\n".join(outcome["report"]))
        print(json.dumps(outcome["summary"]))
        return 0

    # One fresh run.py process per workload, one after another.
    summaries = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=RUN_BUDGET_S + 30,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {workload} failed", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        summaries[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {w: s["metrics"] for w, s in summaries.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
