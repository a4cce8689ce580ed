"""Every attribute the benchmark tracer patches exists in the package.

The tracer in ``perfbench/tracer.py`` wraps named functions and methods
of ``omnitrack``; a rename or an inlined function there would stop the
benchmark at install time.  This reads the tracer's table without
installing it, so a renamed target fails here first.  The names it
patches on ``omnitrack.cli`` work only while the CLI looks each one up
there when it calls it, and passes the path a byte counter reads by
position; a spy on each checks both on a short run.
"""

import importlib.util
from pathlib import Path

import pytest

from omnitrack.cli import EXIT_OK, main

from test_cli import write_config

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("omnitrack_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("target, attr", [(t, a) for t, a, _ in tracer.PATCHES])
def test_tracer_patch_target_exists(target, attr):
    # The class's own namespace, as the tracer reads it.
    assert attr in vars(tracer._resolve(target))


# The subcommand that reaches each name the tracer patches on omnitrack.cli,
# and each svgplot chart the CLI draws.
REACHED_BY = {
    "write_trajectory_csv": "plan",
    "grid_overlay": "plan",
    "run_episode": "track",
    "write_run_csv": "track",
    "write_metrics_csv": "track",
    "line_chart": "track",
    "run_step_response": "step",
    "write_step_csv": "step",
    "write_horizon_csv": "horizon",
    "bar_chart": "horizon",
}
CLI_PATCHES = [p for p in tracer.PATCHES if p[0] in ("omnitrack.cli", "omnitrack.svgplot")]


@pytest.mark.parametrize("target, attr, name", CLI_PATCHES)
def test_the_cli_calls_each_traced_name_where_the_tracer_patches_it(
    tmp_path, monkeypatch, capsys, target, attr, name
):
    # A call that bypasses the patched global, or passes a counted path
    # by keyword, would zero the benchmark's traced counts.
    owner = tracer._resolve(target)
    original = getattr(owner, attr)
    counter = tracer.BYTE_COUNTERS.get(name)
    written = []

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        written.append(counter is None or Path(args[counter[1]]).is_file())
        return result

    monkeypatch.setattr(owner, attr, spy)
    config = write_config(
        tmp_path,
        experiment={"controllers": "fpid-t1", "total_time": "2.0", "np_values": "2"},
    )
    argv = [REACHED_BY[attr], "--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_OK
    assert written and all(written)
    capsys.readouterr()
