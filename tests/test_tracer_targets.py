"""Every attribute the benchmark tracer patches exists in the package.

The tracer in ``perfbench/tracer.py`` wraps named functions and methods
of ``omnitrack``; a rename or an inlined function there would stop the
benchmark at install time.  This reads the tracer's table without
installing it, so a renamed target fails here first.
"""

import importlib.util
from pathlib import Path

import pytest

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
