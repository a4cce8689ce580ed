import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import configuration

import omnitrack


def pytest_configure(config):
    """Keep hypothesis's caches out of the working tree.

    Hypothesis writes them while the test modules are collected, so a
    fixture would be too late.
    """
    config.hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(config.hypothesis_home.name)


def pytest_unconfigure(config):
    configuration.set_hypothesis_home_dir(None)
    config.hypothesis_home.cleanup()


@pytest.fixture
def fresh_python(tmp_path):
    """Run Python code in a new interpreter that imports this omnitrack.

    Returns the code's standard output; a non-zero exit fails the test.
    Keyword arguments are extra environment variables for that child only.
    """
    src = Path(omnitrack.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))

    def run(code: str, **env: str) -> str:
        result = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=path, **env),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        return result.stdout

    return run
