"""Every demo runs to the end against the package as it is.

Each demo writes its figures next to itself, into ``out/``, so it is
copied into the test's ``tmp_path`` and run there in a fresh interpreter
that writes no bytecode; nothing lands in the working tree.
"""

import shutil
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(fresh_python, tmp_path, demo):
    script = shutil.copy(demo, tmp_path)
    fresh_python(
        f"import runpy; runpy.run_path({str(script)!r}, run_name='__main__')",
        PYTHONDONTWRITEBYTECODE="1",
    )
    assert any((tmp_path / "out").iterdir())
