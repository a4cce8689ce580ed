"""The reference pin holds on every BLAS kernel and numpy loop set tried.

``tests/test_reference_pin.py`` is rerun in child processes, each with one
environment variable that makes this machine stand in for another build:

- ``OPENBLAS_CORETYPE`` picks the kernels of a DYNAMIC_ARCH OpenBLAS;
- ``NPY_DISABLE_CPU_FEATURES`` turns off numpy's AVX-512 loops, so numpy
  runs its AVX2 ones.

The variables are set for the children only.  A child writes no bytecode
and keeps its temporary files under this test's ``tmp_path``.  A variant
is skipped, with the reason, on a host that cannot run it.
"""

import platform
import sys
from pathlib import Path

import numpy as np
import pytest

PIN = Path(__file__).resolve().parent / "test_reference_pin.py"

# Variant id, the environment it adds, and the CPU flag (as Linux names it
# in /proc/cpuinfo) that the kernels or loops it selects need.
VARIANTS = [
    ("Haswell", {"OPENBLAS_CORETYPE": "Haswell"}, "avx2"),
    ("Sandybridge", {"OPENBLAS_CORETYPE": "Sandybridge"}, "avx"),
    ("Nehalem", {"OPENBLAS_CORETYPE": "Nehalem"}, "sse4_2"),
    ("Prescott", {"OPENBLAS_CORETYPE": "Prescott"}, "pni"),
    ("avx2-loops", {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}, "avx2"),
]


def cpu_flags() -> set[str]:
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
        for line in info:
            if line.startswith("flags"):
                return set(line.split(":", 1)[1].split())
    return set()


def why_not(env: dict[str, str], flag: str) -> str | None:
    """Why this host cannot run the variant, or None when it can."""
    if not (sys.platform.startswith("linux") and platform.machine() == "x86_64"):
        return "the variants name x86-64 kernels and loops, read from Linux's cpuinfo"
    if flag not in cpu_flags():
        return f"the CPU lacks '{flag}'"
    if "OPENBLAS_CORETYPE" in env:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
            return "numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS"
    else:
        from numpy._core._multiarray_umath import __cpu_dispatch__

        if "X86_V4" not in __cpu_dispatch__:
            return "this numpy build has no AVX-512 loops to turn off"
    return None


@pytest.mark.parametrize("env, flag", [v[1:] for v in VARIANTS], ids=[v[0] for v in VARIANTS])
def test_reference_pin_passes_under_the_variant(fresh_python, tmp_path, env, flag):
    reason = why_not(env, flag)
    if reason is not None:
        pytest.skip(reason)
    args = ["-q", f"--basetemp={tmp_path / 'child'}", str(PIN)]
    fresh_python(
        f"import sys, pytest; sys.exit(pytest.main({args!r}))", PYTHONDONTWRITEBYTECODE="1", **env
    )
