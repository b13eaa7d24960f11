"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def under_blas_threads():
    """Run Python source in a fresh interpreter under a given BLAS thread count.

    Returns ``run(code, threads) -> stdout``.  OpenBLAS and OpenMP read
    their thread counts when numpy loads, so each count needs its own
    process.
    """

    def run(code: str, threads: int) -> str:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
