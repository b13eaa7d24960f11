"""Host block: what the numbers were measured on, and how fast it ran."""

from __future__ import annotations

import ctypes
import os
import platform
import re
import statistics
import time
from importlib import metadata

# Symbols that report OpenBLAS's thread count, in the builds numpy ships.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def calibrate(repeats: int = 5) -> float:
    """Median seconds of a fixed pure-Python loop.  The workloads are mostly
    interpreter-bound, so this tracks how fast the host ran this time."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(300_000):
            acc += (i % 7) * 0.5
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def blas_info():
    """(vendor and version, thread count) of the BLAS numpy loaded, or None
    where it cannot be read."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        vendor = None
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = set(re.findall(r"(/\S*blas\S*\.so\S*)", fh.read()))
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return vendor, threads


def host_block(calib_s: float) -> dict:
    vendor, threads = blas_info()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "blas": vendor,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "calib_s": calib_s,
    }
