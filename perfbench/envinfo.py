"""The machine and library facts recorded with every result."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np

# Environment variables that cap BLAS and OpenMP thread pools.  run.py sets
# them to 1 before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _read(path, default="unknown"):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return default


def _cpu_model():
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _l3_size():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return "unknown"
    for entry in entries:
        if _read(f"{base}/{entry}/level", "") == "3":
            return _read(f"{base}/{entry}/size")
    return "unknown"


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library."""
    libs = set()
    for line in _read("/proc/self/maps", "").splitlines():
        path = line.split()[-1] if line.split() else ""
        if "openblas" in path.lower() and ".so" in path:
            libs.add(path)
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def describe() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l3_size": _l3_size(),
    }
