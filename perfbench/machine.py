"""Machine facts and the BLAS thread setting every workload process runs with."""

from __future__ import annotations

import ctypes
import os
import platform

# BLAS threads in each workload process.  One thread: the workloads are a
# single closed-loop caller whose heavy passes are element-wise numpy (not
# BLAS), so extra BLAS threads only add spin-up noise on small products.
BLAS_THREADS = 1

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runtime thread-count getters of the OpenBLAS builds numpy and scipy ship.
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_env(threads: int = BLAS_THREADS) -> dict[str, str]:
    """Environment variables that pin the BLAS thread count."""
    if not 1 <= threads <= nproc():
        raise ValueError(f"BLAS threads must be in [1, {nproc()}], got {threads}")
    return {var: str(threads) for var in _THREAD_VARS}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads_in_use() -> dict[str, int]:
    """Library file name -> thread count, for every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                out[os.path.basename(path)] = int(getter())
                break
    return out


def facts() -> dict:
    """What a reader needs to compare two runs; call after numpy and scipy are imported."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "blas_threads_in_use": blas_threads_in_use(),
    }
