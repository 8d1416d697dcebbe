"""The host block: interpreter, numpy and its BLAS, cores and memory.

The benchmark does not pin thread pools; it records them.  The BLAS
thread count is read from the OpenBLAS library numpy loaded.  Run as its
own process with the environment the workload children get; it prints
the block as JSON:

    python3 perfbench/host.py
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import json
import os
import platform

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# symbol names of openblas_get_num_threads across OpenBLAS builds
_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads(numpy) -> int | None:
    libs_dir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in _GET_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(numpy),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
    }


def describe(host: dict) -> str:
    threads = host["blas_threads"] if host["blas_threads"] is not None else "unknown"
    pinned = {k: v for k, v in host["thread_env"].items() if v is not None} or "none"
    return (
        f"host: python {host['python']}, numpy {host['numpy']}, BLAS {host['blas']} "
        f"({threads} threads, pinned by env: {pinned}), nproc {host['nproc']}, "
        f"memory {host['mem_total_mb']} MB, numba {host['numba']}"
    )


if __name__ == "__main__":
    print(json.dumps(host_info()))
