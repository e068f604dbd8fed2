"""Print, as JSON, what a benchmark result depends on besides the source.

Python, numpy and scipy versions, the BLAS numpy links and its thread
count, CPU count and model, and where `dirac_revivals` was imported from.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys

import numpy
import scipy

import dirac_revivals


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main() -> int:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "machine": platform.machine(),
        "package_file": dirac_revivals.__file__,
    }
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main())
