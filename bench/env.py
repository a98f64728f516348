"""Locate the package source in the checkout and describe the host.

The benchmark imports `neurocost` from `src/` of the checkout it sits in,
never from an installed copy, so it always measures the code next to it.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_neurocost():
    """Import the package from the checkout; exit 1 if it is missing."""
    if not (SRC / "neurocost" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'neurocost'}; "
                 "run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import neurocost

    if Path(neurocost.__file__).resolve().parent != SRC / "neurocost":
        sys.exit(f"error: imported neurocost from {neurocost.__file__}, not {SRC}")
    return neurocost


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    """Python, numpy, core count and BLAS threads, recorded with results."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }
