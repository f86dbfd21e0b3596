"""Load specsyn from this checkout with a fixed BLAS thread count.

`load_specsyn` must run before anything imports numpy: OpenBLAS reads its
thread count once, when the library loads.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
# One thread: the figures do not depend on how many cores the machine
# lends at the moment, and 1 never exceeds nproc.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The checkout holds no specsyn sources to benchmark."""


def load_specsyn():
    """Import specsyn from `src/` of this checkout and nowhere else."""
    if "numpy" in sys.modules:
        raise CheckoutError("numpy was imported before the BLAS thread count was fixed")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "specsyn" / "__init__.py").is_file():
        raise CheckoutError(f"no specsyn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import specsyn

    if not Path(specsyn.__file__).resolve().is_relative_to(SRC):
        raise CheckoutError(f"imported specsyn from {specsyn.__file__}, not from {SRC}")
    return specsyn


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """What the figures depend on besides the code: recorded with each result."""
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }
