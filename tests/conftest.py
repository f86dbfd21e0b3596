"""Test-session settings, and shared helpers for the tests that run
specsyn in a child process.

Those tests start the child in a temporary directory. A relative
``PYTHONPATH`` entry such as ``src`` would then resolve under that
directory, and the child would import no ``specsyn`` at all, or a
different one. The helpers below hand the child the absolute directory
of the ``specsyn`` this process imported, from a checkout or an install.
"""

import os
import subprocess
import sys
from pathlib import Path

# One BLAS thread, as the command line runs, unless the caller sets another:
# in-process training then gives the bits it gives there, and a busy core
# does not stall it. OpenBLAS reads these when numpy loads, which is later.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import specsyn
from specsyn import workers

SPECSYN_ROOT = Path(specsyn.__file__).resolve().parent.parent


def child_env():
    """A copy of ``os.environ`` whose ``PYTHONPATH`` starts with the
    directory holding the imported ``specsyn``; empty entries, which
    would mean the child's working directory, are dropped."""
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    entries = [str(SPECSYN_ROOT), *filter(None, inherited)]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(entries)}


def run_python(*args, cwd, timeout=600):
    """Run this interpreter with ``args`` in ``cwd``, capturing text output."""
    return subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def run_cli(*args, cwd, timeout=600):
    """Run ``python -m specsyn.cli`` with ``args`` in ``cwd``."""
    return run_python("-m", "specsyn.cli", *args, cwd=cwd, timeout=timeout)


def run_map_serially(monkeypatch):
    """Make `workers.ordered_map` run every item in this process, as on one
    CPU: a function monkeypatched to record its calls sees none of those a
    forked worker makes."""
    monkeypatch.setattr(workers, "_cpus", lambda: 1)
