"""Process set-up shared by the benchmark's entry points; import it first.

BLAS threads are fixed before numpy loads, at one per available core, and
the CLI's thread variable is cleared so every command runs with the
``--threads`` it is given.  ``use_sources`` puts the checkout's ``src/`` first
on the import path; nothing is installed.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys

NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)
os.environ.pop("SIMPLICENT_THREADS", None)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "_run")  # scratch space, removed after each run


def use_sources() -> bool:
    """Import ``simplicent`` from this checkout; False when it has no sources."""
    if not os.path.isfile(os.path.join(SRC, "simplicent", "cli.py")):
        return False
    sys.path.insert(0, SRC)
    return True


@contextlib.contextmanager
def scratch(name: str):
    """A fresh directory under WORK for one process, removed afterwards."""
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only once no other process is using it
