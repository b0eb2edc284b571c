"""Process set-up shared by the benchmark scripts.

Call `prepare()` before anything imports numpy: it pins the BLAS thread
pools and glibc's malloc thresholds, and puts the checkout's `src/` and
this directory on `sys.path`.
"""
from __future__ import annotations

import ctypes
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread: the matrices are small, so extra threads add noise and no
# speed, and a fixed count keeps results bit-reproducible against the
# recorded references.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# glibc mallopt parameters. By default glibc serves large blocks with mmap
# and raises that threshold as such blocks are freed, so whether a process
# keeps reusing heap memory for the numpy temporaries of an op, or maps and
# page-faults them afresh on every op, depends on its allocation history.
# On the VM this was built on, about one `predict` process in five ended up
# in the second state: some 3500 instead of 250 minor faults per call and
# 15% more latency, for the whole run. Fixed thresholds (the ceiling glibc's
# own adjustment can reach) put every process in the first state.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20


def fix_malloc_thresholds() -> None:
    """Set glibc's mmap and trim thresholds; a no-op on another libc."""
    try:
        libc = ctypes.CDLL(None)
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return
    for param, value in ((M_MMAP_THRESHOLD, MMAP_THRESHOLD), (M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)):
        if mallopt(param, value) != 1:
            raise SystemExit(f"error: mallopt({param}, {value}) failed")


def prepare() -> None:
    """Pin BLAS threads and malloc thresholds; make `partmotion` importable."""
    if not (SRC / "partmotion" / "__init__.py").is_file():
        raise SystemExit(f"error: no partmotion sources under {SRC}")
    fix_malloc_thresholds()
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
