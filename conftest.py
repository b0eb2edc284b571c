"""Pin BLAS to one thread for the whole test session.

A float64 matmul can round differently on more threads, and the byte digests
in the tests were recorded on one, the thread count the benchmark pins. The
variables only take effect if numpy has not loaded BLAS yet, so this file
refuses to run when something imported numpy first.
"""
import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before conftest.py could pin BLAS to one thread")
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
