"""Pin BLAS to one thread for the whole test session.

The package pins one thread itself unless the variables are already set, and
the benchmark pins one too; this keeps the tests on the same footing whatever
the shell sets. With OpenBLAS the byte digests in the tests read the same at 1
to 4 threads, but MKL is unchecked. The variables only take effect if numpy
has not loaded BLAS yet, so this file refuses to run when something imported
numpy first.
"""
import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before conftest.py could pin BLAS to one thread")
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
