"""Recurrent motion hallucination and part mobility estimation for point clouds."""
import os
import sys

# one BLAS thread by default: OpenBLAS gives the same bytes at 1-4 threads, but nobody measured
# whether more threads help, and MKL is unchecked. BLAS reads these once, as numpy loads, so the
# pin stays above the imports. A user's own setting is kept.
if "numpy" not in sys.modules:
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")

from .config import RunConfig, load_config
from .training import Pipeline, evaluate_model, load_pipeline, run_training

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "load_config",
    "Pipeline",
    "evaluate_model",
    "load_pipeline",
    "run_training",
    "__version__",
]
