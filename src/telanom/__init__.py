"""Unsupervised anomaly detection for acoustic fish-telemetry records."""

import os

# One BLAS thread unless the caller chose otherwise. The package runs its
# parallel work in forked children (telanom.child), and a BLAS thread pool
# per process only competes with them for the same CPUs: with OpenBLAS's
# default pool `telanom run` took two to four times as long on a 2-vCPU VM.
# Set before any submodule imports numpy, which reads these once, when BLAS
# loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .errors import DataError, LeakageError, TrainingError  # noqa: E402

__version__ = "0.1.0"

__all__ = ["DataError", "LeakageError", "TrainingError", "__version__"]
