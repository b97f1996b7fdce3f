"""crossemo: cross-corpus speech emotion recognition experiment toolkit."""

import os
import sys

# One BLAS thread unless the caller set one, before any submodule loads numpy.
# The ops run their own worker thread. On a 2-core Xeon, OpenBLAS's default of
# two threads made a training step 1.5-1.9x slower and changed the bits of the
# BLSTM `wh` gradients. Library callers that import numpy first keep its default.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")
del _var
# what each run records: the setting, and whether the BLAS had read it before
BLAS_THREADS = {var: os.environ[var] for var in BLAS_VARS}
NUMPY_IMPORTED_FIRST = "numpy" in sys.modules

__version__ = "0.1.0"
