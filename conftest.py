"""Shared pytest set-up for the whole repository (tests/ and perfbench/).

BLAS runs on one thread, as in perfbench/run.py: numpy's default of one
thread per core stalls the small factorizations the tests make whenever
another process holds a core. This file sits at the repository root so that it
is loaded before any test module imports numpy, perfbench's included.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
