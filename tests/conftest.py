"""Pin BLAS to one thread before numpy loads, as bench/run.py does.

Another BLAS thread count may sum a matrix product in another order, and
the replay tests compare CSVs byte for byte.  Every test, and every
subprocess a test starts (it inherits this environment), runs with the
same pin.  A value already set in the environment wins.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin the BLAS threads")
