"""Pin BLAS to one thread before numpy loads, as bench/run.py does.

Another BLAS thread count may sum a matrix product in another order, and
the replay tests compare CSVs byte for byte.  Every test, and every
subprocess a test starts (it inherits this environment), runs with the
same pin.  A value already set in the environment wins.
"""

import os
import sys

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin the BLAS threads")


@pytest.fixture
def refreshed(monkeypatch):
    """A list that gets, per vrgt snapshot refresh, the number of agents it
    recaptured (read at SnapshotBlock.capture_rows, the one refresh path)."""
    from dzo.estimators import SnapshotBlock

    counts = []
    capture = SnapshotBlock.capture_rows

    def counted(self, oracle, rows, x_rows, u):
        counts.append(len(rows))
        capture(self, oracle, rows, x_rows, u)

    monkeypatch.setattr(SnapshotBlock, "capture_rows", counted)
    return counts
