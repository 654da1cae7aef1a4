"""Distributed zeroth-order consensus optimization.

A simulator for multi-agent nonconvex minimization where agents see only
function values of their local objectives: a variance-reduced
coordinate-snapshot estimator with gradient tracking, and the classical
two-point descent and full-sweep tracking baselines.

The root holds ``run``, its inputs and the few names the README and the
benchmark use; import everything else from its module, e.g. ``dzo.harness``
or ``dzo.estimators``.  The step-size limits and contraction certificates
live in ``dzo.theory``, which ``import dzo`` does not load.
"""

from .algorithms import Schedule, StopRule, run
from .harness import run_experiment
from .metrics import MetricsRow
from .network import build_topology, metropolis_weights, mix
from .oracle import ZerothOrderOracle, make_benchmark, make_quadratic

__version__ = "0.1.0"
