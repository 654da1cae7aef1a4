"""Distributed zeroth-order consensus optimization.

A simulator for multi-agent nonconvex minimization where agents see only
function values of their local objectives: a variance-reduced
coordinate-snapshot estimator with gradient tracking, the classical
two-point descent and full-sweep tracking baselines, and numerical
certificates for the step-size conditions behind the convergence theory.
"""

from .algorithms import ALGORITHMS, Schedule, StopRule, run
from .estimators import COUNTING_MODES
from .harness import (
    SUITES,
    ExperimentConfig,
    fit_decay_rate,
    load_config,
    read_csv,
    run_comparison,
    run_config,
    run_experiment,
    suite_configs,
    write_csv,
)
from .metrics import MetricsRow
from .network import (
    DisconnectedGraphError,
    MixingMatrix,
    Topology,
    build_topology,
    metropolis_weights,
    mix,
    spectral_gap,
)
from .oracle import (
    ObjectiveSpec,
    ZerothOrderOracle,
    analytic_grad,
    estimate_smoothness,
    global_grad,
    grads_at,
    make_benchmark,
    make_linear,
    make_quadratic,
)
from .theory import (
    ContractionCertificate,
    TheoryInputs,
    certify_contraction,
    contraction_matrix,
    contraction_step_limit,
    estimator_variance_limit,
    gradient_gap_check,
    residual_radius_sum,
    step_size_limit,
    step_size_limit_inv_dim,
)

__version__ = "0.1.0"
