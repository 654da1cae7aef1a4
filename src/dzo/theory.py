"""Numerical certificates for the tracked variance-reduced method.

Pure scalar/3x3-matrix computations, independent of any run trajectory:

* admissible step-size bounds for the general refresh probability and for
  the p = 1/d specialization;
* the coefficient matrix of the coupled error recursion
  (consensus error of the iterates, of the snapshots, and scaled tracker
  error), together with a weighted-infinity-norm contraction certificate;
* the variance envelope of the variance-reduced estimator;
* the standard gradient-versus-suboptimality inequality
  ||grad f(x)||^2 <= 2 L (f(x) - f*), checked with estimated constants.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from .oracle import ObjectiveSpec, estimate_smoothness, global_grad, objective_value

_SQRT29 = np.sqrt(29.0)


@dataclass(frozen=True)
class ContractionCertificate:
    """Weighted-norm certificate for the error-recursion matrix.

    weighted_norm is |||A|||_inf with weights pi = [(1-sigma^2)/d, 3, 1];
    it dominates the spectral radius.  satisfied means the norm stays below
    bound = 1 - (1-sigma^2)/(2d), the contraction level the convergence
    argument needs.
    """

    a: np.ndarray
    pi: np.ndarray
    weighted_norm: float
    spectral_radius: float
    bound: float
    satisfied: bool


def _check(sigma: float, d: int) -> None:
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"sigma must lie in [0, 1), got {sigma}")
    if d < 3:
        raise ValueError(f"dimension must be at least 3, got {d}")


def step_size_limit(sigma: float, d: int, p: float, L: float) -> float:
    """Largest certified step size for the general refresh probability.

    L is an estimated (upper) smoothness bound; dimensions below 3 are
    outside the analysis.

    The product of step size and smoothness must stay below the minimum of
    three terms: 1/(6 sqrt(d)); (1/(12 sqrt(d))) (sqrt((2+sigma^2)/(1-p))
    - sqrt(3)), treated as +inf at p = 1 where it diverges; and
    (1-sigma^2)^3 / (216 sqrt(29) d^{5/2}).  Requires p > (1-sigma^2)/d.

    Note the middle term is not positive for every admissible p; close to
    the lower boundary of the p range it can make the certified step size
    nonpositive, meaning no step size is certified there.
    """
    _check(sigma, d)
    if L <= 0.0:
        raise ValueError(f"L must be positive, got {L}")
    if not (1.0 - sigma**2) / d < p <= 1.0:
        raise ValueError(
            f"p = {p} is outside the certified range ((1 - sigma^2)/d, 1]"
        )
    t1 = 1.0 / (6.0 * np.sqrt(d))
    if p == 1.0:
        t2 = np.inf
    else:
        t2 = (np.sqrt((2.0 + sigma**2) / (1.0 - p)) - np.sqrt(3.0)) / (12.0 * np.sqrt(d))
    t3 = (1.0 - sigma**2) ** 3 / (216.0 * _SQRT29 * d**2.5)
    return float(min(t1, t2, t3)) / L


def step_size_limit_inv_dim(sigma: float, d: int, L: float) -> float:
    """Largest certified step size when the refresh probability is 1/d.

    min of 1/(6 sqrt(d)); (sqrt(3)/(12 sqrt(d))) (-1 + sqrt(1 +
    sigma^2/(d-1))); and (1-sigma^2)^3 / (264 sqrt(29) d^{3/2}), divided by
    L.  Degenerates to 0 at sigma = 0, where the middle term vanishes.
    """
    _check(sigma, d)
    if L <= 0.0:
        raise ValueError(f"L must be positive, got {L}")
    if sigma == 0.0:
        warnings.warn("sigma = 0: no positive step size is certified for p = 1/d",
                      stacklevel=2)
    t1 = 1.0 / (6.0 * np.sqrt(d))
    t2 = np.sqrt(3.0) / (12.0 * np.sqrt(d)) * (-1.0 + np.sqrt(1.0 + sigma**2 / (d - 1.0)))
    t3 = (1.0 - sigma**2) ** 3 / (264.0 * _SQRT29 * d**1.5)
    return float(min(t1, t2, t3)) / L


def contraction_matrix(sigma: float, d: int, alpha_l: float) -> np.ndarray:
    """Coefficient matrix of the coupled error recursion at step size times
    smoothness alpha_l."""
    _check(sigma, d)
    if alpha_l < 0.0:
        raise ValueError(f"alpha_l must be nonnegative, got {alpha_l}")
    c1 = 9.0 * _SQRT29 * np.sqrt(d) / (1.0 - sigma**2) * alpha_l
    mix2 = (1.0 + 2.0 * sigma**2) / 3.0
    return np.array([
        [mix2, 0.0, c1],
        [17.0 * np.sqrt(d) * alpha_l + mix2, 1.0 - (1.0 - sigma**2) / d, c1],
        [c1, 3.0 * _SQRT29 * np.sqrt(d) / (1.0 - sigma**2) * alpha_l,
         (2.0 + sigma**2) / 3.0],
    ])


def contraction_step_limit(sigma: float, d: int) -> float:
    """alpha * L level at which the weighted-norm certificate is guaranteed:
    (1-sigma^2)^3 / (12 sqrt(29) d^{5/2})."""
    return (1.0 - sigma**2) ** 3 / (12.0 * _SQRT29 * d**2.5)


def certify_contraction(sigma: float, d: int, alpha_l: float) -> ContractionCertificate:
    """Evaluate the weighted-norm certificate at the given alpha * L.

    The certificate may come back unsatisfied; it is guaranteed to hold
    whenever alpha_l <= contraction_step_limit(sigma, d).
    """
    a = contraction_matrix(sigma, d, alpha_l)
    pi = np.array([(1.0 - sigma**2) / d, 3.0, 1.0])
    weighted_norm = float(np.max((a @ pi) / pi))
    spectral_radius = float(np.max(np.abs(np.linalg.eigvals(a))))
    bound = 1.0 - (1.0 - sigma**2) / (2.0 * d)
    return ContractionCertificate(a=a, pi=pi, weighted_norm=weighted_norm,
                                  spectral_radius=spectral_radius, bound=bound,
                                  satisfied=weighted_norm <= bound + 1e-12)


def estimator_variance_limit(d: int, L: float, dist_x_y: float, dist_snap_y: float,
                             u_tilde: float) -> float:
    """Envelope on the mean squared deviation of the variance-reduced
    estimate from the true gradient:
    12 d L^2 ||x - y||^2 + 12 d L^2 ||x_tilde - y||^2
    + (7/2) u_tilde^2 L^2 d^2, valid for any reference point y when the
    iterate radius does not exceed the snapshot radius."""
    if min(d, L) <= 0 or min(dist_x_y, dist_snap_y, u_tilde) < 0:
        raise ValueError("all arguments must be nonnegative (d, L positive)")
    return (12.0 * d * L**2 * dist_x_y**2
            + 12.0 * d * L**2 * dist_snap_y**2
            + 3.5 * u_tilde**2 * L**2 * d**2)


def residual_radius_sum(u0: float, u_decay: float, d: int, p: float) -> float:
    """Accumulated squared dimension-scaled smoothing radii entering the
    rate constant: (1/p)(d u(0))^2 + sum_{k>=1} (d u(k))^2 for the schedule
    u(k) = u0 / max(k, 1)^u_decay.  Finite only when u_decay > 1/2."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if u_decay <= 0.5:
        return float("inf")
    tail = (d * u0) ** 2 * float(special.zeta(2.0 * u_decay))
    return (d * u0) ** 2 / p + tail


def _benchmark_lower_bound(spec: ObjectiveSpec, seed: int = 0, starts: int = 8) -> float:
    """Multi-start local minimization of the network objective; returns the
    lowest value found, a practical stand-in for the global infimum."""
    rng = np.random.default_rng(seed)
    d = spec.dim

    def fun(x):
        vals = [objective_value(spec, i, x) for i in range(spec.n_agents)]
        return float(np.mean(vals))

    def jac(x):
        return global_grad(spec, x)

    best = np.inf
    points = [np.zeros(d)] + [rng.normal(0.0, 2.0, d) for _ in range(starts - 1)]
    for x0 in points:
        res = optimize.minimize(fun, x0, jac=jac, method="L-BFGS-B")
        best = min(best, float(res.fun))
    return best


def gradient_gap_check(spec: ObjectiveSpec, x: np.ndarray, L: float | None = None,
                       f_star: float | None = None) -> bool | None:
    """Check ||grad f(x)||^2 <= 2 L (f(x) - f*) at x.

    Returns None for objectives with no finite infimum (linear).  L defaults
    to the estimated smoothness bound; f* defaults to an exact value for
    quadratics and a multi-start estimate for the benchmark.
    """
    if spec.kind == "linear":
        return None
    if L is None:
        L = estimate_smoothness(spec)
    if f_star is None:
        if spec.kind == "quadratic":
            shared = np.allclose(spec.shift, spec.shift[0])
            if not shared:
                raise ValueError("need a common minimizer or an explicit f_star")
            f_star = 0.0
        else:
            f_star = _benchmark_lower_bound(spec)
    x = np.asarray(x, dtype=float)
    grad = global_grad(spec, x)
    f_x = float(np.mean([objective_value(spec, i, x) for i in range(spec.n_agents)]))
    return float(grad @ grad) <= 2.0 * L * (f_x - f_star) + 1e-9
