"""Numerical certificates for the tracked variance-reduced method.

Pure scalar/3x3-matrix computations, independent of any run trajectory:

* admissible step-size bounds for the general refresh probability and for
  the p = 1/d specialization;
* the coefficient matrix of the coupled error recursion
  (consensus error of the iterates, of the snapshots, and scaled tracker
  error), together with a weighted-infinity-norm contraction certificate;
* the variance envelope of the variance-reduced estimator;
* the (sigma, d, p) table that ``dzo verify`` and ``scripts/stepsize_tables.py``
  print, L being a smoothness constant such as ``spec.smoothness()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

_SQRT29 = np.sqrt(29.0)


@dataclass(frozen=True)
class ContractionCertificate:
    """Weighted-norm certificate for the error-recursion matrix.

    weighted_norm is |||A|||_inf with weights pi = [(1-sigma^2)/d, 3, 1];
    it dominates the spectral radius.  satisfied means the norm stays below
    bound = 1 - (1-sigma^2)/(2d), the contraction level the convergence
    argument needs.
    """

    weighted_norm: float
    spectral_radius: float
    bound: float
    satisfied: bool


def _check(sigma: float, d: int) -> None:
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"sigma must lie in [0, 1), got {sigma}")
    if d < 3:
        raise ValueError(f"dimension must be at least 3, got {d}")


def _check_l(L: float) -> None:
    if not 0.0 < L < np.inf:
        raise ValueError(f"L must be positive and finite, got {L}")


def step_size_limit(sigma: float, d: int, p: float, L: float) -> float:
    """Largest certified step size for the general refresh probability.

    L is a smoothness constant such as ``spec.smoothness()``; dimensions
    below 3 are outside the analysis.

    The product of step size and smoothness must stay below the minimum of
    three terms: 1/(6 sqrt(d)); (1/(12 sqrt(d))) (sqrt((2+sigma^2)/(1-p))
    - sqrt(3)), treated as +inf at p = 1 where it diverges; and
    (1-sigma^2)^3 / (216 sqrt(29) d^{5/2}).  Requires p > (1-sigma^2)/d.
    The first is not computed: for d >= 3 the third is below 6e-4 of it.

    Note the middle term is not positive for every admissible p; close to
    the lower boundary of the p range it can make the certified step size
    nonpositive, meaning no step size is certified there.
    """
    _check(sigma, d)
    _check_l(L)
    if not (1.0 - sigma**2) / d < p <= 1.0:
        raise ValueError(
            f"p = {p} is outside the certified range ((1 - sigma^2)/d, 1]"
        )
    if p == 1.0:
        t2 = np.inf
    else:
        t2 = (np.sqrt((2.0 + sigma**2) / (1.0 - p)) - np.sqrt(3.0)) / (12.0 * np.sqrt(d))
    t3 = (1.0 - sigma**2) ** 3 / (216.0 * _SQRT29 * d**2.5)
    return float(min(t2, t3)) / L


def step_size_limit_inv_dim(sigma: float, d: int, L: float) -> float:
    """Largest certified step size when the refresh probability is 1/d.

    min of 1/(6 sqrt(d)); (sqrt(3)/(12 sqrt(d))) (-1 + sqrt(1 +
    sigma^2/(d-1))); and (1-sigma^2)^3 / (264 sqrt(29) d^{3/2}), divided by
    L.  Degenerates to 0 at sigma = 0, where the middle term vanishes.  The
    first is not computed: for d >= 3 the third is below 1.5e-3 of it.
    """
    _check(sigma, d)
    _check_l(L)
    t2 = np.sqrt(3.0) / (12.0 * np.sqrt(d)) * (-1.0 + np.sqrt(1.0 + sigma**2 / (d - 1.0)))
    t3 = (1.0 - sigma**2) ** 3 / (264.0 * _SQRT29 * d**1.5)
    return float(min(t2, t3)) / L


def contraction_matrix(sigma: float, d: int, alpha_l: float) -> np.ndarray:
    """Coefficient matrix of the coupled error recursion at step size times
    smoothness alpha_l."""
    _check(sigma, d)
    if not 0.0 <= alpha_l < np.inf:
        raise ValueError(f"alpha_l must be nonnegative and finite, got {alpha_l}")
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
    _check(sigma, d)
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
    return ContractionCertificate(weighted_norm=weighted_norm,
                                  spectral_radius=spectral_radius, bound=bound,
                                  satisfied=weighted_norm <= bound + 1e-12)


def estimator_variance_limit(d: int, L: float, dist_x_y: float, dist_snap_y: float,
                             u_tilde: float) -> float:
    """Envelope on the mean squared deviation of the variance-reduced
    estimate from the true gradient:
    12 d L^2 ||x - y||^2 + 12 d L^2 ||x_tilde - y||^2
    + (7/2) u_tilde^2 L^2 d^2, valid for any reference point y when the
    iterate radius does not exceed the snapshot radius."""
    _check_l(L)
    dists = (dist_x_y, dist_snap_y, u_tilde)
    if not (0 < d < np.inf and all(0.0 <= v < np.inf for v in dists)):
        raise ValueError("d must be positive and the distances nonnegative, all finite")
    return (12.0 * d * L**2 * dist_x_y**2
            + 12.0 * d * L**2 * dist_snap_y**2
            + 3.5 * u_tilde**2 * L**2 * d**2)


def step_size_table(sigmas, dims, ps, L: float, alpha_l: float | None = None) -> list[tuple]:
    """Every (sigma, d, p) row of the grid, sigma slowest, as (sigma, d, p,
    step_limit, step_limit_p_inv_d, alpha_l, certificate): step_limit is NaN
    where p is out of range, and alpha_l defaults to contraction_step_limit.
    Any other bad input, an empty axis too, raises ValueError before a row
    is returned."""
    axes = {"sigma": list(sigmas), "d": list(dims), "p": list(ps)}
    for name, values in axes.items():
        if not values:
            raise ValueError(f"the {name} grid is empty")
    rows = []
    for sigma, d, p in product(*axes.values()):
        lim_inv = step_size_limit_inv_dim(sigma, d, L)
        try:    # sigma, d and L are checked above: only p can be out of range
            lim = step_size_limit(sigma, d, p, L)
        except ValueError:
            lim = float("nan")
        level = contraction_step_limit(sigma, d) if alpha_l is None else alpha_l
        rows.append((sigma, d, p, lim, lim_inv, level, certify_contraction(sigma, d, level)))
    return rows
