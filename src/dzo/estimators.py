"""Zeroth-order gradient estimators, batched over stacked agent rows.

Each estimator takes one point per row, ``x`` of shape (n, d), row i
belonging to agent ``rows[i]`` (agent i where no ``rows`` is taken), and
charges the oracle through ``ZerothOrderOracle.evaluate_rows``: 2 queries
per row for ``two_point`` and ``coord_pair``, 2d for ``sweep``.  Sweeps and
coordinate pairs share one ±u·e_l stencil: one ``Stencil``, checked when it
is built, passed to the oracle, which charges it like the points it stands
for and evaluates it through the objective's rank-1 structure, so no sweep
builds its (n, 2d, d) points.  ``two_point`` builds its 2 points per row: at
that size the dense form, with 2 row dot products against 5, is the faster one.

``vr_estimate`` corrects the cached sweep at a frozen snapshot point (a
``SnapshotBlock`` row) on one coordinate; it is conditionally unbiased for
the sweep at the iterate.  ``paper_faithful`` accounting re-queries the
snapshot coordinate pair (4 fresh queries per row, 4 + 2dp on average with
refresh probability p); ``cached`` serves it from the stored sweep
(2 + 2dp).  Both modes return bit-identical estimates.
"""

from __future__ import annotations

import numpy as np

from .oracle import Stencil, ZerothOrderOracle

COUNTING_MODES = ("paper_faithful", "cached")


def check_policy(p: float, counting_mode: str) -> None:
    """Reject a vrgt refresh policy: p outside [0, 1] or an unknown counting mode."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"refresh probability must lie in [0, 1], got {p}")
    if counting_mode not in COUNTING_MODES:
        raise ValueError(f"counting_mode must be one of {COUNTING_MODES}, got {counting_mode!r}")


def sphere(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n uniform draws from the unit sphere in R^d, (n, d): normalized
    Gaussians, redrawing any zero row."""
    z = rng.standard_normal((n, d))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    while np.any(norms == 0.0):  # probability-zero guard
        bad = norms[:, 0] == 0.0
        z[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
    return z / norms


def two_point(oracle: ZerothOrderOracle, rows: np.ndarray, x: np.ndarray, u: float,
              z: np.ndarray) -> np.ndarray:
    """Difference quotients along the unit rows of z, scaled by d; (n, d)."""
    d = x.shape[1]
    vals = oracle.evaluate_rows(rows, np.stack([x + u * z, x - u * z], axis=1))
    return d * ((vals[:, 0] - vals[:, 1]) / (2.0 * u))[:, None] * z


def _stencil(oracle: ZerothOrderOracle, rows: np.ndarray, x: np.ndarray, u,
             coords: np.ndarray) -> np.ndarray:
    """The (n, m) central differences at row i along each coordinate in coords[i]."""
    st, m = Stencil(x, u, coords), coords.shape[1]
    vals = oracle.evaluate_rows(rows, st)
    return (vals[:, :m] - vals[:, m:]) / (2.0 * st.u)


def sweep(oracle: ZerothOrderOracle, rows: np.ndarray, x: np.ndarray,
          u: float) -> np.ndarray:
    """Full coordinate sweep: the (n, d) estimate, 2d queries per row."""
    return _stencil(oracle, rows, x, u, np.arange(x.shape[1])[None])


def coord_pair(oracle: ZerothOrderOracle, rows: np.ndarray, x: np.ndarray, u,
               l: np.ndarray) -> np.ndarray:
    """Central-difference quotient along coordinate l[i] at row i, u scalar or per row; (n,)."""
    return _stencil(oracle, rows, x, u, np.asarray(l)[:, None])[:, 0]


class SnapshotBlock:
    """Per-agent snapshot points x_tilde, their radii u_tilde and the sweep
    ``full`` taken there.

    full[i, l] is the coordinate-l quotient at (x_tilde[i], u_tilde[i]), so
    coordinate terms at a snapshot need no new queries.
    """

    def __init__(self, oracle: ZerothOrderOracle, x: np.ndarray, u: float):
        self.x_tilde = x.copy()
        self.u_tilde = np.full(len(x), float(u))
        self.full = sweep(oracle, np.arange(len(x)), x, u)

    def capture_rows(self, oracle: ZerothOrderOracle, rows: np.ndarray,
                     x_rows: np.ndarray, u: float) -> None:
        """Refresh the given agents' snapshots at (x_rows, u); 2d queries each."""
        self.x_tilde[rows] = x_rows
        self.u_tilde[rows] = u
        self.full[rows] = sweep(oracle, rows, x_rows, u)


def vr_estimate(oracle: ZerothOrderOracle, snap: SnapshotBlock, x: np.ndarray, u: float,
                l: np.ndarray, counting_mode: str) -> np.ndarray:
    """Variance-reduced estimate at (x, u) for every agent; (n, d).

    full(x_tilde) + d * (quotient(x, u, l) - quotient(x_tilde, u_tilde, l))
    on coordinate l[i].  Averaged uniformly over l this equals the sweep at
    (x, u).  The variance bound assumes u <= u_tilde, which non-increasing
    schedules guarantee.
    """
    n, d = x.shape
    rows = np.arange(n)
    q_x = coord_pair(oracle, rows, x, u, l)
    if counting_mode == "paper_faithful":
        q_snap = coord_pair(oracle, rows, snap.x_tilde, snap.u_tilde, l)
    else:
        q_snap = snap.full[rows, l]
    g = snap.full.copy()
    g[rows, l] += d * q_x - d * q_snap
    return g
