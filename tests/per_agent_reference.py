"""Naive per-agent estimators: an independent reference for the batched
``dzo.estimators``.

One agent, one point and one oracle call per function value (the sweep
batches its 2d points into one call).  Tests replay vectorized rounds with
these functions and require bitwise agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from dzo.oracle import ZerothOrderOracle


class CoordinateSweep(NamedTuple):
    """Full central-difference sweep plus the raw evaluations behind it."""

    estimate: np.ndarray   # (d,)
    f_plus: np.ndarray     # (d,), h(x + u e_l)
    f_minus: np.ndarray    # (d,), h(x - u e_l)


def two_d_point(oracle: ZerothOrderOracle, agent: int, x: np.ndarray, u: float) -> CoordinateSweep:
    """Coordinate-wise central differences in all d directions; 2d queries."""
    if u <= 0.0:
        raise ValueError(f"smoothing radius must be positive, got {u}")
    d = oracle.spec.dim
    x = np.asarray(x, dtype=float)
    pts = np.tile(x, (1, 2 * d, 1))
    idx = np.arange(d)
    pts[0, idx, idx] += u
    pts[0, d + idx, idx] -= u
    vals = oracle.evaluate_rows(np.array([agent]), pts)[0]
    f_plus, f_minus = vals[:d], vals[d:]
    return CoordinateSweep(estimate=(f_plus - f_minus) / (2.0 * u),
                           f_plus=f_plus, f_minus=f_minus)


def coordinate(oracle: ZerothOrderOracle, agent: int, x: np.ndarray, u: float,
               l: int) -> np.ndarray:
    """Single-coordinate central difference scaled by d; 2 queries."""
    if u <= 0.0:
        raise ValueError(f"smoothing radius must be positive, got {u}")
    d = oracle.spec.dim
    if not 0 <= l < d:
        raise IndexError(f"coordinate index {l} out of range for dim {d}")
    x = np.asarray(x, dtype=float)
    xp = x.copy()
    xp[l] += u
    xm = x.copy()
    xm[l] -= u
    fp = oracle.evaluate_rows(np.array([agent]), xp.reshape(1, 1, d))[0, 0]
    fm = oracle.evaluate_rows(np.array([agent]), xm.reshape(1, 1, d))[0, 0]
    out = np.zeros(d)
    out[l] = d * ((fp - fm) / (2.0 * u))
    return out


@dataclass(frozen=True)
class SnapshotState:
    """Frozen point x_tilde with its smoothing radius and cached sweep.

    full[l] == (f_plus[l] - f_minus[l]) / (2 u_tilde) by construction; the
    cache lets both the full sweep and any coordinate term at the snapshot be
    served without new queries.
    """

    x_tilde: np.ndarray
    u_tilde: float
    f_plus: np.ndarray
    f_minus: np.ndarray
    full: np.ndarray

    def __post_init__(self) -> None:
        if self.u_tilde <= 0.0:
            raise ValueError("snapshot smoothing radius must be positive")
        expect = (self.f_plus - self.f_minus) / (2.0 * self.u_tilde)
        if not np.array_equal(expect, self.full):
            raise ValueError("snapshot cache is inconsistent with its stored evaluations")

    @classmethod
    def capture(cls, oracle: ZerothOrderOracle, agent: int, x: np.ndarray,
                u: float) -> "SnapshotState":
        """Take a fresh snapshot at (x, u); 2d queries."""
        sweep = two_d_point(oracle, agent, x, u)
        return cls(x_tilde=np.array(x, dtype=float), u_tilde=float(u),
                   f_plus=sweep.f_plus, f_minus=sweep.f_minus, full=sweep.estimate)

    def coordinate_term(self, l: int) -> np.ndarray:
        """Coordinate estimate at the snapshot, served from the cache."""
        d = self.full.shape[0]
        out = np.zeros(d)
        out[l] = d * ((self.f_plus[l] - self.f_minus[l]) / (2.0 * self.u_tilde))
        return out


def vr_ge(oracle: ZerothOrderOracle, agent: int, x: np.ndarray, u: float,
          snapshot: SnapshotState, l: int,
          counting_mode: str = "paper_faithful") -> np.ndarray:
    """Variance-reduced estimate at (x, u) against a snapshot.

    coordinate(x, u, l) - coordinate(x_tilde, u_tilde, l) + full(x_tilde).
    Averaged uniformly over l this equals the full sweep at (x, u).
    """
    if counting_mode not in ("paper_faithful", "cached"):
        raise ValueError(f"counting_mode must be paper_faithful or cached, got {counting_mode!r}")
    if u <= 0.0:
        raise ValueError(f"smoothing radius must be positive, got {u}")
    # Schedules are non-increasing, so u <= u_tilde holds by construction;
    # the variance bound assumes it.
    assert u <= snapshot.u_tilde * (1.0 + 1e-12), "smoothing radius exceeds snapshot radius"
    at_x = coordinate(oracle, agent, x, u, l)
    if counting_mode == "paper_faithful":
        at_snap = coordinate(oracle, agent, snapshot.x_tilde, snapshot.u_tilde, l)
    else:
        at_snap = snapshot.coordinate_term(l)
    return at_x - at_snap + snapshot.full


def snapshot_of(block, agent: int, spec) -> SnapshotState:
    """One agent's snapshot in a ``dzo.estimators.SnapshotBlock``, re-swept
    on a fresh oracle for ``spec``; the block's stored sweep must equal the
    re-sweep bitwise."""
    snap = SnapshotState.capture(ZerothOrderOracle(spec), agent, block.x_tilde[agent],
                                 float(block.u_tilde[agent]))
    np.testing.assert_array_equal(block.full[agent], snap.full)
    return snap
