"""Reference functions that only tests call: uncounted per-agent values and
gradients, a diagonal quadratic built from explicit arrays, the unblocked
coordinate stencil, a metrics CSV reader, and the decay-rate fit of
criterion 10."""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from dzo.harness import CSV_HEADER
from dzo.algorithms import MetricsRow
from dzo.oracle import ObjectiveSpec, Quadratic, ZerothOrderOracle


def objective_value(spec: ObjectiveSpec, agent: int, x: np.ndarray) -> float:
    """Uncounted f_i(x), the reference value tests compare the oracle with."""
    pts = np.asarray(x, dtype=float).reshape(1, 1, spec.dim)
    return float(spec.values(np.array([agent]), pts)[0, 0])


def analytic_grad(spec: ObjectiveSpec, agent: int, x: np.ndarray) -> np.ndarray:
    """Closed-form gradient of f_i at x; never counted as a query."""
    pts = np.asarray(x, dtype=float).reshape(1, 1, spec.dim)
    return spec.grads(np.array([agent]), pts)[0, 0]


def diagonal_quadratic(n: int, d: int, diag=1.0) -> Quadratic:
    """0.5 x^T diag(diag) x for each of n agents, zero shift; the identity
    quadratic by default."""
    quad = np.eye(d) * np.asarray(diag, dtype=float)
    return Quadratic(n_agents=n, dim=d, quad=np.broadcast_to(quad, (n, d, d)),
                     shift=np.zeros((n, d)))


def unblocked_stencil(oracle: ZerothOrderOracle, rows: np.ndarray, x: np.ndarray, u,
                      coords: np.ndarray) -> np.ndarray:
    """The coordinate stencil with every point in one (n, 2m, d) tensor and
    one oracle call; ``dzo.estimators._stencil`` builds the same points in
    bounded blocks of rows and must return the same bits."""
    (n, d), m = x.shape, coords.shape[1]
    u = u[:, None] if isinstance(u, np.ndarray) else u
    pts = np.repeat(x[:, None, :], 2 * m, axis=1)
    at = coords + np.arange(0, n * 2 * m * d, 2 * m * d)[:, None] + np.arange(0, m * d, d)
    flat = pts.reshape(-1)
    flat[at] += u
    flat[at + m * d] -= u
    vals = oracle.evaluate_rows(rows, pts)
    return (vals[:, :m] - vals[:, m:]) / (2.0 * u)


def read_csv(path: str | Path) -> list[MetricsRow]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} is not a metrics CSV")
    rows = []
    for line in lines[1:]:
        k, m, stat, cons, track = line.split(",")
        rows.append(MetricsRow(k=int(k), m=int(m), stat_gap=float(stat),
                               consensus_err=float(cons),
                               tracking_err=float(track) if track else None))
    return rows


def fit_decay_rate(rows: list[MetricsRow]) -> float:
    """Least-squares slope of log(running average of stat_gap) against
    log(k), over the last half of the series.  A series decaying like 1/k
    fits a slope of -1."""
    if len(rows) < 50:
        raise ValueError(f"need at least 50 rows to fit, got {len(rows)}")
    gaps = np.array([r.stat_gap for r in rows])
    if np.any(gaps <= 0.0):
        warnings.warn("clamping non-positive stationarity gaps before log fit",
                      stacklevel=2)
        gaps = np.maximum(gaps, 1e-300)
    k = np.arange(1, len(gaps) + 1, dtype=float)
    running = np.cumsum(gaps) / k
    half = len(gaps) // 2
    slope = np.polyfit(np.log(k[half:]), np.log(running[half:]), 1)[0]
    return float(slope)
