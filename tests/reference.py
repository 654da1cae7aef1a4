"""Reference functions that only tests call: uncounted per-agent values,
gradients and Hessians, a diagonal quadratic built from explicit arrays, the
coordinate stencil on dense points, Erdős–Rényi candidates from one (n, n)
draw, a metrics CSV reader, and the decay-rate fit of criterion 10."""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from dzo.harness import CSV_HEADER
from dzo.algorithms import MetricsRow
from dzo.oracle import Benchmark, ObjectiveSpec, Quadratic, ZerothOrderOracle


def objective_value(spec: ObjectiveSpec, agent: int, x: np.ndarray) -> float:
    """Uncounted f_i(x), the reference value tests compare the oracle with."""
    pts = np.asarray(x, dtype=float).reshape(1, 1, spec.dim)
    return float(spec.values(np.array([agent]), pts)[0, 0])


def _sigmoid_terms(spec: Benchmark, agent: int, x: np.ndarray) -> tuple[float, float]:
    """sigmoid(t) and sigmoid(t)(1 - sigmoid(t)) at t = zeta_i . x + v_i,
    through the tanh form, which saturates instead of overflowing."""
    s = 0.5 * (1.0 + np.tanh(0.5 * (spec.zeta[agent] @ x + spec.v[agent])))
    return s, s * (1.0 - s)


def analytic_grad(spec: ObjectiveSpec, agent: int, x: np.ndarray) -> np.ndarray:
    """Closed-form gradient of f_i at x; never counted as a query."""
    x = np.asarray(x, dtype=float)
    if isinstance(spec, Benchmark):
        _, ds = _sigmoid_terms(spec, agent, x)
        return (spec.alpha[agent] * ds * spec.zeta[agent]
                + (2.0 * spec.beta[agent] / (1.0 + x @ x)) * x)
    if isinstance(spec, Quadratic):
        return spec.quad[agent] @ (x - spec.shift[agent])   # the Q . diff reading
    return spec.coef[agent].copy()


def analytic_hessian(spec: ObjectiveSpec, agent: int, x: np.ndarray) -> np.ndarray:
    """Closed-form (d, d) Hessian of f_i at x, symmetric."""
    x = np.asarray(x, dtype=float)
    if isinstance(spec, Benchmark):
        s, ds = _sigmoid_terms(spec, agent, x)
        z, r = spec.zeta[agent], 1.0 + x @ x
        log_part = 2.0 / r * np.eye(spec.dim) - 4.0 / r**2 * np.outer(x, x)
        return spec.alpha[agent] * ds * (1.0 - 2.0 * s) * np.outer(z, z) \
            + spec.beta[agent] * log_part
    if isinstance(spec, Quadratic):
        q = spec.quad[agent]
        return 0.5 * (q + q.T)
    return np.zeros((spec.dim, spec.dim))


def diagonal_quadratic(n: int, d: int, diag=1.0) -> Quadratic:
    """0.5 x^T diag(diag) x for each of n agents, zero shift; the identity
    quadratic by default."""
    quad = np.eye(d) * np.asarray(diag, dtype=float)
    return Quadratic(n_agents=n, dim=d, quad=np.broadcast_to(quad, (n, d, d)),
                     shift=np.zeros((n, d)))


def stencil_points(x: np.ndarray, u, coords: np.ndarray) -> np.ndarray:
    """The (n, 2m, d) points x[i] + u_i e_l for l in coords[i], then x[i] - u_i e_l,
    written through explicit (row, slot, coordinate) indices; coords is
    (n, m) or (1, m), u a scalar or one radius per row."""
    (n, d), m = x.shape, coords.shape[1]
    u = np.broadcast_to(np.reshape(u, (-1, 1)), (n, m))
    row, slot = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
    l = np.broadcast_to(coords, (n, m))
    pts = np.repeat(x[:, None, :], 2 * m, axis=1)
    pts[row, slot, l] += u
    pts[row, m + slot, l] -= u
    return pts


def dense_stencil(oracle: ZerothOrderOracle, rows: np.ndarray, x: np.ndarray, u,
                  coords: np.ndarray) -> np.ndarray:
    """The coordinate stencil's (n, m) quotients from the dense points of
    ``stencil_points`` in one oracle call, the reference for the rank-1
    evaluation of a ``dzo.oracle.Stencil``."""
    m = coords.shape[1]
    vals = oracle.evaluate_rows(rows, stencil_points(x, u, coords))
    return (vals[:, :m] - vals[:, m:]) / (2.0 * np.reshape(u, (-1, 1)))


def erdos_renyi_candidates(n: int, seed: int, prob: float):
    """build_topology's Erdős–Rényi candidate edge sets, each from one
    (n, n) uniform draw: for each of 100 generators spawned from seed, the
    pairs i < j whose entry falls below prob."""
    for g in map(np.random.default_rng, np.random.SeedSequence(seed).spawn(100)):
        yield frozenset(map(tuple, np.argwhere(np.triu(g.random((n, n)) < prob, 1)).tolist()))


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
