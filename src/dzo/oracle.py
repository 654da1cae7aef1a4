"""Local objectives behind a counted function-value interface.

Three objective families, each mapped to its maker in ``FAMILIES``:

* ``benchmark`` -- per-agent ``a * sigmoid(zeta . x + v) + b * ln(1 + |x|^2)``,
  a smooth nonconvex test problem with heterogeneous agents and mean(b) = 1.
* ``quadratic`` -- ``0.5 (x - shift)^T Q (x - shift)`` with PSD ``Q``.
* ``linear`` -- ``c . x`` (unbounded below; only useful for estimator tests).

Algorithms may touch objectives only through :class:`ZerothOrderOracle`,
which counts every function-value query per agent.  The network gradient
the metrics read and the smoothness estimate are uncounted free functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_BETA_TOL = 1e-12


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # tanh form of 1 / (1 + e^-t): an exact identity that saturates instead
    # of overflowing exp at large |t|.
    return 0.5 * (1.0 + np.tanh(0.5 * t))


@dataclass(frozen=True)
class ObjectiveSpec:
    """Immutable per-agent objective parameters.

    Exactly the fields for `kind` must be set; everything else stays None.
    """

    kind: str
    n_agents: int
    dim: int
    # benchmark
    alpha: np.ndarray | None = None   # (N,)
    beta: np.ndarray | None = None    # (N,)
    v: np.ndarray | None = None       # (N,)
    zeta: np.ndarray | None = None    # (N, d)
    # quadratic
    quad: np.ndarray | None = None    # (N, d, d), symmetric PSD
    shift: np.ndarray | None = None   # (N, d)
    # linear
    coef: np.ndarray | None = None    # (N, d)

    def __post_init__(self) -> None:
        n, d = self.n_agents, self.dim
        if n < 1 or d < 1:
            raise ValueError(f"need n_agents >= 1 and dim >= 1, got ({n}, {d})")

        def _freeze(name: str, arr, shape) -> None:
            a = np.array(arr, dtype=float)
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} has non-finite entries")
            a.setflags(write=False)
            object.__setattr__(self, name, a)

        if self.kind == "benchmark":
            _freeze("alpha", self.alpha, (n,))
            _freeze("beta", self.beta, (n,))
            _freeze("v", self.v, (n,))
            _freeze("zeta", self.zeta, (n, d))
            if abs(float(np.mean(self.beta)) - 1.0) > _BETA_TOL:
                raise ValueError("benchmark requires mean(beta) == 1 to 1e-12")
        elif self.kind == "quadratic":
            _freeze("quad", self.quad, (n, d, d))
            _freeze("shift", self.shift, (n, d))
            q = self.quad
            asym = np.max(np.abs(q - q.transpose(0, 2, 1)), axis=(1, 2)) > 1e-10
            bad = np.flatnonzero(asym | (np.linalg.eigvalsh(q)[:, 0] < -1e-10))
            if bad.size:
                i = bad[0]
                raise ValueError(f"quad[{i}] is not {'symmetric' if asym[i] else 'PSD'}")
        elif self.kind == "linear":
            _freeze("coef", self.coef, (n, d))
        else:
            raise ValueError(f"unknown objective kind {self.kind!r}")

    @cached_property
    def _quad_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """mean_i(Q_i) and mean_i(Q_i shift_i) of a quadratic spec, computed
        on first read, so the network gradient at x is the first times x
        minus the second."""
        return self.quad.mean(axis=0), np.einsum("nij,nj->i", self.quad, self.shift) / self.n_agents


def make_benchmark(n: int, d: int, seed: int = 0) -> ObjectiveSpec:
    """Draw a benchmark instance: alpha, v ~ U[-1, 1], beta positive and
    normalized to mean 1, zeta rows ~ N(0, 1/d).  Deterministic given seed."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-1.0, 1.0, n)
    v = rng.uniform(-1.0, 1.0, n)
    beta = rng.uniform(0.5, 1.5, n)
    beta = beta / beta.mean()
    zeta = rng.standard_normal((n, d)) / np.sqrt(d)
    return ObjectiveSpec(kind="benchmark", n_agents=n, dim=d,
                         alpha=alpha, beta=beta, v=v, zeta=zeta)


def make_quadratic(n: int, d: int, quad: np.ndarray | None = None,
                   shift: np.ndarray | None = None, seed: int | None = None) -> ObjectiveSpec:
    """Quadratic instance; identity curvature and zero shift by default,
    or random SPD matrices when a seed is given."""
    if quad is None:
        if seed is None:
            quad = np.broadcast_to(np.eye(d), (n, d, d)).copy()
        else:
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((n, d, d))
            quad = a @ a.transpose(0, 2, 1) / d + 0.5 * np.eye(d)
    if shift is None:
        shift = np.zeros((n, d))
    return ObjectiveSpec(kind="quadratic", n_agents=n, dim=d, quad=quad, shift=shift)


def make_linear(n: int, d: int, coef: np.ndarray | None = None,
                seed: int | None = None) -> ObjectiveSpec:
    if coef is None:
        rng = np.random.default_rng(0 if seed is None else seed)
        coef = rng.standard_normal((n, d))
    return ObjectiveSpec(kind="linear", n_agents=n, dim=d, coef=coef)


# Each objective kind and its maker; every maker takes (n, d, seed=...).
FAMILIES = {"benchmark": make_benchmark, "quadratic": make_quadratic, "linear": make_linear}


def _values_rows(spec: ObjectiveSpec, agents: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Objective values for points[b, m, :] under agent agents[b]; (B, m)."""
    if spec.kind == "benchmark":
        z = spec.zeta[agents]                       # (B, d)
        t = np.einsum("bmd,bd->bm", points, z) + spec.v[agents][:, None]
        sq = np.einsum("bmd,bmd->bm", points, points)
        return spec.alpha[agents][:, None] * _sigmoid(t) \
            + spec.beta[agents][:, None] * np.log1p(sq)
    if spec.kind == "quadratic":
        n = spec.n_agents
        if agents.shape[0] == n and np.array_equal(agents, np.arange(n)):
            quad, shift = spec.quad, spec.shift     # every agent in order: no gather
        else:
            quad, shift = spec.quad[agents], spec.shift[agents]
        diff = points - shift[:, None, :]
        # d^T Q d read as (d^T Q) . d, so matmul takes Q as stored, contiguous.
        return 0.5 * np.einsum("bmi,bmi->bm", diff, np.matmul(diff, quad))
    if spec.kind == "linear":
        return np.einsum("bmd,bd->bm", points, spec.coef[agents])
    raise AssertionError(spec.kind)


def _grads_rows(spec: ObjectiveSpec, agents: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Analytic gradients for points[b, m, :] under agent agents[b]; (B, m, d)."""
    if spec.kind == "benchmark":
        z = spec.zeta[agents]
        t = np.einsum("bmd,bd->bm", points, z) + spec.v[agents][:, None]
        sig = _sigmoid(t)
        sq = np.einsum("bmd,bmd->bm", points, points)
        part1 = (spec.alpha[agents][:, None] * sig * (1.0 - sig))[:, :, None] * z[:, None, :]
        part2 = (spec.beta[agents][:, None] * 2.0 / (1.0 + sq))[:, :, None] * points
        return part1 + part2
    if spec.kind == "quadratic":
        # The gradient is Q . diff itself, so it keeps that reading; no run calls it.
        diff = points - spec.shift[agents][:, None, :]
        return np.matmul(diff, spec.quad[agents].transpose(0, 2, 1))
    if spec.kind == "linear":
        return np.broadcast_to(spec.coef[agents][:, None, :], points.shape).copy()
    raise AssertionError(spec.kind)


def global_grad(spec: ObjectiveSpec, x: np.ndarray) -> np.ndarray:
    """Gradient of the network objective f = (1/N) sum_i f_i at x.

    Contracts over agents in closed form; equals the mean of the per-agent
    gradients (_grads_rows) at x up to summation order.
    """
    x = np.asarray(x, dtype=float)
    n = spec.n_agents
    if spec.kind == "benchmark":
        sig = _sigmoid(spec.zeta @ x + spec.v)
        return ((spec.alpha * sig * (1.0 - sig)) @ spec.zeta
                + (2.0 * spec.beta.sum() / (1.0 + x @ x)) * x) / n
    if spec.kind == "quadratic":
        qbar, qshift = spec._quad_moments
        return qbar @ x - qshift
    if spec.kind == "linear":
        return spec.coef.mean(axis=0)
    raise AssertionError(spec.kind)


class ZerothOrderOracle:
    """Counted function-value access to an :class:`ObjectiveSpec`.

    query_count[i] increments by exactly one per point evaluated for agent
    i, monotonically; a run owns its oracle and counters are never reset.
    """

    def __init__(self, spec: ObjectiveSpec):
        self.spec = spec
        self.query_count = np.zeros(spec.n_agents, dtype=np.int64)

    @property
    def total_queries(self) -> int:
        return int(self.query_count.sum())

    def evaluate_rows(self, agents: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Batched queries: points[b, m, :] against agent agents[b]; (B, m).

        Each of the m points charges one query to the owning agent.  A row
        outside [0, N) raises IndexError before any query is charged.
        """
        agents = np.asarray(agents, dtype=np.int64)
        points = np.asarray(points, dtype=float)
        if points.ndim != 3 or points.shape[0] != agents.shape[0] \
                or points.shape[2] != self.spec.dim:
            raise ValueError(f"points must be (B, m, {self.spec.dim}), got {points.shape}")
        if agents.size and agents.min() < 0:
            raise IndexError(f"agent rows must be in [0, {self.spec.n_agents}), "
                             f"got {agents.min()}")
        np.add.at(self.query_count, agents, points.shape[1])
        return _values_rows(self.spec, agents, points)


def estimate_smoothness(spec: ObjectiveSpec) -> float:
    """Empirical gradient-Lipschitz bound.

    Max over agents of max over 16 sampled point pairs per scale of
    ||grad f_i(x) - grad f_i(y)|| / ||x - y||, times a safety factor of 1.5.
    Pair centers span several radii (including the origin, where curvature
    often peaks for penalty-style objectives), with both well-separated and
    nearly coincident pairs at each scale.  Deterministic: the pairs come
    from a fixed seed.
    """
    rng = np.random.default_rng(0)
    agents = np.arange(spec.n_agents)
    shape = (spec.n_agents, 16, spec.dim)
    worst = 0.0
    for scale in (0.0, 0.1, 0.5, 1.0, 2.0):
        x = scale * rng.standard_normal(shape)
        far = scale * rng.standard_normal(shape)
        near = x + 1e-3 * rng.standard_normal(shape)
        gx = _grads_rows(spec, agents, x)
        for y in (far, near):
            gy = _grads_rows(spec, agents, y)
            num = np.linalg.norm(gx - gy, axis=2)
            den = np.linalg.norm(x - y, axis=2)
            ratio = np.where(den > 0.0, num / np.maximum(den, 1e-300), 0.0)
            worst = max(worst, float(ratio.max()))
    return 1.5 * worst
