"""Local objectives behind a counted function-value interface.

Three objective families are provided:

* ``benchmark`` -- per-agent ``a * sigmoid(zeta . x + v) + b * ln(1 + |x|^2)``,
  a smooth nonconvex test problem with heterogeneous agents and mean(b) = 1.
* ``quadratic`` -- ``0.5 (x - shift)^T Q (x - shift)`` with PSD ``Q``.
* ``linear`` -- ``c . x`` (unbounded below; only useful for estimator tests).

Algorithms may touch objectives only through :class:`ZerothOrderOracle`,
which counts every function-value query per agent.  Analytic gradients are
exposed as free functions for metrics and validation and are never counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

_BETA_TOL = 1e-12


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
            for i in range(n):
                q = self.quad[i]
                if np.max(np.abs(q - q.T)) > 1e-10:
                    raise ValueError(f"quad[{i}] is not symmetric")
                if np.linalg.eigvalsh(q)[0] < -1e-10:
                    raise ValueError(f"quad[{i}] is not PSD")
        elif self.kind == "linear":
            _freeze("coef", self.coef, (n, d))
        else:
            raise ValueError(f"unknown objective kind {self.kind!r}")


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


def _values_rows(spec: ObjectiveSpec, agents: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Objective values for points[b, m, :] under agent agents[b]; (B, m)."""
    if spec.kind == "benchmark":
        z = spec.zeta[agents]                       # (B, d)
        t = np.einsum("bmd,bd->bm", points, z) + spec.v[agents][:, None]
        sq = np.einsum("bmd,bmd->bm", points, points)
        return spec.alpha[agents][:, None] * expit(t) \
            + spec.beta[agents][:, None] * np.log1p(sq)
    if spec.kind == "quadratic":
        diff = points - spec.shift[agents][:, None, :]
        qd = np.einsum("bij,bmj->bmi", spec.quad[agents], diff)
        return 0.5 * np.einsum("bmi,bmi->bm", diff, qd)
    if spec.kind == "linear":
        return np.einsum("bmd,bd->bm", points, spec.coef[agents])
    raise AssertionError(spec.kind)


def _grads_rows(spec: ObjectiveSpec, agents: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Analytic gradients for points[b, m, :] under agent agents[b]; (B, m, d)."""
    if spec.kind == "benchmark":
        z = spec.zeta[agents]
        t = np.einsum("bmd,bd->bm", points, z) + spec.v[agents][:, None]
        sig = expit(t)
        sq = np.einsum("bmd,bmd->bm", points, points)
        part1 = (spec.alpha[agents][:, None] * sig * (1.0 - sig))[:, :, None] * z[:, None, :]
        part2 = (spec.beta[agents][:, None] * 2.0 / (1.0 + sq))[:, :, None] * points
        return part1 + part2
    if spec.kind == "quadratic":
        diff = points - spec.shift[agents][:, None, :]
        return np.einsum("bij,bmj->bmi", spec.quad[agents], diff)
    if spec.kind == "linear":
        return np.broadcast_to(spec.coef[agents][:, None, :], points.shape).copy()
    raise AssertionError(spec.kind)


def objective_value(spec: ObjectiveSpec, agent: int, x: np.ndarray) -> float:
    """Uncounted f_i(x); internal and test use only."""
    pts = np.asarray(x, dtype=float).reshape(1, 1, spec.dim)
    return float(_values_rows(spec, np.array([agent]), pts)[0, 0])


def analytic_grad(spec: ObjectiveSpec, agent: int, x: np.ndarray) -> np.ndarray:
    """Closed-form gradient of f_i at x; never counted as a query."""
    pts = np.asarray(x, dtype=float).reshape(1, 1, spec.dim)
    return _grads_rows(spec, np.array([agent]), pts)[0, 0]


def global_grad(spec: ObjectiveSpec, x: np.ndarray) -> np.ndarray:
    """Gradient of the network objective f = (1/N) sum_i f_i at x.

    Contracts over agents in closed form; equals the mean of
    analytic_grad(spec, i, x) over agents i up to summation order.
    """
    x = np.asarray(x, dtype=float)
    n = spec.n_agents
    if spec.kind == "benchmark":
        sig = expit(spec.zeta @ x + spec.v)
        return ((spec.alpha * sig * (1.0 - sig)) @ spec.zeta
                + (2.0 * spec.beta.sum() / (1.0 + x @ x)) * x) / n
    if spec.kind == "quadratic":
        return np.einsum("nij,nj->i", spec.quad, x - spec.shift) / n
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

    def evaluate(self, agent: int, x: np.ndarray) -> float:
        """f_agent(x); one query."""
        if not 0 <= agent < self.spec.n_agents:
            raise IndexError(f"agent {agent} out of range")
        x = np.asarray(x, dtype=float)
        if x.shape != (self.spec.dim,) or not np.all(np.isfinite(x)):
            raise ValueError("query point must be a finite vector of length dim")
        self.query_count[agent] += 1
        return objective_value(self.spec, agent, x)

    def evaluate_rows(self, agents: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Batched queries: points[b, m, :] against agent agents[b]; (B, m).

        Each of the m points charges one query to the owning agent.
        """
        agents = np.asarray(agents, dtype=np.int64)
        points = np.asarray(points, dtype=float)
        if points.ndim != 3 or points.shape[0] != agents.shape[0] \
                or points.shape[2] != self.spec.dim:
            raise ValueError(f"points must be (B, m, {self.spec.dim}), got {points.shape}")
        np.add.at(self.query_count, agents, points.shape[1])
        return _values_rows(self.spec, agents, points)


def estimate_smoothness(spec: ObjectiveSpec, seed: int = 0, pairs: int = 16,
                        safety: float = 1.5) -> float:
    """Empirical gradient-Lipschitz bound.

    Max over agents of max over sampled point pairs of
    ||grad f_i(x) - grad f_i(y)|| / ||x - y||, times a safety factor.
    Pair centers span several radii (including the origin, where curvature
    often peaks for penalty-style objectives), with both well-separated and
    nearly coincident pairs at each scale.  Deterministic given seed.
    """
    rng = np.random.default_rng(seed)
    agents = np.arange(spec.n_agents)
    worst = 0.0
    for scale in (0.0, 0.1, 0.5, 1.0, 2.0):
        x = scale * rng.standard_normal((spec.n_agents, pairs, spec.dim))
        far = scale * rng.standard_normal((spec.n_agents, pairs, spec.dim))
        near = x + 1e-3 * rng.standard_normal((spec.n_agents, pairs, spec.dim))
        gx = _grads_rows(spec, agents, x)
        for y in (far, near):
            gy = _grads_rows(spec, agents, y)
            num = np.linalg.norm(gx - gy, axis=2)
            den = np.linalg.norm(x - y, axis=2)
            ratio = np.where(den > 0.0, num / np.maximum(den, 1e-300), 0.0)
            worst = max(worst, float(ratio.max()))
    return safety * worst
