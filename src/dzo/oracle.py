"""Local objectives behind a counted function-value interface.

Three objective families, each an :class:`ObjectiveSpec` subclass that
holds only its own arrays, with its maker in ``FAMILIES`` under its ``kind``:

* ``Benchmark`` -- per-agent ``a * sigmoid(zeta . x + v) + b * ln(1 + |x|^2)``,
  a smooth nonconvex test problem with heterogeneous agents and mean(b) = 1.
* ``Quadratic`` -- ``0.5 (x - shift)^T Q (x - shift)`` with PSD ``Q``.
* ``Linear`` -- ``c . x`` (unbounded below; only useful for estimator tests).

Each evaluates uncounted through ``values(agents, points)``, the (B, m)
values of points[b, m, :] under agent agents[b], or ``stencil_values`` at a
:class:`Stencil`'s points, checked when the stencil is built; agents indexes
the family's arrays, and is ``slice(None)`` for every agent in order, which
reads them in place.  ``global_grad(x)`` is the gradient of
f = (1/N) sum_i f_i in closed form (the mean of the per-agent gradients up
to summation order) at each point of x, (..., d): the metrics read it, and
a stack of points gives, bit for bit, what each point gives alone.
``smoothness()`` is a closed-form L bounding every f_i's Hessian norm, which
``dzo.theory`` takes.  Algorithms may touch objectives only through
:class:`ZerothOrderOracle`, which counts every query per agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

_BETA_TOL = 1e-12


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # tanh form of 1 / (1 + e^-t): an exact identity that saturates instead
    # of overflowing exp at large |t|.
    return 0.5 * (1.0 + np.tanh(0.5 * t))


class Stencil:
    """The (B, 2m, d) points x[b] + u·e_l for l in coords[b], then x[b] - u·e_l,
    with coords (B, m) or (1, m) and u a scalar or one radius per row, kept (1, 1)
    or (B, 1).  Families evaluate it through their rank-1 structure; ``np.asarray``
    builds the points.  held, if given, holds their (B, 2m) values, already taken:
    the oracle charges the points and returns held without evaluating them.
    Checked when built: coords that are not 2-D integers of 1 or B rows in [0, d)
    raise IndexError, other than 1 or B radii or (B, 2m) held values ValueError."""

    def __init__(self, x: np.ndarray, u, coords: np.ndarray, held: np.ndarray | None = None):
        n, d = x.shape
        self.x, self.coords, self.u = x, coords, np.asarray(u, dtype=float).reshape(-1, 1)
        if coords.ndim != 2 or coords.shape[0] not in (1, n) or (coords.size and (
                coords.dtype.kind not in "iu" or coords.min() < 0 or coords.max() >= d)):
            raise IndexError(f"coords must be 2-D integers of 1 or {n} rows in [0, {d})")
        if self.u.shape[0] not in (1, n):
            raise ValueError(f"need 1 or {n} radii, got {self.u.shape[0]}")
        self.shape = (n, 2 * coords.shape[1], d)
        if held is not None and held.shape != self.shape[:2]:
            raise ValueError(f"held values must be {self.shape[:2]}, got {held.shape}")
        self.held = held

    def take(self, a: np.ndarray) -> np.ndarray:
        """a[b, coords[b, j]] for a (B, d) array; (B, m)."""
        return np.take(a, self.coords + np.arange(0, a.size, a.shape[1])[:, None])

    def pm(self, base: np.ndarray, slope: np.ndarray) -> np.ndarray:
        """base + u·slope, then base - u·slope; (B, 2m)."""
        step = self.u * slope
        return np.concatenate([base + step, base - step], axis=1)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        (n, two_m, d), m = self.shape, self.coords.shape[1]
        pts = np.repeat(self.x[:, None, :], two_m, axis=1)
        # Flat offsets of (b, j, coords[b, j]) index faster than three index arrays.
        at = self.coords + np.arange(0, n * two_m * d, two_m * d)[:, None] + np.arange(0, m * d, d)
        pts.reshape(-1)[at] += self.u
        pts.reshape(-1)[at + m * d] -= self.u
        return pts


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """Immutable per-agent objective parameters; a family subclass adds its arrays.

    Specs compare and hash by identity, since array fields have no single
    truth value."""

    n_agents: int
    dim: int

    def __post_init__(self) -> None:
        n, d = self.n_agents, self.dim
        if n < 1 or d < 1:
            raise ValueError(f"need n_agents >= 1 and dim >= 1, got ({n}, {d})")

    def _freeze(self, **shapes: tuple[int, ...]) -> None:
        for name, shape in shapes.items():
            a = np.array(getattr(self, name), dtype=float)
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} has non-finite entries")
            a.setflags(write=False)
            object.__setattr__(self, name, a)


@dataclass(frozen=True, eq=False)
class Benchmark(ObjectiveSpec):
    kind: ClassVar[str] = "benchmark"
    alpha: np.ndarray   # (N,)
    beta: np.ndarray    # (N,)
    v: np.ndarray       # (N,)
    zeta: np.ndarray    # (N, d)

    def __post_init__(self) -> None:
        super().__post_init__()
        n, d = self.n_agents, self.dim
        self._freeze(alpha=(n,), beta=(n,), v=(n,), zeta=(n, d))
        if abs(float(np.mean(self.beta)) - 1.0) > _BETA_TOL:
            raise ValueError("benchmark requires mean(beta) == 1 to 1e-12")

    def values(self, agents: np.ndarray, points: np.ndarray) -> np.ndarray:
        z = self.zeta[agents]                       # (B, d)
        t = np.einsum("bmd,bd->bm", points, z) + self.v[agents][:, None]
        sq = np.einsum("bmd,bmd->bm", points, points)
        return self.alpha[agents][:, None] * _sigmoid(t) \
            + self.beta[agents][:, None] * np.log1p(sq)

    def stencil_values(self, agents: np.ndarray, st: Stencil) -> np.ndarray:
        # zeta.x + v ± u·zeta_l and |x|^2 + u^2 ± 2u·x_l.
        z = self.zeta[agents]
        t = (np.einsum("bd,bd->b", st.x, z) + self.v[agents])[:, None]
        sq = np.einsum("bd,bd->b", st.x, st.x)[:, None] + st.u * st.u
        return self.alpha[agents][:, None] * _sigmoid(st.pm(t, st.take(z))) \
            + self.beta[agents][:, None] * np.log1p(st.pm(sq, 2.0 * st.take(st.x)))

    @cached_property
    def _two_beta_sum(self) -> np.float64:
        """2 sum_i beta_i, the log terms' gradient weight, computed on first read."""
        return 2.0 * self.beta.sum()

    def global_grad(self, x: np.ndarray) -> np.ndarray:
        # Stacked matmuls with a unit axis make the gemv and dot calls of one point.
        sig = _sigmoid(np.matmul(self.zeta, x[..., None])[..., 0] + self.v)
        xx = np.matmul(x[..., None, :], x[..., None])[..., 0]
        return (np.matmul((self.alpha * sig * (1.0 - sig))[..., None, :], self.zeta)[..., 0, :]
                + (self._two_beta_sum / (1.0 + xx)) * x) / self.n_agents

    def smoothness(self) -> float:
        """max_i |alpha_i| |zeta_i|^2 / (6 sqrt(3)) + 2 |beta_i|: |sigmoid''| peaks
        at 1/(6 sqrt(3)), and the Hessian of ln(1 + |x|^2) has its eigenvalues
        in [-1/4, 2]."""
        zz = np.einsum("nd,nd->n", self.zeta, self.zeta)
        return float(np.max(np.abs(self.alpha) * zz / (6.0 * np.sqrt(3.0))
                            + 2.0 * np.abs(self.beta)))


@dataclass(frozen=True, eq=False)
class Quadratic(ObjectiveSpec):
    kind: ClassVar[str] = "quadratic"
    quad: np.ndarray    # (N, d, d), symmetric PSD
    shift: np.ndarray   # (N, d)

    def __post_init__(self) -> None:
        super().__post_init__()
        n, d = self.n_agents, self.dim
        self._freeze(quad=(n, d, d), shift=(n, d))
        q = self.quad
        asym = np.max(np.abs(q - q.transpose(0, 2, 1)), axis=(1, 2)) > 1e-10
        eig = np.linalg.eigvalsh(q)                 # (N, d), ascending per agent
        bad = np.flatnonzero(asym | (eig[:, 0] < -1e-10))
        if bad.size:
            i = bad[0]
            raise ValueError(f"quad[{i}] is not {'symmetric' if asym[i] else 'PSD'}")
        object.__setattr__(self, "_largest_eig", float(eig[:, -1].max()))

    @cached_property
    def _moments(self) -> tuple[np.ndarray, np.ndarray]:
        """mean_i(Q_i) and mean_i(Q_i shift_i), computed on first read, so
        the network gradient at x is the first times x minus the second."""
        return self.quad.mean(axis=0), np.einsum("nij,nj->i", self.quad, self.shift) / self.n_agents

    @cached_property
    def _diagonal(self) -> np.ndarray:
        """Each Q_i's diagonal as one contiguous (N, d) array, made on first read."""
        return np.diagonal(self.quad, axis1=1, axis2=2).copy()

    def values(self, agents: np.ndarray, points: np.ndarray) -> np.ndarray:
        quad, shift = self.quad[agents], self.shift[agents]
        diff = points - shift[:, None, :]
        # d^T Q d read as (d^T Q) . d, so matmul takes Q as stored, contiguous.
        return 0.5 * np.einsum("bmi,bmi->bm", diff, np.matmul(diff, quad))

    def stencil_values(self, agents: np.ndarray, st: Stencil) -> np.ndarray:
        # 1/2 d^T Q d ± u·(d^T Q)_l + 1/2 u^2·Q_ll with d = x - shift.
        quad, shift = self.quad[agents], self.shift[agents]
        diff = st.x - shift
        dq = np.matmul(diff[:, None, :], quad)[:, 0]
        base = 0.5 * np.einsum("bi,bi->b", diff, dq)[:, None]
        curve = 0.5 * st.u * st.u * st.take(self._diagonal[agents])
        return st.pm(base, st.take(dq)) + np.tile(curve, 2)

    def global_grad(self, x: np.ndarray) -> np.ndarray:
        qbar, qshift = self._moments
        return np.matmul(qbar, x[..., None])[..., 0] - qshift

    def smoothness(self) -> float:
        """max_i ||Q_i||_2, the largest eigenvalue of a PSD Q_i: exact."""
        return self._largest_eig


@dataclass(frozen=True, eq=False)
class Linear(ObjectiveSpec):
    kind: ClassVar[str] = "linear"
    coef: np.ndarray    # (N, d)

    def __post_init__(self) -> None:
        super().__post_init__()
        self._freeze(coef=(self.n_agents, self.dim))

    def values(self, agents: np.ndarray, points: np.ndarray) -> np.ndarray:
        return np.einsum("bmd,bd->bm", points, self.coef[agents])

    def stencil_values(self, agents: np.ndarray, st: Stencil) -> np.ndarray:
        c = self.coef[agents]
        return st.pm(np.einsum("bd,bd->b", st.x, c)[:, None], st.take(c))

    def global_grad(self, x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.coef.mean(axis=0), np.shape(x))

    def smoothness(self) -> float:
        return 0.0


def make_benchmark(n: int, d: int, seed: int) -> Benchmark:
    """Draw a benchmark instance: alpha, v ~ U[-1, 1], beta positive and
    normalized to mean 1, zeta rows ~ N(0, 1/d).  Deterministic given seed."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-1.0, 1.0, n)
    v = rng.uniform(-1.0, 1.0, n)
    beta = rng.uniform(0.5, 1.5, n)
    beta = beta / beta.mean()
    zeta = rng.standard_normal((n, d)) / np.sqrt(d)
    return Benchmark(n_agents=n, dim=d, alpha=alpha, beta=beta, v=v, zeta=zeta)


def make_quadratic(n: int, d: int, seed: int) -> Quadratic:
    """Draw a quadratic instance: Q_i = A_i A_i^T / d + I/2 with A_i entries
    ~ N(0, 1), so every Q_i is SPD, and zero shift.  Deterministic given seed."""
    a = np.random.default_rng(seed).standard_normal((n, d, d))
    quad = a @ a.transpose(0, 2, 1) / d + 0.5 * np.eye(d)
    return Quadratic(n_agents=n, dim=d, quad=quad, shift=np.zeros((n, d)))


def make_linear(n: int, d: int, seed: int) -> Linear:
    """Draw a linear instance: coef entries ~ N(0, 1).  Deterministic given seed."""
    coef = np.random.default_rng(seed).standard_normal((n, d))
    return Linear(n_agents=n, dim=d, coef=coef)


# Each objective kind and its maker; every maker takes exactly (n, d, seed).
FAMILIES = {"benchmark": make_benchmark, "quadratic": make_quadratic, "linear": make_linear}


class ZerothOrderOracle:
    """Counted function-value access to an :class:`ObjectiveSpec`.

    query_count[i] increments by exactly one per point evaluated for agent
    i, monotonically; a run owns its oracle and counters are never reset.
    total_queries is their sum, kept as a running count.  every_agent is a
    read-only arange(N): callers pass that object for every agent in order.
    """

    def __init__(self, spec: ObjectiveSpec):
        self.spec = spec
        self.query_count = np.zeros(spec.n_agents, dtype=np.int64)
        self.total_queries = 0
        self.every_agent = np.arange(spec.n_agents)
        self.every_agent.setflags(write=False)

    def evaluate_rows(self, agents: np.ndarray, points) -> np.ndarray:
        """Batched queries: points[b, m, :] against agent agents[b]; (B, m).

        points is a (B, m, d) array or a :class:`Stencil` (checked when built);
        each of its m points charges one query to the owning agent, and a
        stencil's held values are returned unevaluated, as a re-query.  Rows that
        are not a 1-D integer array, or a row outside [0, N), raise IndexError
        and points of another shape ValueError, before any query is charged.
        every_agent itself, recognised by identity, needs no row checks or
        gathers: each agent is charged m at once and the family reads its
        arrays in place.
        """
        every = agents is self.every_agent
        if not every:
            agents = np.asarray(agents)
            if agents.ndim != 1 or (agents.size and agents.dtype.kind not in "iu"):
                raise IndexError(f"agent rows must be a 1-D integer array, got {agents.dtype} "
                                 f"of shape {agents.shape}")
            agents = agents.astype(np.int64, copy=False)
        if isinstance(points, Stencil):
            values, held = self.spec.stencil_values, points.held
        else:
            values, points, held = self.spec.values, np.asarray(points, dtype=float), None
        shape = points.shape
        if len(shape) != 3 or shape[0] != agents.shape[0] or shape[2] != self.spec.dim:
            raise ValueError(f"points must be (B, m, {self.spec.dim}) with B = "
                             f"{agents.shape[0]} rows for the agents, got {shape}")
        if every:
            self.query_count += shape[1]
            agents = slice(None)
        else:
            if agents.size and agents.min() < 0:
                raise IndexError(f"agent rows must be in [0, {self.spec.n_agents}), "
                                 f"got {agents.min()}")
            np.add.at(self.query_count, agents, shape[1])
        self.total_queries += shape[0] * shape[1]
        return values(agents, points) if held is None else held
