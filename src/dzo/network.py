"""Graph topologies and doubly stochastic mixing matrices.

Agents communicate over an undirected connected graph.  Consensus steps
multiply stacked agent states by a symmetric doubly stochastic weight
matrix W; the contraction rate of the disagreement component is governed
by sigma = ||W - (1/N) 11^T||_2, which is < 1 exactly when the graph is
connected and W has positive diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TopologyKind = ("ring", "path", "complete", "erdos_renyi", "grid")

_STOCH_TOL = 1e-12
_ER_MAX_TRIES = 100


class DisconnectedGraphError(ValueError):
    """Raised when a construction cannot produce a connected graph."""


@dataclass(frozen=True)
class Topology:
    """Undirected graph over agents 0..n_agents-1.

    Edges are stored as (i, j) pairs with i < j and no self loops.
    Construction fails if the graph is disconnected.
    """

    n_agents: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValueError(f"need at least one agent, got {self.n_agents}")
        for i, j in self.edges:
            if not (0 <= i < j < self.n_agents):
                raise ValueError(f"bad edge ({i}, {j}) for n={self.n_agents}")
        if not _is_connected(self.n_agents, self.edges):
            raise DisconnectedGraphError(
                f"graph with {self.n_agents} agents and {len(self.edges)} edges is disconnected"
            )

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_agents, dtype=np.int64)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic weights with contraction rate sigma.

    sigma is the largest singular value of W - (1/N) 11^T.  It is computed
    on first read and cached, so building W and mixing with it do no O(N^3)
    work.  Validation rejects matrices that are not square, finite and
    symmetric, or whose row or column sums deviate from 1 by more than
    1e-12.  sigma itself is not checked: it may equal 1 (e.g. for the
    identity), and such a matrix does not contract.
    """

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weight matrix has non-finite entries")
        rows = w.sum(axis=1)
        cols = w.sum(axis=0)
        if np.max(np.abs(rows - 1.0)) > _STOCH_TOL or np.max(np.abs(cols - 1.0)) > _STOCH_TOL:
            raise ValueError("weight matrix is not doubly stochastic to 1e-12")
        if np.max(np.abs(w - w.T)) > _STOCH_TOL:
            raise ValueError("weight matrix is not symmetric")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @cached_property
    def sigma(self) -> float:
        # sigma < 1 is guaranteed for weights built from a connected graph
        # with positive diagonal; arbitrary matrices (e.g. the identity) may
        # sit at 1 and simply do not contract.
        return spectral_gap(self.w)

    @property
    def n_agents(self) -> int:
        return self.w.shape[0]


def _is_connected(n: int, edges: frozenset[tuple[int, int]]) -> bool:
    if n == 1:
        return True
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                count += 1
                stack.append(u)
    return count == n


def _ring_edges(n: int) -> set[tuple[int, int]]:
    return {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}


def _grid_edges(n: int) -> set[tuple[int, int]]:
    # Nearly square r x c lattice with r*c == n (falls back toward a path
    # when n is prime).
    r = int(np.sqrt(n))
    while n % r:
        r -= 1
    c = n // r
    edges = set()
    for a in range(r):
        for b in range(c):
            v = a * c + b
            if b + 1 < c:
                edges.add((v, v + 1))
            if a + 1 < r:
                edges.add((v, v + c))
    return edges


def build_topology(kind: str, n: int, seed: int = 0, prob: float | None = None) -> Topology:
    """Construct a connected topology of the requested kind.

    kind is one of ring, path, complete, erdos_renyi, grid.  erdos_renyi
    requires prob in (0, 1] and redraws with fresh derived seeds until the
    sample is connected (at most 100 attempts, then raises).
    """
    if n < 2:
        raise ValueError(f"build_topology needs n >= 2, got {n}")
    if kind == "ring":
        edges = _ring_edges(n)
    elif kind == "path":
        edges = {(i, i + 1) for i in range(n - 1)}
    elif kind == "complete":
        edges = {(i, j) for i in range(n) for j in range(i + 1, n)}
    elif kind == "grid":
        edges = _grid_edges(n)
    elif kind == "erdos_renyi":
        if prob is None or not 0.0 < prob <= 1.0:
            raise ValueError(f"erdos_renyi needs prob in (0, 1], got {prob}")
        for child in np.random.SeedSequence(seed).spawn(_ER_MAX_TRIES):
            mask = np.random.default_rng(child).random((n, n)) < prob
            edges = frozenset(map(tuple, np.argwhere(np.triu(mask, 1)).tolist()))
            try:
                return Topology(n_agents=n, edges=edges)
            except DisconnectedGraphError:
                continue
        raise DisconnectedGraphError(
            f"no connected Erdos-Renyi sample in {_ER_MAX_TRIES} tries (n={n}, prob={prob})"
        )
    else:
        raise ValueError(f"unknown topology kind {kind!r}")
    return Topology(n_agents=n, edges=frozenset(edges))


def metropolis_weights(t: Topology) -> MixingMatrix:
    """Metropolis-Hastings weights: W[i,j] = 1/(1 + max(deg_i, deg_j)) on edges,
    with the diagonal absorbing the remainder.  Symmetric and doubly stochastic
    for any undirected graph."""
    n = t.n_agents
    deg = t.degrees()
    w = np.zeros((n, n))
    for i, j in t.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return MixingMatrix(w=w)


def spectral_gap(w: np.ndarray) -> float:
    """Largest singular value of W - (1/N) 11^T for a doubly stochastic W."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    n = w.shape[0]
    centered = w - np.full((n, n), 1.0 / n)
    return float(np.linalg.svd(centered, compute_uv=False)[0])


def mix(w: MixingMatrix, stacked: np.ndarray) -> np.ndarray:
    """One consensus round: output row i is sum_j W[i,j] * row j.

    Preserves the column-wise mean because W is doubly stochastic.
    """
    stacked = np.asarray(stacked, dtype=float)
    if stacked.ndim != 2 or stacked.shape[0] != w.n_agents:
        raise ValueError(
            f"stacked state must be ({w.n_agents}, d), got shape {stacked.shape}"
        )
    return w.w @ stacked
