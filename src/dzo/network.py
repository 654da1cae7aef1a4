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
# Rows per block where an N x N array is drawn or checked a part at a time.
_ROW_BLOCK = 64
# apply() uses the neighbour list when this many times the widest row's
# nonzero count still fits in N (see MixingMatrix).
_ELL_SPARSITY = 20
_MIX_BLOCK = 128   # rows per block of the degree-sorted neighbour list
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

    @cached_property
    def _metropolis(self) -> MixingMatrix:
        # Built on first read and kept on this instance; see metropolis_weights.
        # W is written in place and handed over uncopied: the build's one
        # N x N array.
        n = self.n_agents
        e = np.array(list(self.edges), dtype=np.int64).reshape(-1, 2)
        deg = np.bincount(e.ravel(), minlength=n)
        i, j = e[:, 0], e[:, 1]
        w = np.zeros((n, n))
        w[i, j] = w[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
        np.fill_diagonal(w, 1.0 - w.sum(axis=1))
        return MixingMatrix(w=w.view(_Built))


class _Built(np.ndarray):
    """Marks a W built in this module, to which nothing else holds a
    reference: MixingMatrix keeps it without a copy."""


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Symmetric doubly stochastic weights with contraction rate sigma.

    sigma is the largest singular value of W - (1/N) 11^T, read from W's
    eigenvalues.  It is computed on first read and cached, so building W
    and mixing with it do no O(N^3) work.  Validation rejects matrices that
    are not square, finite and symmetric, or whose row or column sums
    deviate from 1 by more than 1e-12.  Finiteness and symmetry are checked
    one fixed block of rows at a time, so no temporary of W's size is made.
    sigma itself is not checked: it may equal 1 (e.g. for the identity),
    and such a matrix does not contract.

    An array passed in is copied, so changing it later leaves `w` as it
    was; `w` is read-only.  Only the W that metropolis_weights builds is
    kept without a copy.

    `w` is always the dense matrix; `apply` (alias `mix`) is the one checked
    product with a stacked (N, d) state.  On first use it fixes the product
    from W's fill: with K the largest number of nonzeros in a row, a
    neighbour list when 20·K <= N, else the dense BLAS product.  The list
    holds the rows sorted by nonzero count in blocks of 128, each padded
    only to its own widest row.  The rule rests on single-thread medians on
    Erdős–Rényi graphs: at N=1000, K=24 (d=16) the list mixes in 0.2 ms
    against 0.9-1.3 ms dense; at N=200, K=18 (d=32) dense wins, 50 µs to
    62 µs; at N=50, K=17 (d=64) dense wins, 6 µs to 32 µs.  The products
    agree to rounding (2e-16 relative on those graphs); the dense one is
    exactly `w @ x`.  Like the objective specs, a MixingMatrix compares and
    hashes by identity.
    """

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w) if type(self.w) is _Built else np.array(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {w.shape}")
        asym = 0.0   # max |W - W^T|, raised on after the sums are checked
        for r in range(0, len(w), _ROW_BLOCK):
            block = w[r:r + _ROW_BLOCK]
            if not np.isfinite(block).all():
                raise ValueError("weight matrix has non-finite entries")
            diff = np.subtract(block, w[:, r:r + _ROW_BLOCK].T)
            asym = max(asym, float(np.abs(diff, out=diff).max()))
        rows = w.sum(axis=1)
        cols = w.sum(axis=0)
        if np.max(np.abs(rows - 1.0)) > _STOCH_TOL or np.max(np.abs(cols - 1.0)) > _STOCH_TOL:
            raise ValueError("weight matrix is not doubly stochastic to 1e-12")
        if asym > _STOCH_TOL:
            raise ValueError("weight matrix is not symmetric")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @cached_property
    def sigma(self) -> float:
        # sigma < 1 is guaranteed for weights built from a connected graph
        # with positive diagonal; arbitrary matrices (e.g. the identity) may
        # sit at 1 and simply do not contract.  W is symmetric with W 1 = 1,
        # so W - 11^T/N has W's eigenvalues with the all-ones vector's 1
        # replaced by 0, and sigma is the largest of their magnitudes.
        eig = np.linalg.eigvalsh(self.w)
        eig = np.delete(eig, np.argmin(np.abs(eig - 1.0)))
        return float(np.abs(eig).max(initial=0.0))

    @property
    def n_agents(self) -> int:
        return self.w.shape[0]

    @cached_property
    def _neighbours(self) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]] | None:
        # None for the dense product, else the rows sorted by nonzero count in
        # _MIX_BLOCK-row ELL blocks as wide as their widest row (narrower rows
        # pad with their own index at weight 0), and the inverse permutation.
        counts = np.count_nonzero(self.w, axis=1)
        if _ELL_SPARSITY * int(counts.max()) > self.n_agents:
            return None
        order = np.argsort(counts, kind="stable")
        blocks = []
        for r in range(0, self.n_agents, _MIX_BLOCK):
            rows = order[r:r + _MIX_BLOCK]
            nnz = counts[rows]
            i, j = np.nonzero(self.w[rows])
            slot = np.arange(i.size) - np.repeat(np.cumsum(nnz) - nnz, nnz)
            idx = np.repeat(rows[:, None], nnz[-1], axis=1)
            idx[i, slot] = j
            wts = np.zeros(idx.shape)[:, None]
            wts[i, 0, slot] = self.w[rows[i], j]
            blocks.append((idx, wts))
        return np.argsort(order), blocks

    def apply(self, x: np.ndarray) -> np.ndarray:
        """One consensus round: output row i is sum_j W[i,j] * row j of the
        stacked (N, d) state x, through the product fixed by the rule in the
        class docstring.  Preserves the column-wise mean because W is doubly
        stochastic.  Raises ValueError for any x that is not (N, d)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] != self.n_agents:
            raise ValueError(f"stacked state must be ({self.n_agents}, d), got shape {x.shape}")
        ell = self._neighbours
        if ell is None:
            return self.w @ x
        inverse, blocks = ell
        out = np.empty((self.n_agents, 1, x.shape[1]))
        for r, (idx, wts) in zip(range(0, self.n_agents, _MIX_BLOCK), blocks):
            np.matmul(wts, np.take(x, idx, axis=0), out=out[r:r + len(idx)])
        return np.take(out[:, 0], inverse, axis=0)


def _is_connected(n: int, edges: frozenset[tuple[int, int]]) -> bool:
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


def _lattice_edges(kind: str, n: int) -> list[tuple[int, int]]:
    # The fixed kinds but complete are r x c lattices numbered row by row:
    # a path is 1 x n, a grid the most nearly square r x c with r*c == n (a
    # path when n is prime), and a ring a path closed by (0, n - 1).
    if kind == "complete":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    r = int(np.sqrt(n)) if kind == "grid" else 1
    while n % r:
        r -= 1
    c = n // r
    edges = [(v, v + 1) for v in range(n) if (v + 1) % c] + [(v, v + c) for v in range(n - c)]
    return edges + [(0, n - 1)] if kind == "ring" else edges


def _erdos_renyi_edges(g: np.random.Generator, n: int, prob: float) -> list[tuple[int, int]]:
    # Pair i < j is an edge when entry (i, j) of an (n, n) uniform draw is
    # below prob.  The draw is taken _ROW_BLOCK rows at a time, which reads
    # the same stream as one g.random((n, n)).
    edges = []
    for r in range(0, n, _ROW_BLOCK):
        i, j = np.nonzero(g.random((min(_ROW_BLOCK, n - r), n)) < prob)
        i += r
        upper = j > i
        edges += zip(i[upper].tolist(), j[upper].tolist())
    return edges


def check_topology(kind: str, n: int, prob: float | None) -> None:
    """Reject arguments build_topology cannot build from: n < 2, an unknown
    kind, erdos_renyi without prob in (0, 1], or a prob for any other kind."""
    if n < 2:
        raise ValueError(f"build_topology needs n >= 2, got {n}")
    if kind not in TopologyKind:
        raise ValueError(f"unknown topology kind {kind!r}")
    if kind == "erdos_renyi" and (prob is None or not 0.0 < prob <= 1.0):
        raise ValueError(f"erdos_renyi needs prob in (0, 1], got {prob}")
    if kind != "erdos_renyi" and prob is not None:
        raise ValueError(f"only erdos_renyi takes a prob, got {prob} for {kind}")


def build_topology(kind: str, n: int, seed: int = 0, prob: float | None = None) -> Topology:
    """Construct a connected topology of the requested kind.

    kind is one of ring, path, complete, erdos_renyi, grid; check_topology
    rejects anything else.  Each candidate edge list is tried as a Topology
    and the first connected one is returned: a fixed kind has one candidate,
    its lattice, while erdos_renyi draws up to 100 with fresh derived seeds
    and raises if none is connected.  An Erdős–Rényi candidate's (n, n)
    uniforms are drawn one fixed block of rows at a time: the stream and
    edges of one (n, n) draw, without holding it.
    """
    check_topology(kind, n, prob)
    if kind == "erdos_renyi":
        rngs = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(_ER_MAX_TRIES))
        candidates = (_erdos_renyi_edges(g, n, prob) for g in rngs)
    else:
        candidates = [_lattice_edges(kind, n)]
    for edges in candidates:
        try:
            return Topology(n_agents=n, edges=frozenset(edges))
        except DisconnectedGraphError:
            continue
    raise DisconnectedGraphError(
        f"no connected Erdos-Renyi sample in {_ER_MAX_TRIES} tries (n={n}, prob={prob})"
    )


def metropolis_weights(t: Topology) -> MixingMatrix:
    """Metropolis-Hastings weights: W[i,j] = 1/(1 + max(deg_i, deg_j)) on edges,
    with the diagonal absorbing the remainder.  Symmetric and doubly stochastic
    for any undirected graph.

    Built once per Topology instance and cached on it, so every call with
    the same topology returns the same MixingMatrix."""
    return t._metropolis


mix = MixingMatrix.apply  # one consensus round; see MixingMatrix.apply
