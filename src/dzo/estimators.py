"""Zeroth-order gradient estimators, batched over stacked agent rows.

Each estimator takes one point per row, ``x`` of shape (n, d), row i
belonging to agent ``rows[i]`` (agent i where no ``rows`` is taken; callers
pass the oracle's ``every_agent`` for every agent in order), and charges
the oracle through ``ZerothOrderOracle.evaluate_rows``: 2 queries per row
for ``two_point`` and ``coord_pair``, 2d for ``sweep``.  Sweeps and
coordinate pairs share one ±u·e_l stencil: one ``Stencil``, checked when it
is built, passed to the oracle, which charges it like the points it stands
for and evaluates it through the objective's rank-1 structure, so no sweep
builds its (n, 2d, d) points.  ``two_point`` builds its 2 points per row: at
that size the dense form, with 2 row dot products against 5, is the faster one.

``vr_estimate`` corrects the cached sweep at a frozen snapshot point (a
``SnapshotBlock`` row) on one coordinate; it is conditionally unbiased for
the sweep at the iterate.  Both accounting modes read its snapshot term
from the stored sweep, so their estimates are bit-identical by construction:
``paper_faithful`` charges the snapshot coordinate pair as a re-query that
the oracle answers from the sweep's held values (4 queries per row, 4 + 2dp
on average with refresh probability p); ``cached`` does not (2 + 2dp).
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .oracle import Stencil, ZerothOrderOracle

COUNTING_MODES = ("paper_faithful", "cached")
BLOCK_BYTES = 1 << 20   # directions drawn per block
SQUARE_PARTS = 4        # a block's squares are taken in parts, to hold less memory


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


def _fill_block(rng: np.random.Generator, z: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Fill z, (r, n, d), with the directions of r successive sphere(rng, n, d)
    calls, bit for bit; sq, (c, n, d), takes the squares of c rounds at a
    time.  Returns z."""
    state = rng.bit_generator.state
    rng.standard_normal(out=z)
    norms = np.empty((*z.shape[:2], 1))
    for i in range(0, len(z), len(sq)):
        part = z[i:i + len(sq)]
        np.add.reduce(np.multiply(part, part, out=sq[:len(part)]), axis=-1, keepdims=True,
                      out=norms[i:i + len(part)])
    np.sqrt(norms, out=norms)
    if np.any(norms == 0.0):  # probability-zero: redraw the block as sphere would
        rng.bit_generator.state = state
        for block_round in z:
            block_round[...] = sphere(rng, *block_round.shape)
    else:
        z /= norms
    return z


def mapped(*shape: int) -> np.ndarray:
    """A float array on anonymous pages of its own, unmapped when dropped.
    For buffers reused through a run: freeing a malloc block this large
    raises glibc's mmap threshold, and the heap it leaves raised repeated
    runs' peak RSS."""
    import mmap   # not loaded by `import dzo`

    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)


def directions(rng: np.random.Generator, n: int, d: int) -> Iterator[np.ndarray]:
    """Endless per-round (n, d) unit directions, bit for bit those of
    successive sphere(rng, n, d) calls.

    Each block of about BLOCK_BYTES of rounds is one draw and one
    normalisation.  The stream owns one worker thread, opened at its first
    next() and joined when the stream is closed or finalised; it draws the
    next block while the current one is consumed and is the only caller of
    rng.  A worker's exception surfaces from next(), or from close() when
    it was raised drawing the block in flight.  Each round is yielded as a
    copy, so it stays valid while the block buffers are reused."""
    from concurrent.futures import ThreadPoolExecutor   # not loaded by `import dzo`

    rounds = max(1, BLOCK_BYTES // (8 * n * d))
    ready, spare = mapped(rounds, n, d), mapped(rounds, n, d)
    sq = mapped(-(-rounds // SQUARE_PARTS), n, d)
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(_fill_block, rng, ready, sq)
        try:
            while True:
                ready = pending.result()
                pending = pool.submit(_fill_block, rng, spare, sq)
                for z in ready:
                    yield z.copy()
                spare = ready
        except GeneratorExit:
            pending.result()
            raise


def two_point(oracle: ZerothOrderOracle, rows: np.ndarray, x: np.ndarray, u: float,
              z: np.ndarray) -> np.ndarray:
    """Difference quotients along the unit rows of z, scaled by d; (n, d)."""
    n, d = x.shape
    uz = u * z
    pts = np.empty((n, 2, d))
    np.add(x, uz, out=pts[:, 0])
    np.subtract(x, uz, out=pts[:, 1])
    vals = oracle.evaluate_rows(rows, pts)
    return d * ((vals[:, 0] - vals[:, 1]) / (2.0 * u))[:, None] * z


def _stencil(oracle: ZerothOrderOracle, rows: np.ndarray, x: np.ndarray, u,
             coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n, m) central differences at row i along each coordinate in
    coords[i], and the (n, 2, m) values they are taken from, + then -."""
    st = Stencil(x, u, coords)
    vals = oracle.evaluate_rows(rows, st).reshape(len(x), 2, coords.shape[1])
    return (vals[:, 0] - vals[:, 1]) / (2.0 * st.u), vals


def sweep(oracle: ZerothOrderOracle, rows: np.ndarray, x: np.ndarray,
          u: float) -> np.ndarray:
    """Full coordinate sweep: the (n, d) estimate, 2d queries per row."""
    return _stencil(oracle, rows, x, u, np.arange(x.shape[1])[None])[0]


def coord_pair(oracle: ZerothOrderOracle, rows: np.ndarray, x: np.ndarray, u,
               l: np.ndarray) -> np.ndarray:
    """Central-difference quotient along coordinate l[i] at row i, u scalar or per row; (n,)."""
    return _stencil(oracle, rows, x, u, np.asarray(l)[:, None])[0][:, 0]


class SnapshotBlock:
    """Per-agent snapshot points x_tilde, their radii u_tilde, and the
    values and quotients ``full`` of the sweep taken there.

    values[i, 0, l] and values[i, 1, l] are agent i's values at
    x_tilde[i] ± u_tilde[i]·e_l, and full[i, l] their quotient, so
    coordinate terms at a snapshot need no new evaluations.
    """

    def __init__(self, oracle: ZerothOrderOracle, x: np.ndarray, u: float):
        self.x_tilde, self.u_tilde = x.copy(), np.full(len(x), float(u))
        self.full, self.values = _stencil(oracle, oracle.every_agent, x, u,
                                          np.arange(x.shape[1])[None])

    def capture_rows(self, oracle: ZerothOrderOracle, rows: np.ndarray,
                     x_rows: np.ndarray, u: float) -> None:
        """Refresh the given agents' snapshots at (x_rows, u); 2d queries each."""
        self.x_tilde[rows], self.u_tilde[rows] = x_rows, u
        self.full[rows], self.values[rows] = _stencil(oracle, rows, x_rows, u,
                                                      np.arange(x_rows.shape[1])[None])


def vr_estimate(oracle: ZerothOrderOracle, snap: SnapshotBlock, x: np.ndarray, u: float,
                l: np.ndarray, counting_mode: str) -> np.ndarray:
    """Variance-reduced estimate at (x, u) for every agent; (n, d).

    full(x_tilde) + d * (quotient(x, u, l) - quotient(x_tilde, u_tilde, l))
    on coordinate l[i].  Averaged uniformly over l this equals the sweep at
    (x, u).  The variance bound assumes u <= u_tilde, which non-increasing
    schedules guarantee.  The snapshot quotient is snap.full's; paper_faithful
    also charges its pair, a re-query the oracle answers from snap.values.
    """
    d = x.shape[1]
    rows = oracle.every_agent
    q_x = coord_pair(oracle, rows, x, u, l)
    if counting_mode == "paper_faithful":
        oracle.evaluate_rows(rows, Stencil(snap.x_tilde, snap.u_tilde, np.asarray(l)[:, None],
                                           snap.values[rows, :, l]))
    q_snap = snap.full[rows, l]
    g = snap.full.copy()
    g[rows, l] += d * q_x - d * q_snap
    return g
