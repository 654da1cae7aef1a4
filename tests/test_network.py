import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dzo import network
from dzo.algorithms import ALGORITHMS, RunState, Schedule, StopRule, run
from dzo.network import (
    DisconnectedGraphError,
    MixingMatrix,
    Topology,
    build_topology,
    metropolis_weights,
    mix,
)
from dzo.oracle import FAMILIES, make_benchmark
from reference import erdos_renyi_candidates

# Hand-derived Metropolis weights for the 3-node path (degrees 1, 2, 1).
PATH3_W = np.array([
    [2 / 3, 1 / 3, 0.0],
    [1 / 3, 1 / 3, 1 / 3],
    [0.0, 1 / 3, 2 / 3],
])


def bfs_connected(n, edges):
    # Independent connectivity oracle.
    adj = {i: set() for i in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    frontier = [0]
    while frontier:
        frontier = [u for v in frontier for u in adj[v] if u not in seen]
        seen.update(frontier)
    return len(seen) == n


def test_path_edges():
    t = build_topology("path", 3)
    assert t.edges == frozenset({(0, 1), (1, 2)})


def test_complete_edge_count():
    assert len(build_topology("complete", 4).edges) == 6


def test_fixed_kinds_edge_sets():
    def edges(kind, n):
        return build_topology(kind, n).edges

    assert edges("ring", 2) == {(0, 1)}
    assert edges("ring", 5) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    assert edges("path", 4) == {(0, 1), (1, 2), (2, 3)}
    assert edges("complete", 4) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    # grid(6) is 2 x 3, grid(9) is 3 x 3, and a prime grid is a path.
    assert edges("grid", 6) == {(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)}
    assert edges("grid", 7) == {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}
    assert edges("grid", 9) == {(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8),
                                (0, 3), (3, 6), (1, 4), (4, 7), (2, 5), (5, 8)}
    for n in range(2, 61):
        r = max(k for k in range(1, math.isqrt(n) + 1) if n % k == 0)
        c = n // r
        assert len(edges("ring", n)) == (n if n >= 3 else 1)
        assert len(edges("path", n)) == n - 1
        assert len(edges("complete", n)) == n * (n - 1) // 2
        assert len(edges("grid", n)) == r * (c - 1) + (r - 1) * c
    with pytest.raises(TypeError):
        build_topology("ring", 5.0)


def test_erdos_renyi_connected():
    t = build_topology("erdos_renyi", 50, seed=7, prob=0.3)
    assert t.n_agents == 50
    assert bfs_connected(50, t.edges)


def test_erdos_renyi_deterministic():
    a = build_topology("erdos_renyi", 20, seed=3, prob=0.15)
    b = build_topology("erdos_renyi", 20, seed=3, prob=0.15)
    assert a.edges == b.edges


@pytest.mark.parametrize("prob", [0.01, 0.2, 1.0])
@pytest.mark.parametrize("n", [2, 63, 64, 65, 130, 1000])
def test_erdos_renyi_matches_one_shot_draw(n, prob):
    # The draw is taken by row blocks; the edges must be those of one
    # (n, n) draw, including the retries.  At n = 1000, prob = 0.01, seed
    # 48's first candidate is disconnected and its second is connected.
    seed = 48
    first = next(((k, e) for k, e in enumerate(erdos_renyi_candidates(n, seed, prob))
                  if bfs_connected(n, e)), None)
    if (n, prob) == (1000, 0.01):
        assert first[0] == 1
    if first is None:
        with pytest.raises(DisconnectedGraphError, match="no connected Erdos-Renyi sample"):
            build_topology("erdos_renyi", n, seed=seed, prob=prob)
    else:
        assert build_topology("erdos_renyi", n, seed=seed, prob=prob).edges == first[1]


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        Topology(n_agents=4, edges=frozenset({(0, 1), (2, 3)}))
    with pytest.raises(ValueError):
        Topology(n_agents=0, edges=frozenset())
    for edge in ((1, 0), (1, 1), (0, 3)):
        with pytest.raises(ValueError, match=re.escape(f"bad edge {edge} for n=3")):
            Topology(n_agents=3, edges=frozenset({(0, 1), (1, 2), edge}))


def test_bad_kind_and_sizes():
    with pytest.raises(ValueError):
        build_topology("star", 5)
    with pytest.raises(ValueError):
        build_topology("ring", 1)
    with pytest.raises(ValueError):
        build_topology("erdos_renyi", 5, prob=0.0)
    with pytest.raises(ValueError, match="only erdos_renyi takes a prob"):
        build_topology("grid", 4, prob=0.5)
    with pytest.raises(DisconnectedGraphError, match="no connected Erdos-Renyi sample in 100"):
        build_topology("erdos_renyi", 50, prob=0.001)


def test_metropolis_path3():
    w = metropolis_weights(build_topology("path", 3))
    np.testing.assert_allclose(w.w, PATH3_W, atol=1e-15)
    # Eigenvalues of the path-3 weights are {1, 2/3, 0}.
    assert w.sigma == pytest.approx(2 / 3, abs=1e-12)


def test_metropolis_complete3_is_projector():
    w = metropolis_weights(build_topology("complete", 3))
    np.testing.assert_allclose(w.w, np.full((3, 3), 1 / 3), atol=1e-15)
    assert w.sigma == pytest.approx(0.0, abs=1e-12)


def test_sigma_known_values():
    assert MixingMatrix(np.full((3, 3), 1 / 3)).sigma == pytest.approx(0.0, abs=1e-12)
    assert MixingMatrix(np.eye(2)).sigma == pytest.approx(1.0, abs=1e-12)
    assert MixingMatrix(PATH3_W).sigma == pytest.approx(2 / 3, abs=1e-10)
    with pytest.raises(ValueError):
        MixingMatrix(np.ones((2, 3)))


def test_array_holders_compare_by_identity():
    # An array field has no single truth value, so specs, weights and run
    # states compare by identity; Topology keeps value equality.
    pairs = [(make(2, 3, seed=1), make(2, 3, seed=1)) for make in FAMILIES.values()]
    pairs.append((MixingMatrix(np.full((2, 2), 0.5)), MixingMatrix(np.full((2, 2), 0.5))))
    pairs.append((RunState(k=0, x=np.zeros((2, 2)), oracle=None, rng=None),
                  RunState(k=0, x=np.zeros((2, 2)), oracle=None, rng=None)))
    for a, twin in pairs:
        assert a == a and a != twin
        assert hash(a) == hash(a)
        table = {a: 1, twin: 2}
        assert table[a] == 1 and table[twin] == 2
    assert build_topology("ring", 4) == build_topology("ring", 4)
    assert hash(build_topology("ring", 4)) == hash(build_topology("ring", 4))


@pytest.mark.parametrize("kind,n", [("ring", 9), ("path", 7), ("complete", 6), ("grid", 12),
                                    ("erdos_renyi", 25), ("erdos_renyi", 1000)])
def test_sigma_matches_svd(kind, n):
    prob = {25: 0.25, 1000: 0.01}.get(n) if kind == "erdos_renyi" else None
    w = metropolis_weights(build_topology(kind, n, seed=5, prob=prob))
    svd = np.linalg.svd(w.w - 1.0 / n, compute_uv=False)[0]
    assert abs(w.sigma - svd) <= 1e-12
    for fixed, want in ((np.eye(n), 1.0), (np.full((n, n), 1.0 / n), 0.0)):
        assert abs(MixingMatrix(fixed).sigma - want) <= 1e-12


def test_sigma_deterministic():
    w = metropolis_weights(build_topology("erdos_renyi", 30, seed=1, prob=0.2)).w
    vals = {MixingMatrix(w).sigma for _ in range(5)}
    assert len(vals) == 1


def test_sigma_is_computed_once_on_first_read():
    t = build_topology("ring", 6)
    for alg in ALGORITHMS:
        run(alg, t, make_benchmark(6, 3, seed=0), Schedule(step_size=0.05),
            StopRule("rounds", 3), seed=0)
    w = metropolis_weights(t)
    assert "sigma" not in vars(w)
    first = w.sigma
    assert vars(w)["sigma"] == first
    assert first == w.sigma == MixingMatrix(w.w).sigma


def test_mix_projector_and_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 3))
    proj = MixingMatrix(np.full((4, 4), 0.25))
    np.testing.assert_allclose(mix(proj, x), np.tile(x.mean(axis=0), (4, 1)), atol=1e-14)
    ident = MixingMatrix(np.eye(4))
    np.testing.assert_array_equal(mix(ident, x), x)


def test_mix_path3_frozen():
    w = metropolis_weights(build_topology("path", 3))
    out = mix(w, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    np.testing.assert_allclose(out, [[2 / 3, 0.0], [1 / 3, 0.0], [0.0, 0.0]], atol=1e-15)


def star_path(n, hub_degree):
    # A path through every agent plus a hub wired to the first hub_degree
    # agents: one wide row, all others narrow, so the neighbour list pads.
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, j) for j in range(2, hub_degree + 1)}
    return Topology(n_agents=n, edges=frozenset(edges))


MIX_CASES = {
    # name: (topology, takes the neighbour-list product)
    "ring8": (build_topology("ring", 8), False),  # the golden trajectories' graph
    "complete6": (build_topology("complete", 6), False),
    "er50": (build_topology("erdos_renyi", 50, seed=3, prob=0.2), False),  # fig1's size
    "er1000": (build_topology("erdos_renyi", 1000, seed=3, prob=0.01), True),
    "path200": (build_topology("path", 200), True),
    "star_path200": (star_path(200, 9), True),
}


@pytest.mark.parametrize("name", sorted(MIX_CASES))
def test_apply_matches_dense_product(name):
    topo, sparse = MIX_CASES[name]
    w = metropolis_weights(topo)
    assert (w._neighbours is not None) == sparse
    rng = np.random.default_rng(5)
    for d in (1, 16, 33):
        x = rng.standard_normal((topo.n_agents, d))
        want = w.w @ x
        got = w.apply(x)
        assert got.shape == want.shape
        if sparse:
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())
        else:
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(mix(w, x), got)


@pytest.mark.parametrize("name", ["er1000", "path200", "star_path200"])
def test_neighbour_blocks_hold_each_row_once_at_its_blocks_width(name):
    # path200 has degree-1 rows; star_path200 one wide row among narrow ones.
    w = metropolis_weights(MIX_CASES[name][0])
    n = w.n_agents
    inverse, blocks = w._neighbours
    np.testing.assert_array_equal(np.sort(inverse), np.arange(n))
    assert sum(len(idx) for idx, _ in blocks) == n
    order = np.argsort(inverse)   # agent held at each stored row
    counts = np.count_nonzero(w.w, axis=1)
    assert np.all(np.diff(counts[order]) >= 0)
    start = 0
    for idx, wts in blocks:
        agents = order[start:start + len(idx)]
        start += len(idx)
        assert wts.shape == (len(idx), 1, idx.shape[1])
        assert idx.shape[1] == counts[agents].max()
        np.testing.assert_allclose(wts.sum(axis=(1, 2)), 1.0, rtol=0, atol=1e-12)
        for agent, cols, row_wts in zip(agents, idx, wts[:, 0]):
            np.testing.assert_array_equal(np.bincount(cols, row_wts, minlength=n), w.w[agent])


@pytest.mark.parametrize("name", ["er1000", "path200", "star_path200", "ring8"])
def test_apply_returns_independent_arrays(name):
    w = metropolis_weights(MIX_CASES[name][0])
    weights = w.w.copy()
    x = np.random.default_rng(2).standard_normal((w.n_agents, 5))
    a, b = w.apply(x), w.apply(x)
    kept = b.copy()
    a[:] = np.nan
    np.testing.assert_array_equal(b, kept)
    np.testing.assert_array_equal(w.w, weights)
    np.testing.assert_array_equal(w.apply(x), kept)


def test_mix_shape_mismatch():
    # One check, one error, through apply and through mix, for both
    # products: ring(4) and ring(10) mix dense, path(200) and ring(100)
    # through the neighbour list.
    assert mix is MixingMatrix.apply
    for kind, n in (("ring", 4), ("ring", 10), ("path", 200), ("ring", 100)):
        w = metropolis_weights(build_topology(kind, n))
        assert (w._neighbours is not None) == (n >= 100)
        for shape in ((n + 1, 3), (n + 5, 3), (n - 1, 2), (n,), (n, 2, 1)):
            want = re.escape(f"stacked state must be ({n}, d), got shape {shape}")
            for product in (w.apply, lambda x: mix(w, x)):
                with pytest.raises(ValueError, match=want):
                    product(np.ones(shape))


def test_weights_are_built_once_per_topology(monkeypatch):
    # Topology._metropolis is the only caller of the MixingMatrix
    # constructor in dzo.network, so counting constructions counts builds.
    built = []

    def counted(w):
        built.append(MixingMatrix(w=w))
        return built[-1]

    monkeypatch.setattr(network, "MixingMatrix", counted)
    t = build_topology("ring", 6)
    w = metropolis_weights(t)
    assert metropolis_weights(t) is w
    run("vrgt", t, make_benchmark(6, 3, seed=0), Schedule(step_size=0.05),
        StopRule("rounds", 3), seed=0)
    assert built == [w]
    # An equal but distinct topology gets its own, equal, matrix.
    twin = build_topology("ring", 6)
    assert metropolis_weights(twin) is not w
    np.testing.assert_array_equal(metropolis_weights(twin).w, w.w)
    assert len(built) == 2


def test_mixing_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError, match="not doubly stochastic"):
        MixingMatrix(np.array([[0.9, 0.0], [0.0, 0.9]]))
    with pytest.raises(ValueError, match="not doubly stochastic"):
        MixingMatrix(np.array([[0.5, 0.5], [0.6, 0.4]]))  # nor symmetric
    with pytest.raises(ValueError, match="non-finite"):
        MixingMatrix(np.array([[np.nan, 1.0], [1.0, 0.0]]))
    # A 3-cycle permutation is doubly stochastic but not symmetric.
    with pytest.raises(ValueError, match="not symmetric"):
        MixingMatrix(np.roll(np.eye(3), 1, axis=1))


def cycle_asymmetry(n, eps):
    """Metropolis weights of ring(n) plus eps on the 3-cycle n-3 -> n-2 -> n-1
    -> n-3 and -eps on its reverse: still doubly stochastic, with
    max |W - W^T| = 2 eps, all of it in the last three rows and columns."""
    w = metropolis_weights(build_topology("ring", n)).w.copy()
    a, b, c = n - 3, n - 2, n - 1
    for i, j in ((a, b), (b, c), (c, a)):
        w[i, j] += eps
        w[j, i] -= eps
    return w


def test_block_checks_reach_the_last_partial_block():
    # 67 rows: the last row block holds rows 64..66 alone.
    n = 67
    with pytest.raises(ValueError, match="not symmetric"):
        MixingMatrix(cycle_asymmetry(n, 1e-12))
    MixingMatrix(cycle_asymmetry(n, 5e-14))
    w = metropolis_weights(build_topology("ring", n)).w.copy()
    w[n - 1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        MixingMatrix(w)


def test_caller_array_is_copied():
    w = metropolis_weights(build_topology("ring", 5)).w.copy()
    m = MixingMatrix(w)
    w[0, 0] = 7.0
    assert m.w[0, 0] != 7.0
    assert not m.w.flags.writeable
    np.testing.assert_array_equal(m.w, metropolis_weights(build_topology("ring", 5)).w)


def test_weights_build_holds_one_dense_array():
    # ER(1500) weights: W itself is 8 N^2 bytes.  No uniform draw, copy of W
    # or W - W^T of that size may be held beside it.
    n = 1500
    tracemalloc.start()
    try:
        metropolis_weights(build_topology("erdos_renyi", n, seed=1, prob=0.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 8 * n * n


@pytest.mark.parametrize("kind,n", [("ring", 9), ("path", 7), ("complete", 6),
                                    ("grid", 12), ("erdos_renyi", 25)])
def test_double_stochasticity_and_contraction(kind, n):
    t = build_topology(kind, n, seed=5, prob=0.25 if kind == "erdos_renyi" else None)
    w = metropolis_weights(t)
    assert np.max(np.abs(w.w.sum(axis=0) - 1.0)) <= 1e-12
    assert np.max(np.abs(w.w.sum(axis=1) - 1.0)) <= 1e-12
    assert w.sigma < 1.0
    # The per-edge loop gives the same matrix bit for bit.
    deg = np.zeros(n, dtype=np.int64)
    for i, j in t.edges:
        deg[i] += 1
        deg[j] += 1
    ref = np.zeros((n, n))
    for i, j in t.edges:
        ref[i, j] = ref[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(ref, 1.0 - ref.sum(axis=1))
    np.testing.assert_array_equal(w.w, ref)
    # Off-pattern entries are exactly zero.
    adj = np.eye(n, dtype=bool)
    for i, j in t.edges:
        adj[i, j] = adj[j, i] = True
    assert np.all(w.w[~adj] == 0.0)

    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal((n, 4))
        mixed = mix(w, x)
        np.testing.assert_allclose(mixed.mean(axis=0), x.mean(axis=0), atol=1e-12)
        before = np.linalg.norm(x - x.mean(axis=0))
        after = np.linalg.norm(mixed - x.mean(axis=0))
        assert after <= w.sigma * before + 1e-10


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["ring", "path", "complete", "grid"]),
       n=st.integers(min_value=2, max_value=30),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_any_topology_mixes_and_contracts(kind, n, seed):
    t = build_topology(kind, n, seed=seed)
    assert bfs_connected(n, t.edges)
    w = metropolis_weights(t)
    assert 0.0 <= w.sigma < 1.0
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    np.testing.assert_allclose(mix(w, x).mean(axis=0), x.mean(axis=0), atol=1e-12)
