import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dzo import network
from dzo.algorithms import ALGORITHMS, Schedule, StopRule, run
from dzo.network import (
    DisconnectedGraphError,
    MixingMatrix,
    Topology,
    build_topology,
    metropolis_weights,
    mix,
    spectral_gap,
)
from dzo.oracle import make_benchmark

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


def test_erdos_renyi_connected():
    t = build_topology("erdos_renyi", 50, seed=7, prob=0.3)
    assert t.n_agents == 50
    assert bfs_connected(50, t.edges)


def test_erdos_renyi_deterministic():
    a = build_topology("erdos_renyi", 20, seed=3, prob=0.15)
    b = build_topology("erdos_renyi", 20, seed=3, prob=0.15)
    assert a.edges == b.edges


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        Topology(n_agents=4, edges=frozenset({(0, 1), (2, 3)}))
    with pytest.raises(ValueError):
        Topology(n_agents=0, edges=frozenset())


def test_bad_kind_and_sizes():
    with pytest.raises(ValueError):
        build_topology("star", 5)
    with pytest.raises(ValueError):
        build_topology("ring", 1)
    with pytest.raises(ValueError):
        build_topology("erdos_renyi", 5, prob=0.0)


def test_metropolis_path3():
    w = metropolis_weights(build_topology("path", 3))
    np.testing.assert_allclose(w.w, PATH3_W, atol=1e-15)
    # Eigenvalues of the path-3 weights are {1, 2/3, 0}.
    assert w.sigma == pytest.approx(2 / 3, abs=1e-12)


def test_metropolis_complete3_is_projector():
    w = metropolis_weights(build_topology("complete", 3))
    np.testing.assert_allclose(w.w, np.full((3, 3), 1 / 3), atol=1e-15)
    assert w.sigma == pytest.approx(0.0, abs=1e-12)


def test_spectral_gap_known_values():
    assert spectral_gap(np.full((3, 3), 1 / 3)) == pytest.approx(0.0, abs=1e-12)
    assert spectral_gap(np.eye(2)) == pytest.approx(1.0, abs=1e-12)
    assert spectral_gap(PATH3_W) == pytest.approx(2 / 3, abs=1e-10)
    with pytest.raises(ValueError):
        spectral_gap(np.ones((2, 3)))


def test_spectral_gap_deterministic():
    rng = np.random.default_rng(0)
    t = build_topology("erdos_renyi", 30, seed=1, prob=0.2)
    w = metropolis_weights(t).w
    vals = {spectral_gap(w) for _ in range(5)}
    assert len(vals) == 1


def test_sigma_is_computed_once_on_first_read(monkeypatch):
    calls = []

    def counted(w):
        calls.append(1)
        return spectral_gap(w)

    monkeypatch.setattr(network, "spectral_gap", counted)
    t = build_topology("ring", 6)
    for alg in ALGORITHMS:
        run(alg, t, make_benchmark(6, 3, seed=0), Schedule(step_size=0.05),
            StopRule("rounds", 3), seed=0)
    w = metropolis_weights(t)
    assert calls == []
    first, second = w.sigma, w.sigma
    assert len(calls) == 1
    assert first == second == spectral_gap(w.w)


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


def test_mix_shape_mismatch():
    w = metropolis_weights(build_topology("ring", 4))
    with pytest.raises(ValueError):
        mix(w, np.zeros((3, 2)))


def test_mixing_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        MixingMatrix(np.array([[0.9, 0.0], [0.0, 0.9]]))  # not stochastic
    with pytest.raises(ValueError):
        MixingMatrix(np.array([[0.5, 0.5], [0.6, 0.4]]))  # not symmetric


@pytest.mark.parametrize("kind,n", [("ring", 9), ("path", 7), ("complete", 6),
                                    ("grid", 12), ("erdos_renyi", 25)])
def test_double_stochasticity_and_contraction(kind, n):
    t = build_topology(kind, n, seed=5, prob=0.25)
    w = metropolis_weights(t)
    assert np.max(np.abs(w.w.sum(axis=0) - 1.0)) <= 1e-12
    assert np.max(np.abs(w.w.sum(axis=1) - 1.0)) <= 1e-12
    assert w.sigma < 1.0
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
