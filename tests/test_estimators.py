import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dzo.algorithms import Schedule, init_vrgt, vrgt_step
from dzo.estimators import SnapshotBlock, coord_pair, sphere, sweep, two_point, vr_estimate
from dzo.network import build_topology, metropolis_weights
from dzo.oracle import (FAMILIES, Linear, Stencil, ZerothOrderOracle, make_benchmark,
                        make_linear)
from reference import analytic_grad, diagonal_quadratic, stencil_points, dense_stencil

ROW = np.array([0])   # single-agent oracles: one row, agent 0


def quad_oracle(d, diag=1.0):
    return ZerothOrderOracle(diagonal_quadratic(1, d, diag))


def coordinate_estimate(oracle, x, u, l):
    """Single-coordinate estimate d * quotient placed at coordinate l; (d,)."""
    d = x.shape[0]
    out = np.zeros(d)
    out[l] = d * coord_pair(oracle, ROW, x[None], u, np.array([l]))[0]
    return out


def vr(oracle, snap, x, u, l, counting_mode="paper_faithful"):
    return vr_estimate(oracle, snap, x[None], u, np.array([l]), counting_mode)[0]


def test_two_point_linear_exact():
    oracle = ZerothOrderOracle(Linear(n_agents=1, dim=3, coef=[[1.0, 0.0, 0.0]]))
    z = np.array([[1.0, 0.0, 0.0]])
    for u in (0.01, 0.5, 2.0):
        np.testing.assert_allclose(two_point(oracle, ROW, np.zeros((1, 3)), u, z),
                                   [[3.0, 0.0, 0.0]], atol=1e-12)


def test_two_point_symmetric_cancellation():
    oracle = quad_oracle(4)
    rng = np.random.default_rng(0)
    z = sphere(rng, 1, 4)
    np.testing.assert_allclose(two_point(oracle, ROW, np.zeros((1, 4)), 0.3, z),
                               np.zeros((1, 4)), atol=1e-14)


def test_two_point_hand_value():
    # f(x) = x_1^2 in two dimensions: d * (1.1^2 - 0.9^2) / 0.2 = 4 along e_1.
    oracle = quad_oracle(2, diag=[2.0, 0.0])
    got = two_point(oracle, ROW, np.array([[1.0, 0.0]]), 0.1, np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(got, [[4.0, 0.0]], atol=1e-12)
    assert oracle.total_queries == 2


def test_sample_sphere_d1():
    rng = np.random.default_rng(3)
    draws = set(sphere(rng, 20, 1)[:, 0])
    assert draws <= {1.0, -1.0} and len(draws) == 2


def test_sphere_redraws_zero_rows():
    # A generator whose first draw has an all-zero row: only that row is
    # drawn again, and every row comes back unit.
    class Stub:
        def __init__(self, draws):
            self.draws = list(draws)
            self.shapes = []

        def standard_normal(self, shape):
            self.shapes.append(shape)
            return np.array(self.draws.pop(0), dtype=float)

    rng = Stub([[[3.0, 4.0], [0.0, 0.0], [0.0, -2.0]], [[0.0, 0.0]], [[-5.0, 12.0]]])
    z = sphere(rng, 3, 2)
    assert rng.shapes == [(3, 2), (1, 2), (1, 2)]
    np.testing.assert_array_equal(z, [[0.6, 0.8], [-5 / 13, 12 / 13], [0.0, -1.0]])


def test_sample_sphere_moments():
    rng = np.random.default_rng(7)
    n = 100_000
    z8 = sphere(rng, n, 8)
    np.testing.assert_allclose(np.linalg.norm(z8, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(z8.mean(axis=0))) < 0.02

    z4 = sphere(rng, n, 4)
    cov = z4.T @ z4 / n
    assert np.max(np.abs(cov - np.eye(4) / 4)) < 0.02


def test_two_d_point_exact_on_quadratic_and_linear():
    oracle = quad_oracle(5)
    x = np.array([[1.0, -2.0, 0.5, 3.0, 0.0]])
    for u in (0.01, 1.0):
        np.testing.assert_allclose(sweep(oracle, ROW, x, u), x, atol=1e-12)
    assert oracle.total_queries == 2 * 5 * 2

    coef = np.array([[2.0, -1.0, 0.5]])
    lin = ZerothOrderOracle(Linear(n_agents=1, dim=3, coef=coef))
    np.testing.assert_allclose(sweep(lin, ROW, np.zeros((1, 3)), 0.7), coef, atol=1e-12)


def test_two_d_point_error_bound():
    spec = make_benchmark(1, 8, seed=4)
    lhat = spec.smoothness()
    oracle = ZerothOrderOracle(spec)
    rng = np.random.default_rng(5)
    u = 1e-4
    for _ in range(10):
        x = rng.standard_normal(8)
        err = np.linalg.norm(sweep(oracle, ROW, x[None], u)[0] - analytic_grad(spec, 0, x))
        assert err <= 0.5 * u * lhat * np.sqrt(8)


def test_coordinate_examples():
    oracle = quad_oracle(4)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    got = coordinate_estimate(oracle, x, 0.1, 1)
    np.testing.assert_allclose(got, [0.0, 4 * -2.0, 0.0, 0.0], atol=1e-12)
    assert oracle.total_queries == 2

    lin = ZerothOrderOracle(Linear(n_agents=1, dim=2, coef=[[1.0, 2.0]]))
    np.testing.assert_allclose(coordinate_estimate(lin, np.zeros(2), 0.4, 1), [0.0, 4.0],
                               atol=1e-12)
    with pytest.raises(IndexError):
        coord_pair(lin, ROW, np.zeros((1, 2)), 0.4, np.array([2]))
    # An out-of-range coordinate on an earlier row would spill into the next
    # row's points; it is rejected before any query.
    two = ZerothOrderOracle(make_linear(2, 3, seed=0))
    for l in ([3, 0], [-1, 0]):
        with pytest.raises(IndexError):
            coord_pair(two, np.arange(2), np.zeros((2, 3)), 0.5, np.array(l))
    assert two.total_queries == 0


def test_coordinate_average_is_full_sweep():
    spec = make_benchmark(1, 6, seed=9)
    oracle = ZerothOrderOracle(spec)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(6)
    u = 0.05
    avg = np.mean([coordinate_estimate(oracle, x, u, l) for l in range(6)], axis=0)
    full = sweep(oracle, ROW, x[None], u)[0]
    assert np.max(np.abs(avg - full)) <= 1e-12 * max(1.0, np.abs(full).max())


def test_snapshot_capture_and_consistency():
    oracle = quad_oracle(3)
    x = np.array([[0.5, -1.0, 2.0]])
    snap = SnapshotBlock(oracle, x, 0.25)
    np.testing.assert_allclose(snap.full, x, atol=1e-12)   # exact on quadratics
    assert oracle.total_queries == 6
    np.testing.assert_array_equal(snap.x_tilde, x)
    np.testing.assert_array_equal(snap.u_tilde, [0.25])
    # The stored sweep is the sweep a fresh oracle takes at the same point.
    np.testing.assert_array_equal(sweep(ZerothOrderOracle(oracle.spec), ROW, x, 0.25), snap.full)


def test_vr_ge_quadratic_formula():
    oracle = quad_oracle(4)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(4)
    xt = rng.standard_normal(4)
    snap = SnapshotBlock(oracle, xt[None], 0.3)
    for l in range(4):
        got = vr(oracle, snap, x, 0.2, l)
        want = xt.copy()
        want[l] += 4 * x[l] - 4 * xt[l]
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_vr_ge_collapses_at_snapshot():
    spec = make_benchmark(1, 5, seed=12)
    oracle = ZerothOrderOracle(spec)
    x = np.full(5, 0.3)
    snap = SnapshotBlock(oracle, x[None], 0.1)
    for l in range(5):
        np.testing.assert_array_equal(vr(oracle, snap, x, 0.1, l), snap.full[0])


def test_vr_ge_average_matches_full_sweep():
    rng = np.random.default_rng(13)
    spec = make_benchmark(1, 8, seed=21)
    oracle = ZerothOrderOracle(spec)
    x = rng.standard_normal(8)
    xt = rng.standard_normal(8)
    snap = SnapshotBlock(oracle, xt[None], 0.08)
    avg = np.mean([vr(oracle, snap, x, 0.05, l) for l in range(8)], axis=0)
    full = sweep(oracle, ROW, x[None], 0.05)[0]
    rel = np.linalg.norm(avg - full) / np.linalg.norm(full)
    assert rel < 1e-10


def test_vr_ge_modes_identical_values_different_cost():
    spec = make_benchmark(1, 6, seed=3)
    x = np.random.default_rng(0).standard_normal(6)
    xt = x + 0.4

    oracle_a = ZerothOrderOracle(spec)
    snap_a = SnapshotBlock(oracle_a, xt[None], 0.2)
    before = oracle_a.total_queries
    faithful = vr(oracle_a, snap_a, x, 0.1, 2, counting_mode="paper_faithful")
    assert oracle_a.total_queries - before == 4

    oracle_b = ZerothOrderOracle(spec)
    snap_b = SnapshotBlock(oracle_b, xt[None], 0.2)
    before = oracle_b.total_queries
    cached = vr(oracle_b, snap_b, x, 0.1, 2, counting_mode="cached")
    assert oracle_b.total_queries - before == 2
    np.testing.assert_array_equal(faithful, cached)


def test_refresh_semantics():
    oracle = ZerothOrderOracle(diagonal_quadratic(3, 3))
    x0 = np.zeros((3, 3))
    snap = SnapshotBlock(oracle, x0, 0.5)
    before = oracle.total_queries
    snap.capture_rows(oracle, np.array([], dtype=int), np.empty((0, 3)), 0.4)
    assert oracle.total_queries == before
    np.testing.assert_array_equal(snap.u_tilde, [0.5, 0.5, 0.5])

    x1 = np.array([[1.0, 2.0, 3.0]])
    snap.capture_rows(oracle, np.array([1]), x1, 0.4)
    np.testing.assert_array_equal(oracle.query_count, [6, 12, 6])
    np.testing.assert_allclose(snap.full[1], x1[0], atol=1e-12)
    np.testing.assert_array_equal(snap.x_tilde, [[0.0] * 3, x1[0], [0.0] * 3])
    np.testing.assert_array_equal(snap.u_tilde, [0.5, 0.4, 0.5])
    np.testing.assert_array_equal(snap.full[[0, 2]], np.zeros((2, 3)))


def test_refresh_fraction_concentrates():
    rng = np.random.default_rng(42)
    fired = rng.random(10_000) < 0.25
    assert abs(fired.mean() - 0.25) < 0.02


def test_two_point_unbiased_on_linear():
    # The sphere-smoothed gradient of a linear function is its true gradient.
    d, n = 6, 100_000
    coef = np.array([[1.5, -0.7, 0.2, 0.0, 2.0, -1.1]])
    oracle = ZerothOrderOracle(Linear(n_agents=1, dim=d, coef=coef))
    rng = np.random.default_rng(17)
    x = rng.standard_normal(d)
    u = 0.3

    z = sphere(rng, n, d)
    est = two_point(oracle, np.zeros(n, dtype=int), np.tile(x, (n, 1)), u, z)
    assert oracle.total_queries == 2 * n

    # On a linear function each estimate is d (c . z) z exactly.
    np.testing.assert_allclose(est[:50], d * (z[:50] @ coef[0])[:, None] * z[:50],
                               rtol=1e-12, atol=1e-12)

    se = est.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(est.mean(axis=0) - coef[0]) <= 3 * se)


def test_vr_ge_variance_within_envelope():
    from dzo.theory import estimator_variance_limit

    d = 6
    rng = np.random.default_rng(8)
    for trial in range(10):
        spec = make_benchmark(1, d, seed=100 + trial)
        lhat = spec.smoothness()
        oracle = ZerothOrderOracle(spec)
        x = rng.standard_normal(d)
        xt = rng.standard_normal(d)
        ut = rng.uniform(0.05, 0.2)
        u = ut * rng.uniform(0.2, 1.0)
        snap = SnapshotBlock(oracle, xt[None], ut)
        grad = analytic_grad(spec, 0, x)
        mse = np.mean([np.sum((vr(oracle, snap, x, u, l) - grad) ** 2) for l in range(d)])
        for y in (xt, (x + xt) / 2):
            limit = estimator_variance_limit(d, lhat, np.linalg.norm(x - y),
                                             np.linalg.norm(xt - y), ut)
            assert mse <= limit


@settings(max_examples=30, deadline=None)
@given(d=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**31 - 1))
def test_sphere_draws_are_unit(d, seed):
    z = sphere(np.random.default_rng(seed), 3, d)
    assert np.all(np.abs(np.linalg.norm(z, axis=1) - 1.0) <= 1e-12)


@settings(max_examples=20, deadline=None)
@given(d=st.integers(min_value=1, max_value=8), seed=st.integers(0, 2**31 - 1),
       u=st.floats(min_value=1e-3, max_value=1.0))
def test_coordinate_sweep_identity_property(d, seed, u):
    spec = make_benchmark(1, d, seed=seed % 1000)
    oracle = ZerothOrderOracle(spec)
    x = np.random.default_rng(seed).standard_normal(d)
    avg = np.mean([coordinate_estimate(oracle, x, u, l) for l in range(d)], axis=0)
    full = sweep(oracle, ROW, x[None], u)[0]
    assert np.max(np.abs(avg - full)) <= 1e-12 * max(1.0, np.abs(full).max())


# (n, d) of a few highdim snapshot refreshes, of fig1 and of bignet.
SHAPES = [(5, 300), (50, 64), (1000, 16)]
# A rank-1 value and a dense one sum their d-term dot products in another
# order, so they differ by a few d·eps times the value's size, and a quotient
# by that over 2u: |got - want| <= STENCIL_TOL · d·eps·(1 + max|f|) / u per
# row.  Every family and shape here stays below 0.2 of that bound.
STENCIL_TOL = 1.0


@pytest.mark.parametrize("kind", sorted(FAMILIES))
@pytest.mark.parametrize("shape", SHAPES)
def test_stencil_matches_dense_points(kind, shape):
    n, d = shape
    spec = FAMILIES[kind](n, d, seed=4)
    rng = np.random.default_rng(7)
    worst = 0.0
    for rows in (np.arange(n), rng.permutation(n)[:max(1, n // 3)], np.arange(n) // 2):
        b = len(rows)
        x = rng.standard_normal((b, d))
        for coords in (np.arange(d)[None], rng.integers(0, d, (b, 1)), rng.integers(0, d, (b, 2))):
            for u in (0.01, 0.1, rng.uniform(0.01, 0.5, b)):
                st, pts = Stencil(x, u, coords), stencil_points(x, u, coords)
                assert np.asarray(st).tobytes() == pts.tobytes()
                ranked, dense = ZerothOrderOracle(spec), ZerothOrderOracle(spec)
                m = coords.shape[1]
                vals = ranked.evaluate_rows(rows, st)
                got = (vals[:, :m] - vals[:, m:]) / (2.0 * np.reshape(u, (-1, 1)))
                want = dense_stencil(dense, rows, x, u, coords)
                np.testing.assert_array_equal(ranked.query_count, dense.query_count)
                np.testing.assert_array_equal(ranked.query_count,
                                              2 * m * np.bincount(rows, minlength=n))
                scale = d * np.finfo(float).eps * (1.0 + np.abs(vals).max(axis=1, keepdims=True))
                worst = max(worst, float(np.max(np.abs(got - want) * np.reshape(u, (-1, 1))
                                                / scale)))
    assert worst <= STENCIL_TOL, worst


def assert_held_values_are_fresh(spec, snap):
    """snap.values equals, byte for byte, a fresh evaluation of every agent's
    sweep points and of one coordinate pair per agent at (x_tilde, u_tilde)."""
    n, d = snap.x_tilde.shape
    fresh = ZerothOrderOracle(spec)
    sweep_vals = fresh.evaluate_rows(fresh.every_agent,
                                     Stencil(snap.x_tilde, snap.u_tilde, np.arange(d)[None]))
    assert sweep_vals.reshape(n, 2, d).tobytes() == snap.values.tobytes()
    l = np.random.default_rng(d).integers(0, d, n)
    pair_vals = fresh.evaluate_rows(fresh.every_agent,
                                    Stencil(snap.x_tilde, snap.u_tilde, l[:, None]))
    assert pair_vals.tobytes() == snap.values[np.arange(n), :, l].tobytes()
    quotient = (snap.values[:, 0] - snap.values[:, 1]) / (2.0 * snap.u_tilde[:, None])
    assert quotient.tobytes() == snap.full.tobytes()


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_snapshot_pair_after_a_subset_refresh_is_the_stored_sweep(kind):
    # paper_faithful charges every agent's snapshot pair, in order, and is
    # answered from values a sweep took on a gathered subset of rows, so each
    # family must give its per-row terms alike at two batch shapes.
    n, d = 8, 300
    spec = FAMILIES[kind](n, d, seed=5)
    rng = np.random.default_rng(3)
    oracle = ZerothOrderOracle(spec)
    snap = SnapshotBlock(oracle, rng.standard_normal((n, d)), 0.2)
    assert_held_values_are_fresh(spec, snap)
    for hit, u in ((np.array([6, 1, 4]), 0.05), (np.array([3]), 0.01), (np.arange(n), 0.005)):
        snap.capture_rows(oracle, hit, rng.standard_normal((len(hit), d)), u)
        rows, l = np.arange(n), rng.integers(0, d, n)
        got = coord_pair(ZerothOrderOracle(spec), rows, snap.x_tilde, snap.u_tilde, l)
        assert got.tobytes() == snap.full[rows, l].tobytes()
        assert_held_values_are_fresh(spec, snap)
    assert oracle.total_queries == 2 * d * (2 * n + 4)


@pytest.mark.parametrize("counting_mode", ["paper_faithful", "cached"])
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_held_values_are_a_fresh_evaluation_at_every_round(kind, counting_mode):
    n, d, p = 6, 12, 0.3
    spec = FAMILIES[kind](n, d, seed=2)
    w, sch = metropolis_weights(build_topology("ring", n)), Schedule(step_size=0.01)
    oracle = ZerothOrderOracle(spec)
    x0 = 0.5 * np.random.default_rng(1).standard_normal((n, d))
    state = init_vrgt(oracle, x0, sch, np.random.default_rng(4), p, counting_mode)
    snap, per_pair = state.snapshots, 4 if counting_mode == "paper_faithful" else 2
    refreshed = np.zeros(n, dtype=np.int64)
    for _ in range(12):
        before = snap.x_tilde.copy()
        vrgt_step(state, w, sch)
        refreshed += np.any(snap.x_tilde != before, axis=1)
        assert_held_values_are_fresh(spec, snap)
        # Each agent's own counter gets its pairs every round and 2d per refresh.
        np.testing.assert_array_equal(oracle.query_count,
                                      2 * d + per_pair * state.k + 2 * d * refreshed)
    assert 0 < refreshed.sum() < 12 * n


def test_stencil_rejects_rows_that_do_not_match_the_points():
    # A longer rows would otherwise be cut to the points' length silently.
    oracle = ZerothOrderOracle(make_linear(4, 4, seed=0))
    for rows in (np.arange(2), np.arange(4)):
        with pytest.raises(ValueError, match="rows for"):
            sweep(oracle, rows, np.zeros((3, 4)), 0.1)
    assert oracle.total_queries == 0


def test_coord_pair_rejects_a_malformed_stencil_before_any_query():
    # At x = 0 on a linear objective, a wrapped coordinate would return
    # ±u·coef of another agent instead of raising.
    oracle = ZerothOrderOracle(make_linear(3, 4, seed=0))
    x, rows = np.zeros((3, 4)), np.arange(3)
    for l in ([0, -1, 2], [4, 0, 0], [0.0, 1.0, 2.0], [0, 1]):   # out of range, float, 2 for 3
        with pytest.raises(IndexError, match="coords must be"):
            coord_pair(oracle, rows, x, 0.5, np.array(l))
    with pytest.raises(ValueError, match="radii"):
        coord_pair(oracle, rows, x, np.full(2, 0.5), np.arange(3))
    assert oracle.total_queries == 0


def test_stencil_rejects_held_values_of_another_shape_before_any_query():
    oracle = ZerothOrderOracle(make_linear(3, 4, seed=0))
    x, every = np.zeros((3, 4)), oracle.every_agent
    for coords, held in ((np.arange(3)[:, None], np.zeros((3, 1))),    # one value per pair
                         (np.arange(3)[:, None], np.zeros((2, 2))),    # 2 rows for 3
                         (np.arange(3)[:, None], np.zeros((3, 2, 1))),
                         (np.arange(4)[None], np.zeros((3, 2)))):      # a pair's for a sweep
        with pytest.raises(ValueError, match="held values"):
            oracle.evaluate_rows(every, Stencil(x, 0.5, coords, held))
    assert oracle.total_queries == 0 and not oracle.query_count.any()


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_all_agent_sweep_memory_is_bounded(kind):
    # The dense (50, 600, 300) point tensor alone is 72 MB; the rank-1 sweep
    # peaked at 1.0 (benchmark and quadratic) and 0.8 MiB (linear).  Every
    # agent is the oracle's every_agent: explicit rows gather their Q_i.
    n, d = 50, 300
    oracle = ZerothOrderOracle(FAMILIES[kind](n, d, seed=0))
    x = np.random.default_rng(0).standard_normal((n, d))
    tracemalloc.start()
    try:
        sweep(oracle, oracle.every_agent, x, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, f"{kind} sweep peaked at {peak / 2**20:.1f} MiB"
