import numpy as np
import pytest

from dzo.algorithms import (
    RunState,
    Schedule,
    StopRule,
    dgd2p_step,
    gt2d_step,
    init_dgd2p,
    init_gt2d,
    init_vrgt,
    run,
    vrgt_step,
)
from dzo.network import MixingMatrix, build_topology, metropolis_weights
from dzo.oracle import Linear, Stencil, ZerothOrderOracle, make_benchmark, make_quadratic
from per_agent_reference import SnapshotState, snapshot_of, vr_ge
from reference import analytic_grad, diagonal_quadratic


def single_agent_weights():
    return MixingMatrix(np.array([[1.0]]))


def shared_start(d, n, seed=0, scale=1.0):
    return np.tile(scale * np.random.default_rng(seed).standard_normal(d), (n, 1))


def test_schedule_shapes():
    sch = Schedule(step_size=0.1, u0=3.0, u_decay=0.75)
    us = [sch.smoothing_at(k) for k in range(500)]
    assert us[0] == us[1] == 3.0
    assert all(a >= b for a, b in zip(us, us[1:]))
    assert sch.step_size_at(10) == 0.1

    decaying = Schedule(step_size=0.1, step_decay=0.5)
    assert decaying.step_size_at(4) == pytest.approx(0.05)

    with pytest.warns(UserWarning, match="u_decay <= 1/2") as record:
        Schedule(step_size=0.1, u_decay=0.5)
    # The warning names the file that built the Schedule, not the
    # dataclass-generated __init__ ("<string>").
    assert [w.filename for w in record] == [__file__]
    with pytest.raises(ValueError):
        Schedule(step_size=-0.1)
    with pytest.raises(ValueError):
        Schedule(step_size=0.1, u0=0.0)
    with pytest.raises(ValueError):
        Schedule(step_size=0.1, u_decay=1.5)


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        StopRule("epochs", 5)
    with pytest.raises(ValueError):
        StopRule("queries", 0)


def test_dgd2p_single_agent_linear():
    coef = np.array([[0.7, -1.2, 0.4]])
    oracle = ZerothOrderOracle(Linear(n_agents=1, dim=3, coef=coef))
    w = single_agent_weights()
    sch = Schedule(step_size=0.05, u0=0.5)
    x0 = np.array([[1.0, 1.0, 1.0]])

    state = init_dgd2p(oracle, x0, np.random.default_rng(99))
    dgd2p_step(state, w, sch)

    # Reproduce the drawn direction from the same stream.
    z = np.random.default_rng(99).standard_normal((1, 3))
    z /= np.linalg.norm(z)
    want = x0 - 0.05 * 3 * float(coef[0] @ z[0]) * z
    np.testing.assert_allclose(state.x, want, atol=1e-12)
    assert oracle.total_queries == 2


def test_zero_step_size_reduces_to_mixing():
    topo = build_topology("path", 3)
    w = metropolis_weights(topo)
    oracle = ZerothOrderOracle(make_benchmark(3, 2, seed=1))
    x0 = np.random.default_rng(3).standard_normal((3, 2))
    state = init_dgd2p(oracle, x0, np.random.default_rng(4))
    dgd2p_step(state, w, Schedule(step_size=0.0))
    np.testing.assert_allclose(state.x, w.w @ x0, atol=1e-14)


def test_dgd2p_descends_on_quadratic():
    topo = build_topology("complete", 2)
    rows = run("dgd2p", topo, diagonal_quadratic(2, 2), Schedule(step_size=0.05, u0=1.0),
               StopRule("rounds", 100), seed=5)
    gaps = np.array([r.stat_gap for r in rows])
    assert gaps[-20:].mean() < gaps[:20].mean()


def test_gt2d_tracks_exact_mean_gradient_on_quadratic():
    topo = build_topology("ring", 4)
    w = metropolis_weights(topo)
    spec = make_quadratic(4, 3, seed=7)
    oracle = ZerothOrderOracle(spec)
    sch = Schedule(step_size=0.05)
    state = init_gt2d(oracle, shared_start(3, 4, seed=2), sch, np.random.default_rng(0))
    for _ in range(30):
        gt2d_step(state, w, sch)
        want = np.mean([analytic_grad(spec, i, xi) for i, xi in enumerate(state.x)], axis=0)
        np.testing.assert_allclose(state.s.mean(axis=0), want, atol=1e-12)


def test_gt2d_single_agent_is_gradient_descent():
    spec = diagonal_quadratic(1, 2)
    oracle = ZerothOrderOracle(spec)
    sch = Schedule(step_size=0.1)
    x0 = np.array([[2.0, -1.0]])
    state = init_gt2d(oracle, x0, sch, np.random.default_rng(0))
    x = x0[0].copy()
    for _ in range(20):
        gt2d_step(state, single_agent_weights(), sch)
        x = x - 0.1 * x  # gradient descent with the exact gradient
        np.testing.assert_allclose(state.x[0], x, atol=1e-12)


def test_gt2d_query_cost():
    topo = build_topology("ring", 5)
    spec = make_benchmark(5, 4, seed=0)
    oracle = ZerothOrderOracle(spec)
    sch = Schedule(step_size=0.02)
    state = init_gt2d(oracle, shared_start(4, 5), sch, np.random.default_rng(1))
    assert oracle.total_queries == 2 * 4 * 5  # tracker seeding
    w = metropolis_weights(topo)
    for k in range(1, 4):
        gt2d_step(state, w, sch)
        assert oracle.total_queries == 2 * 4 * 5 * (k + 1)


def test_vrgt_p0_keeps_initial_snapshot(refreshed):
    topo = build_topology("ring", 3)
    w = metropolis_weights(topo)
    spec = make_benchmark(3, 4, seed=6)
    oracle = ZerothOrderOracle(spec)
    sch = Schedule(step_size=0.05)
    x0 = shared_start(4, 3, seed=9)
    state = init_vrgt(oracle, x0, sch, np.random.default_rng(2), p=0.0)
    full0 = state.snapshots.full.copy()
    for _ in range(10):
        vrgt_step(state, w, sch)
    np.testing.assert_array_equal(state.snapshots.x_tilde, x0)
    np.testing.assert_array_equal(state.snapshots.full, full0)
    assert refreshed == []


@pytest.mark.parametrize("mode", ["paper_faithful", "cached"])
def test_vrgt_round_matches_per_agent_estimators(mode):
    # One vectorized round must agree bitwise with the per-agent operations.
    n, d = 3, 5
    topo = build_topology("complete", n)
    w = metropolis_weights(topo)
    spec = make_benchmark(n, d, seed=20)
    sch = Schedule(step_size=0.04)

    oracle = ZerothOrderOracle(spec)
    rng = np.random.default_rng(31)
    x0 = shared_start(d, n, seed=30)
    state = init_vrgt(oracle, x0, sch, rng, p=0.5, counting_mode=mode)
    snaps0 = [snapshot_of(state.snapshots, i, spec) for i in range(n)]
    vrgt_step(state, w, sch)

    # Replay the same round by hand with the naive per-agent estimators.
    rng2 = np.random.default_rng(31)
    oracle2 = ZerothOrderOracle(spec)
    u1 = sch.smoothing_at(1)
    x1 = w.w @ (x0 - sch.step_size_at(0) * np.zeros((n, d)))
    l = rng2.integers(0, d, size=n)
    fired = rng2.random(n) < 0.5
    g = np.empty((n, d))
    for i in range(n):
        snap = SnapshotState.capture(oracle2, i, x1[i], u1) if fired[i] else snaps0[i]
        g[i] = vr_ge(oracle2, i, x1[i], u1, snap, int(l[i]), mode)
    np.testing.assert_array_equal(state.g_prev, g)
    np.testing.assert_array_equal(state.x, x1)
    np.testing.assert_array_equal(state.s, w.w @ g)  # s0 = g0 = 0


@pytest.mark.parametrize("alg", ["gt2d", "vrgt"])
def test_queries_stop_met_by_initialization_raises(alg):
    # Both seed with one 2d sweep per agent: 4 agents * 2 * 5 = 40 queries.
    topo, spec = build_topology("ring", 4), make_benchmark(4, 5, seed=1)
    sch = Schedule(step_size=0.05)
    for limit in (1, 40):
        with pytest.raises(ValueError, match=f"costs 40 queries.* stop limit of {limit}$"):
            run(alg, topo, spec, sch, StopRule("queries", limit), seed=0)
    assert run(alg, topo, spec, sch, StopRule("queries", 41), seed=0)[0].m > 40


def test_vrgt_p1_equals_fresh_sweep_tracking():
    n, d = 5, 6
    topo = build_topology("ring", n)
    w = metropolis_weights(topo)
    spec = make_benchmark(n, d, seed=2)
    sch = Schedule(step_size=0.05)
    x0 = shared_start(d, n, seed=4)

    oracle = ZerothOrderOracle(spec)
    state = init_vrgt(oracle, x0, sch, np.random.default_rng(7), p=1.0)
    trail = []
    for _ in range(25):
        vrgt_step(state, w, sch)
        trail.append(state.x.copy())

    oracle_ref = ZerothOrderOracle(spec)
    s = np.zeros((n, d))
    g_prev = np.zeros((n, d))
    x = x0.copy()
    idx = np.arange(d)
    for k in range(25):
        u_next = sch.smoothing_at(k + 1)
        x = w.w @ (x - sch.step_size_at(k) * s)
        vals = oracle_ref.evaluate_rows(np.arange(n), Stencil(x, u_next, idx[None]))
        g = (vals[:, :d] - vals[:, d:]) / (2.0 * u_next)
        s = w.w @ (s + g - g_prev)
        g_prev = g
        np.testing.assert_array_equal(trail[k], x)


def test_tracking_identity_and_mean_recursion():
    n, d = 6, 5
    topo = build_topology("grid", n)
    w = metropolis_weights(topo)
    spec = make_benchmark(n, d, seed=14)
    sch = Schedule(step_size=0.03)
    oracle = ZerothOrderOracle(spec)
    state = init_vrgt(oracle, shared_start(d, n, seed=1), sch, np.random.default_rng(5),
                      p=0.2)
    for _ in range(60):
        x_before = state.x.mean(axis=0)
        g_before = state.g_prev.mean(axis=0)
        alpha = sch.step_size_at(state.k)
        vrgt_step(state, w, sch)
        # mean iterate moves along the mean estimate
        np.testing.assert_allclose(state.x.mean(axis=0), x_before - alpha * g_before,
                                   atol=1e-12)
        # tracker mean equals estimate mean
        assert np.linalg.norm(state.s.mean(axis=0) - state.g_prev.mean(axis=0)) < 1e-9


def test_consensus_fixed_point():
    n, d = 4, 3
    w = metropolis_weights(build_topology("complete", n))
    oracle = ZerothOrderOracle(make_benchmark(n, d, seed=3))
    sch = Schedule(step_size=0.1)
    x0 = shared_start(d, n, seed=8)
    state = init_vrgt(oracle, x0, sch, np.random.default_rng(11), p=0.0)
    vrgt_step(state, w, sch)  # s = 0, so only mixing acts on x
    np.testing.assert_allclose(state.x, x0, atol=1e-12)


def test_vrgt_query_accounting(refreshed):
    n, d = 4, 6
    topo = build_topology("ring", n)
    w = metropolis_weights(topo)
    spec = make_benchmark(n, d, seed=0)
    sch = Schedule(step_size=0.02)

    for mode, per_round_base in (("paper_faithful", 4 * n), ("cached", 2 * n)):
        refreshed.clear()
        oracle = ZerothOrderOracle(spec)
        state = init_vrgt(oracle, shared_start(d, n), sch, np.random.default_rng(9),
                          p=0.3, counting_mode=mode)
        assert oracle.total_queries == 2 * d * n
        for k in range(1, 51):
            vrgt_step(state, w, sch)
            expected = 2 * d * n + k * per_round_base + 2 * d * sum(refreshed)
            assert oracle.total_queries == expected
        assert 0 < sum(refreshed) < 50 * n


def test_dgd2p_query_accounting():
    topo = build_topology("path", 5)
    rows = run("dgd2p", topo, make_benchmark(5, 3, seed=1), Schedule(step_size=0.02),
               StopRule("rounds", 7), seed=0)
    assert [r.m for r in rows] == [2 * 5 * (k + 1) for k in range(7)]


def test_counting_modes_agree_on_trajectory():
    topo = build_topology("ring", 4)
    spec = make_benchmark(4, 5, seed=5)
    sch = Schedule(step_size=0.05)
    common = dict(topology=topo, spec=spec, schedule=sch,
                  stop=StopRule("rounds", 40), seed=3, p=0.4)
    a = run("vrgt", counting_mode="paper_faithful", **common)
    b = run("vrgt", counting_mode="cached", **common)
    for ra, rb in zip(a, b):
        assert ra.stat_gap == rb.stat_gap and ra.consensus_err == rb.consensus_err
        assert ra.m > rb.m


def test_run_determinism_and_stop_rules():
    topo = build_topology("complete", 2)
    spec = diagonal_quadratic(2, 2)
    sch = Schedule(step_size=0.1)
    a = run("vrgt", topo, spec, sch, StopRule("rounds", 50), seed=12, p=0.5)
    b = run("vrgt", topo, spec, sch, StopRule("rounds", 50), seed=12, p=0.5)
    assert a == b
    assert len(a) == 50 and a[-1].k == 50

    rows = run("dgd2p", build_topology("ring", 5), make_benchmark(5, 3, seed=2),
               sch, StopRule("queries", 1000), seed=1)
    assert len(rows) == 100  # ceil(1000 / (2 * 5))
    assert all(r2.m > r1.m for r1, r2 in zip(rows, rows[1:]))


def test_run_heterogeneous_start():
    topo = build_topology("ring", 4)
    spec = make_benchmark(4, 3, seed=2)
    rows = run("vrgt", topo, spec, Schedule(step_size=0.02), StopRule("rounds", 1),
               seed=3, heterogeneous_x0=True)
    assert rows[0].consensus_err > 0


@pytest.mark.slow
def test_suite_scale_trends_and_midbudget_ordering():
    # On the 50-agent benchmark every algorithm trends downward, and the
    # full-sweep tracker already beats two-point descent at a 3e4 per-agent
    # budget.
    from dzo.harness import run_config, suite_configs

    finals = {}
    for cfg in suite_configs("fig1", seed=3, budget=30_000):
        rows = run_config(cfg)
        gaps = np.array([r.stat_gap for r in rows])
        q = max(1, len(gaps) // 4)
        assert gaps[-q:].mean() < gaps[:q].mean(), cfg.algorithm
        finals[cfg.algorithm] = gaps[-1]
    assert finals["gt2d"] < finals["dgd2p"]


def test_run_validation(monkeypatch):
    topo = build_topology("ring", 4)
    spec = make_benchmark(4, 3, seed=2)
    sch = Schedule(step_size=0.02)
    with pytest.raises(ValueError):
        run("sgd", topo, spec, sch, StopRule("rounds", 5), seed=0)
    with pytest.raises(ValueError):
        run("vrgt", topo, spec, sch, StopRule("rounds", 5), seed=0, p=1.5)
    with pytest.raises(ValueError):
        run("vrgt", topo, make_benchmark(3, 3, seed=2), sch, StopRule("rounds", 5), seed=0)
    w2 = metropolis_weights(build_topology("complete", 2))
    for step in (gt2d_step, vrgt_step):
        bare = RunState(k=0, x=np.zeros((2, 2)),
                        oracle=ZerothOrderOracle(make_benchmark(2, 2, seed=0)),
                        rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="not initialized"):
            step(bare, w2, sch)

    # A bad refresh policy is rejected before the initial snapshot sweep.
    def no_queries(*args):
        raise AssertionError("oracle queried before its inputs were checked")

    monkeypatch.setattr(ZerothOrderOracle, "evaluate_rows", no_queries)
    oracle = ZerothOrderOracle(spec)
    x0 = shared_start(3, 4)
    with pytest.raises(ValueError, match="refresh probability"):
        init_vrgt(oracle, x0, sch, np.random.default_rng(0), p=1.5)
    with pytest.raises(ValueError, match="counting_mode"):
        init_vrgt(oracle, x0, sch, np.random.default_rng(0), p=0.5, counting_mode="lazy")
    with pytest.raises(ValueError, match="counting_mode"):
        run("vrgt", topo, spec, sch, StopRule("rounds", 5), seed=0, counting_mode="lazy")
    # A non-finite start scale would spend the init sweep, then fail at round 1.
    for scale in (np.nan, np.inf):
        with pytest.raises(ValueError, match="x0_scale must be finite"):
            run("gt2d", topo, spec, sch, StopRule("rounds", 5), seed=0, x0_scale=scale)
    assert oracle.total_queries == 0


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_vrgt_snapshot_radius_never_below_round_radius(p):
    # The variance bound of the estimate needs u <= u_tilde; it holds because
    # Schedule only allows non-increasing radii (u_decay in (0, 1]).
    n, d = 4, 5
    w = metropolis_weights(build_topology("ring", n))
    spec = make_benchmark(n, d, seed=8)
    for sch in (Schedule(step_size=0.03), Schedule(step_size=0.03, u0=0.5, u_decay=1.0)):
        oracle = ZerothOrderOracle(spec)
        state = init_vrgt(oracle, shared_start(d, n, seed=3), sch, np.random.default_rng(4),
                          p=p)
        for _ in range(60):
            assert np.all(state.snapshots.u_tilde >= sch.smoothing_at(state.k + 1))
            vrgt_step(state, w, sch)
        assert np.all(state.snapshots.u_tilde >= sch.smoothing_at(state.k + 1))
