import numpy as np
import pytest

from dzo.oracle import (
    ObjectiveSpec,
    ZerothOrderOracle,
    analytic_grad,
    estimate_smoothness,
    global_grad,
    make_benchmark,
    make_linear,
    make_quadratic,
    objective_value,
)


def central_difference(spec, agent, x, h=1e-5):
    # Independent gradient oracle.
    d = x.size
    g = np.zeros(d)
    for l in range(d):
        e = np.zeros(d)
        e[l] = h
        g[l] = (objective_value(spec, agent, x + e) - objective_value(spec, agent, x - e)) / (2 * h)
    return g


def log_barrier_spec():
    # Single agent, alpha forced to zero, beta to one: f(x) = ln(1 + x^2).
    return ObjectiveSpec(kind="benchmark", n_agents=1, dim=1,
                         alpha=[0.0], beta=[1.0], v=[0.0], zeta=[[0.0]])


def test_benchmark_beta_normalized():
    spec = make_benchmark(50, 64, seed=42)
    assert abs(spec.beta.mean() - 1.0) <= 1e-12
    assert np.all(spec.beta > 0)


def test_benchmark_deterministic():
    a = make_benchmark(5, 7, seed=9)
    b = make_benchmark(5, 7, seed=9)
    for name in ("alpha", "beta", "v", "zeta"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_log_barrier_closed_form():
    spec = log_barrier_spec()
    assert objective_value(spec, 0, np.array([0.0])) == 0.0
    np.testing.assert_array_equal(analytic_grad(spec, 0, np.array([0.0])), [0.0])
    x = np.array([1.3])
    assert objective_value(spec, 0, x) == pytest.approx(np.log(1 + 1.3**2), rel=1e-15)
    # grad of ln(1 + x^2) is 2x / (1 + x^2)
    np.testing.assert_allclose(analytic_grad(spec, 0, x), 2 * x / (1 + x @ x), rtol=1e-14)


def test_benchmark_value_at_origin():
    spec = make_benchmark(2, 3, seed=7)
    oracle = ZerothOrderOracle(spec)
    for i in range(2):
        expect = spec.alpha[i] / (1.0 + np.exp(-spec.v[i]))
        assert oracle.evaluate(i, np.zeros(3)) == pytest.approx(expect, rel=1e-14)


def test_quadratic_and_linear_values():
    quad = make_quadratic(1, 2)
    oracle = ZerothOrderOracle(quad)
    assert oracle.evaluate(0, np.array([3.0, 4.0])) == 12.5
    assert oracle.query_count[0] == 1

    lin = make_linear(1, 2, coef=[[1.0, -2.0]])
    oracle = ZerothOrderOracle(lin)
    assert oracle.evaluate(0, np.array([2.0, 1.0])) == 0.0


def test_log_barrier_unit_level_set():
    spec = log_barrier_spec()
    x = np.array([np.sqrt(np.e - 1.0)])
    assert objective_value(spec, 0, x) == pytest.approx(1.0, rel=1e-14)


def test_sigmoid_stable_at_extremes():
    spec = ObjectiveSpec(kind="benchmark", n_agents=1, dim=1,
                         alpha=[1.0], beta=[1.0], v=[0.0], zeta=[[1.0]])
    with np.errstate(over="raise"):
        assert objective_value(spec, 0, np.array([1000.0])) == pytest.approx(np.log(1 + 1e6) + 1.0)
        assert np.isfinite(objective_value(spec, 0, np.array([-1000.0])))
        for x in (np.array([1000.0]), np.array([-1000.0])):
            # The sigmoid term has saturated; only the log barrier's 2x/(1+x^2) is left.
            np.testing.assert_allclose(analytic_grad(spec, 0, x), 2 * x / (1 + x @ x), rtol=1e-12)
            np.testing.assert_allclose(global_grad(spec, x), 2 * x / (1 + x @ x), rtol=1e-12)


@pytest.mark.parametrize("maker,seed", [
    (lambda: make_benchmark(3, 5, seed=1), 10),
    (lambda: make_quadratic(3, 5, seed=2), 11),
    (lambda: make_linear(3, 5, seed=3), 12),
])
def test_gradients_match_central_differences(maker, seed):
    spec = maker()
    rng = np.random.default_rng(seed)
    for _ in range(20):
        agent = int(rng.integers(spec.n_agents))
        x = rng.standard_normal(spec.dim)
        got = analytic_grad(spec, agent, x)
        want = central_difference(spec, agent, x)
        assert np.linalg.norm(got - want) <= 1e-6 * max(1.0, np.linalg.norm(want))


def nearly_symmetric_quadratic():
    # Q_0 is asymmetric by 1e-11, inside the spec's 1e-10 symmetry check, so
    # a contraction with Q^T in place of Q moves the gradient by ~1e-11.
    quad = make_quadratic(2, 3, seed=6).quad.copy()
    quad[0, 0, 1] += 1e-11
    shift = np.random.default_rng(7).standard_normal((2, 3))
    return make_quadratic(2, 3, quad=quad, shift=shift)


@pytest.mark.parametrize("maker", [
    lambda: make_benchmark(4, 3, seed=5),
    lambda: make_quadratic(4, 3, seed=5,
                           shift=np.random.default_rng(8).standard_normal((4, 3))),
    nearly_symmetric_quadratic,
    lambda: make_linear(4, 3, seed=5),
], ids=["benchmark", "quadratic", "quadratic_asymmetric", "linear"])
def test_global_grad_is_mean(maker):
    spec = maker()
    x = np.array([0.3, -1.0, 0.7])
    per_agent = [analytic_grad(spec, i, x) for i in range(spec.n_agents)]
    np.testing.assert_allclose(global_grad(spec, x), np.mean(per_agent, axis=0),
                               rtol=1e-14, atol=1e-15)


def test_quadratic_gradient_identity():
    spec = make_quadratic(1, 3)
    x = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(analytic_grad(spec, 0, x), x)


def test_query_counters():
    spec = make_benchmark(3, 4, seed=0)
    oracle = ZerothOrderOracle(spec)
    oracle.evaluate(1, np.zeros(4))
    oracle.evaluate(1, np.ones(4))
    pts = np.zeros((3, 5, 4))
    oracle.evaluate_rows(np.arange(3), pts)
    np.testing.assert_array_equal(oracle.query_count, [5, 7, 5])
    assert oracle.total_queries == 17
    # batched values agree with scalar evaluation
    vals = ZerothOrderOracle(spec).evaluate_rows(np.array([2]), np.ones((1, 1, 4)))
    assert vals[0, 0] == ZerothOrderOracle(spec).evaluate(2, np.ones(4))


def test_evaluate_rejects_bad_input():
    oracle = ZerothOrderOracle(make_benchmark(2, 3, seed=0))
    with pytest.raises(IndexError):
        oracle.evaluate(5, np.zeros(3))
    with pytest.raises(ValueError):
        oracle.evaluate(0, np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        oracle.evaluate(0, np.zeros(2))


def test_smoothness_quadratic_bracketed():
    spec = make_quadratic(1, 4, quad=2.0 * np.eye(4)[None])
    lhat = estimate_smoothness(spec)
    assert 2.0 <= lhat <= 3.0


def test_smoothness_linear_tiny():
    assert estimate_smoothness(make_linear(2, 3, seed=1)) <= 1.5e-9


def test_smoothness_reproducible():
    spec = make_benchmark(4, 64, seed=42)
    a = estimate_smoothness(spec, seed=0)
    b = estimate_smoothness(spec, seed=0)
    assert a == b and np.isfinite(a) and a > 0


def test_spec_validation():
    with pytest.raises(ValueError):
        ObjectiveSpec(kind="benchmark", n_agents=2, dim=1,
                      alpha=[0.0, 0.0], beta=[1.0, 1.5], v=[0.0, 0.0],
                      zeta=[[0.0], [0.0]])  # beta mean != 1
    with pytest.raises(ValueError):
        make_quadratic(1, 2, quad=np.array([[[1.0, 2.0], [0.0, 1.0]]]))  # asymmetric
    with pytest.raises(ValueError):
        ObjectiveSpec(kind="mystery", n_agents=1, dim=1)
