import inspect
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from dzo.oracle import (
    FAMILIES,
    Benchmark,
    Linear,
    Quadratic,
    Stencil,
    ZerothOrderOracle,
    make_benchmark,
    make_linear,
    make_quadratic,
)
from reference import analytic_grad, analytic_hessian, diagonal_quadratic, objective_value


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
    return Benchmark(n_agents=1, dim=1, alpha=[0.0], beta=[1.0], v=[0.0], zeta=[[0.0]])


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
        value = oracle.evaluate_rows(np.array([i]), np.zeros((1, 1, 3)))[0, 0]
        assert value == pytest.approx(expect, rel=1e-14)


def test_quadratic_and_linear_values():
    quad = diagonal_quadratic(1, 2)
    oracle = ZerothOrderOracle(quad)
    assert oracle.evaluate_rows(np.array([0]), np.array([[[3.0, 4.0]]]))[0, 0] == 12.5
    assert oracle.query_count[0] == 1

    lin = Linear(n_agents=1, dim=2, coef=[[1.0, -2.0]])
    oracle = ZerothOrderOracle(lin)
    assert oracle.evaluate_rows(np.array([0]), np.array([[[2.0, 1.0]]]))[0, 0] == 0.0


def test_log_barrier_unit_level_set():
    spec = log_barrier_spec()
    x = np.array([np.sqrt(np.e - 1.0)])
    assert objective_value(spec, 0, x) == pytest.approx(1.0, rel=1e-14)


def math_sigmoid(t):
    # Two-branch reference: exp is only ever taken of a nonpositive argument.
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    return math.exp(t) / (1.0 + math.exp(t))


def test_sigmoid_stable_at_extremes():
    spec = Benchmark(n_agents=1, dim=1, alpha=[1.0], beta=[1.0], v=[0.0], zeta=[[1.0]])
    with np.errstate(all="raise"):
        assert objective_value(spec, 0, np.array([1000.0])) == pytest.approx(np.log(1 + 1e6) + 1.0)
        assert np.isfinite(objective_value(spec, 0, np.array([-1000.0])))
        for x in (np.array([1000.0]), np.array([-1000.0])):
            # The sigmoid term has saturated; only the log barrier's 2x/(1+x^2) is left.
            np.testing.assert_allclose(analytic_grad(spec, 0, x), 2 * x / (1 + x @ x), rtol=1e-12)
            np.testing.assert_allclose(spec.global_grad(x), 2 * x / (1 + x @ x), rtol=1e-12)

        # Across the saturating range, zeta.x = x here.  The sigmoid is exact up
        # to rounding, so values and gradients agree with the math reference to
        # a few ulps of max(1, |f|): 4 eps leaves room for a libm tanh that is
        # off by more than the half ulp of a correctly rounded one.
        tol = 4 * np.finfo(float).eps
        xs = np.linspace(-800.0, 800.0, 4001)
        values = ZerothOrderOracle(spec).evaluate_rows([0], xs.reshape(1, -1, 1))[0]
        for x, got in zip(xs.tolist(), values.tolist()):
            s = math_sigmoid(x)
            want = s + math.log1p(x * x)
            assert abs(got - want) <= tol * max(1.0, abs(want)), x
            want = s * (1.0 - s) + 2.0 * x / (1.0 + x * x)
            got = float(spec.global_grad(np.array([x]))[0])
            assert abs(got - want) <= tol * max(1.0, abs(want)), x


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
    return Quadratic(n_agents=2, dim=3, quad=quad, shift=shift)


@pytest.mark.parametrize("points_per_row", [2, 6], ids=["pair", "sweep"])
def test_quadratic_rows_match_fsum_reference(points_per_row):
    # Q_0 is asymmetric by 1e-11: gradients must keep the Q_ij * diff_j
    # reading, which a Q^T contraction misses by ~1e-11.
    spec = nearly_symmetric_quadratic()
    rng = np.random.default_rng(9)
    agents = rng.integers(0, spec.n_agents, size=7)
    points = rng.standard_normal((7, points_per_row, spec.dim))
    values = ZerothOrderOracle(spec).evaluate_rows(agents, points)
    for b, agent in enumerate(agents):
        q, shift = spec.quad[agent], spec.shift[agent]
        for m, x in enumerate(points[b]):
            diff = (x - shift).tolist()
            rows = [[q[i, j] * diff[j] for j in range(spec.dim)] for i in range(spec.dim)]
            want = 0.5 * math.fsum(diff[i] * t for i in range(spec.dim) for t in rows[i])
            assert values[b, m] == pytest.approx(want, rel=1e-12, abs=0.0)
            grad = analytic_grad(spec, agent, x)
            for i, terms in enumerate(rows):
                scale = math.fsum(abs(t) for t in terms)
                assert abs(grad[i] - math.fsum(terms)) <= 1e-12 * scale


ROW_LISTS = {   # for n >= 2 agents
    "all": lambda n: np.arange(n),
    "permuted": lambda n: np.roll(np.arange(n), 1),
    "duplicates": lambda n: np.arange(n) // 2,
    "subset": lambda n: np.arange(n - 1, 0, -1),
}


@pytest.mark.parametrize("name", sorted(ROW_LISTS))
def test_quadratic_row_lists(name):
    # Explicit rows gather the agents' arrays; only the oracle's every_agent
    # reads them in place.  An agent's values must not depend on which ran.
    rng = np.random.default_rng(10)
    seeded = make_quadratic(5, 4, seed=3)
    seeded = replace(seeded, shift=rng.standard_normal((5, 4)))
    for spec in (seeded, nearly_symmetric_quadratic()):
        n = spec.n_agents
        rows = ROW_LISTS[name](n)
        points = rng.standard_normal((n, 3, spec.dim))    # points[i] go to agent i
        oracle = ZerothOrderOracle(spec)
        values = oracle.evaluate_rows(rows, points[rows])
        np.testing.assert_array_equal(oracle.query_count, 3 * np.bincount(rows, minlength=n))
        in_order = ZerothOrderOracle(spec).evaluate_rows(np.arange(n), points)
        np.testing.assert_array_equal(values, in_order[rows])
        for b, agent in enumerate(rows):
            q, shift = spec.quad[agent], spec.shift[agent]
            for m, x in enumerate(points[agent]):
                diff = (x - shift).tolist()
                want = 0.5 * math.fsum(diff[i] * q[i, j] * diff[j]
                                       for i in range(spec.dim) for j in range(spec.dim))
                assert values[b, m] == pytest.approx(want, rel=1e-12, abs=0.0)


def every_agent_points(spec, rng):
    """Dense points, a full sweep's stencil and a per-row pair stencil."""
    n, d = spec.n_agents, spec.dim
    x = rng.standard_normal((n, d))
    return [rng.standard_normal((n, 3, d)), Stencil(x, 0.1, np.arange(d)[None]),
            Stencil(x, rng.uniform(0.05, 0.2, n), rng.integers(0, d, (n, 2)))]


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_every_agent_path_equals_explicit_rows(kind):
    rng = np.random.default_rng(12)
    spec = FAMILIES[kind](5, 4, seed=3)
    if kind == "quadratic":
        spec = replace(spec, shift=rng.standard_normal((5, 4)))
    for points in every_agent_points(spec, rng):
        fast, explicit = ZerothOrderOracle(spec), ZerothOrderOracle(spec)
        got = fast.evaluate_rows(fast.every_agent, points)
        want = explicit.evaluate_rows(np.arange(5), points)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(fast.query_count, explicit.query_count)
        assert fast.total_queries == explicit.total_queries == 5 * points.shape[1]


def test_every_agent_path_rejects_bad_points_before_any_query():
    oracle = ZerothOrderOracle(make_benchmark(3, 3, seed=0))
    every = oracle.every_agent
    assert not every.flags.writeable
    for bad in (np.zeros((3, 3)),                                        # 2-D points
                np.zeros((2, 1, 3)), np.zeros((3, 1, 2)),                # rows, dimension
                Stencil(np.zeros((2, 3)), 0.1, np.arange(3)[None]),      # 2 rows for 3 agents
                Stencil(np.zeros((3, 2)), 0.1, np.arange(2)[None])):     # d = 2, not 3
        with pytest.raises(ValueError, match="points must be"):
            oracle.evaluate_rows(every, bad)
    assert oracle.total_queries == 0 and not oracle.query_count.any()


def test_total_queries_is_the_sum_of_the_counters():
    oracle = ZerothOrderOracle(make_linear(4, 3, seed=0))
    oracle.evaluate_rows(oracle.every_agent, np.zeros((4, 2, 3)))
    oracle.evaluate_rows(np.array([0, 0, 2]), np.zeros((3, 5, 3)))
    oracle.evaluate_rows(oracle.every_agent, Stencil(np.zeros((4, 3)), 0.1, np.arange(3)[None]))
    oracle.evaluate_rows([1], Stencil(np.zeros((1, 3)), 0.1, np.zeros((1, 1), dtype=int)))
    oracle.evaluate_rows(np.arange(4), np.zeros((4, 1, 3)))   # equal to every_agent, not it
    with pytest.raises(IndexError):
        oracle.evaluate_rows(np.array([0, 4]), np.zeros((2, 1, 3)))
    np.testing.assert_array_equal(oracle.query_count, [19, 11, 14, 9])
    assert oracle.total_queries == oracle.query_count.sum() == 53


def test_held_values_are_charged_like_their_points_and_not_evaluated():
    oracle = ZerothOrderOracle(make_linear(4, 3, seed=0))
    held = np.arange(8.0).reshape(4, 2)   # not the linear objective's values
    pair = Stencil(np.zeros((4, 3)), 0.1, np.array([[0], [1], [2], [0]]), held)
    assert oracle.evaluate_rows(oracle.every_agent, pair) is held
    swept = Stencil(np.zeros((3, 3)), np.array([0.1, 0.2, 0.3]), np.arange(3)[None],
                    np.full((3, 6), 7.0))
    np.testing.assert_array_equal(oracle.evaluate_rows(np.array([2, 2, 0]), swept), 7.0)
    for rows in (np.array([0, 4]), np.array([[0, 1]]), np.array([0.0, 1.0]), np.arange(3)):
        with pytest.raises((IndexError, ValueError)):
            oracle.evaluate_rows(rows, Stencil(np.zeros((2, 3)), 0.1, np.zeros((1, 1), dtype=int),
                                               np.zeros((2, 2))))
    np.testing.assert_array_equal(oracle.query_count, [8, 2, 14, 2])
    assert oracle.total_queries == oracle.query_count.sum() == 26


@pytest.mark.parametrize("maker", [
    lambda: make_benchmark(4, 3, seed=5),
    lambda: replace(make_quadratic(4, 3, seed=5),
                    shift=np.random.default_rng(8).standard_normal((4, 3))),
    nearly_symmetric_quadratic,
    lambda: make_linear(4, 3, seed=5),
], ids=["benchmark", "quadratic", "quadratic_asymmetric", "linear"])
def test_global_grad_is_mean(maker):
    spec = maker()
    x = np.array([0.3, -1.0, 0.7])
    per_agent = [analytic_grad(spec, i, x) for i in range(spec.n_agents)]
    np.testing.assert_allclose(spec.global_grad(x), np.mean(per_agent, axis=0),
                               rtol=1e-14, atol=1e-15)


def test_quadratic_gradient_identity():
    spec = diagonal_quadratic(1, 3)
    x = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(analytic_grad(spec, 0, x), x)


def test_query_counters():
    spec = make_benchmark(3, 4, seed=0)
    oracle = ZerothOrderOracle(spec)
    oracle.evaluate_rows(np.array([1]), np.zeros((1, 2, 4)))
    pts = np.zeros((3, 5, 4))
    oracle.evaluate_rows(np.arange(3), pts)
    # a repeated agent is charged once per row
    oracle.evaluate_rows(np.array([0, 0]), np.zeros((2, 1, 4)))
    np.testing.assert_array_equal(oracle.query_count, [7, 7, 5])
    assert oracle.total_queries == 19
    # batched values agree with the uncounted single-point evaluation
    vals = ZerothOrderOracle(spec).evaluate_rows(np.array([2]), np.ones((1, 1, 4)))
    assert vals[0, 0] == objective_value(spec, 2, np.ones(4))


def test_evaluate_rows_rejects_bad_input():
    oracle = ZerothOrderOracle(make_benchmark(3, 3, seed=0))
    agents = np.arange(2)
    for bad in (np.zeros((2, 3)),          # 2-D points
                np.zeros((3, 1, 3)),       # rows differ from len(agents)
                np.zeros((2, 1, 2))):      # wrong trailing dimension
        with pytest.raises(ValueError, match="points must be"):
            oracle.evaluate_rows(agents, bad)
    for rows in ([5], [1, 5], [-1], [0, -2]):  # past N, or negative
        with pytest.raises(IndexError):
            oracle.evaluate_rows(np.array(rows), np.zeros((len(rows), 1, 3)))
    # A fractional row or a boolean mask would otherwise be cast to indices,
    # and a column of rows would be charged before the objective rejects it.
    for rows in ([1.7], [False, True, True], [[0], [1]]):
        with pytest.raises(IndexError, match="must be a 1-D integer array"):
            oracle.evaluate_rows(rows, np.zeros((len(rows), 1, 3)))
    assert oracle.evaluate_rows([], np.zeros((0, 1, 3))).shape == (0, 1)
    # A stencil goes through the same checks.
    for bad in (Stencil(np.zeros((3, 3)), 0.1, np.arange(3)[None]),   # 3 rows for 2 agents
                Stencil(np.zeros((2, 2)), 0.1, np.arange(2)[None])):   # d = 2, not 3
        with pytest.raises(ValueError, match="points must be"):
            oracle.evaluate_rows(agents, bad)
    for rows in ([5], [0, 3], [-1], [1.7], [[0]]):
        with pytest.raises(IndexError):
            oracle.evaluate_rows(rows, Stencil(np.zeros((len(rows), 3)), 0.1,
                                               np.zeros((1, 1), dtype=int)))
    # A malformed stencil raises when it is built, before any oracle sees it.
    # A coordinate of -1 would wrap to another agent's row and one of d would
    # reach into the next row's points.
    x, rows = np.zeros((3, 3)), np.arange(3)
    for coords in ([[-1]], [[3]], [[0], [-1], [2]], [[0], [3], [2]],   # outside [0, d)
                   [[0.0]], [1], [[0], [1]]):     # float, 1-D, 2 coordinate rows for 3
        with pytest.raises(IndexError, match="coords must be"):
            oracle.evaluate_rows(rows, Stencil(x, 0.1, np.array(coords)))
    with pytest.raises(ValueError, match="need 1 or 3 radii, got 2"):
        oracle.evaluate_rows(rows, Stencil(x, np.full(2, 0.1), np.zeros((1, 1), dtype=int)))
    assert oracle.total_queries == 0


def test_smoothness_quadratic_bracketed():
    assert diagonal_quadratic(1, 4, diag=2.0).smoothness() == 2.0


def test_smoothness_linear_tiny():
    assert make_linear(2, 3, seed=1).smoothness() == 0.0


def test_smoothness_frozen():
    # max_i |alpha_i| |zeta_i|^2 / (6 sqrt(3)) + 2 |beta_i|.
    lhat = make_benchmark(50, 64, seed=42).smoothness()
    assert lhat == pytest.approx(3.035306493659206, rel=1e-12)


def test_smoothness_reproducible():
    a = make_benchmark(4, 64, seed=42).smoothness()
    b = make_benchmark(4, 64, seed=42).smoothness()
    assert a == b and np.isfinite(a) and a > 0


@pytest.mark.parametrize("maker", [
    lambda: make_quadratic(50, 64, seed=42),
    lambda: make_quadratic(1000, 16, seed=1),
    lambda: make_quadratic(3, 300, seed=3),
    nearly_symmetric_quadratic,
], ids=["50x64", "1000x16", "3x300", "asymmetric"])
def test_quadratic_smoothness_is_largest_eigenvalue(maker):
    # The spectral norm through an SVD, not through the spec's own eigvalsh.
    spec = maker()
    exact = max(np.linalg.norm(q, 2) for q in spec.quad)
    assert spec.smoothness() == pytest.approx(exact, rel=1e-12)


def benchmark_hessian_points(spec, agent, rng):
    # x = 0, where the log barrier's Hessian is 2 beta I; a point with
    # |x|^2 = 3, where its radial eigenvalue is -beta/4; t = zeta.x + v at
    # ln(2 ± sqrt(3)), where |sigmoid''| peaks at 1/(6 sqrt(3)), with x
    # along zeta and, where it reaches, also at |x|^2 = 3; and random points.
    d, z = spec.dim, spec.zeta[agent]
    zhat = z / np.linalg.norm(z)
    w = rng.standard_normal(d)
    w -= (w @ zhat) * zhat
    w /= np.linalg.norm(w)
    points = [np.zeros(d), np.sqrt(3.0) * w]
    for t in (np.log(2.0 + np.sqrt(3.0)), np.log(2.0 - np.sqrt(3.0))):
        a = (t - spec.v[agent]) / np.linalg.norm(z)
        points.append(a * zhat)
        if a * a <= 3.0:
            points.append(a * zhat + np.sqrt(3.0 - a * a) * w)
    return points + [rng.standard_normal(d) * scale for scale in (0.1, 1.0, 3.0)]


@pytest.mark.parametrize("maker", [
    lambda: make_benchmark(50, 64, seed=42),
    lambda: make_benchmark(20, 3, seed=7),
    lambda: make_benchmark(5, 2, seed=2),
    lambda: make_quadratic(50, 64, seed=42),
    nearly_symmetric_quadratic,
    lambda: make_linear(4, 5, seed=3),
], ids=["benchmark", "benchmark_d3", "benchmark_d2", "quadratic", "quadratic_asymmetric",
        "linear"])
def test_smoothness_bounds_the_exact_hessian(maker):
    spec = maker()
    lhat = spec.smoothness()
    rng = np.random.default_rng(31)
    worst = 0.0
    for agent in range(spec.n_agents):
        points = (benchmark_hessian_points(spec, agent, rng) if isinstance(spec, Benchmark)
                  else [rng.standard_normal(spec.dim) * s for s in (0.1, 1.0, 3.0)])
        for x in points:
            worst = max(worst, np.linalg.norm(analytic_hessian(spec, agent, x), 2))
    assert worst <= lhat * (1.0 + 1e-12)
    # And tight: the drawn points come within 2 % of the benchmark's bound
    # (0.990 of it on the first case) and reach the quadratic's.
    assert worst >= (0.98 if isinstance(spec, Benchmark) else 1.0 - 1e-12) * lhat


def test_spec_validation():
    with pytest.raises(ValueError):
        Benchmark(n_agents=2, dim=1, alpha=[0.0, 0.0], beta=[1.0, 1.5], v=[0.0, 0.0],
                  zeta=[[0.0], [0.0]])  # beta mean != 1
    with pytest.raises(ValueError):
        Quadratic(n_agents=1, dim=2, quad=[[[1.0, 2.0], [0.0, 1.0]]], shift=[[0.0, 0.0]])  # asymmetric
    # The first offending agent is named, whichever check it fails.
    quad = np.stack([np.eye(2)] * 4)
    quad[2, 0, 1] = 1e-9
    quad[3] = -np.eye(2)
    with pytest.raises(ValueError, match=r"^quad\[2\] is not symmetric$"):
        Quadratic(n_agents=4, dim=2, quad=quad, shift=np.zeros((4, 2)))
    quad[1] = np.diag([1.0, -1e-9])
    with pytest.raises(ValueError, match=r"^quad\[1\] is not PSD$"):
        Quadratic(n_agents=4, dim=2, quad=quad, shift=np.zeros((4, 2)))


def test_each_family_takes_only_its_own_fields():
    specs = [make_benchmark(2, 3, seed=1), make_quadratic(2, 3, seed=1), make_linear(2, 3, seed=1)]
    for spec in specs:
        own = {f.name: getattr(spec, f.name) for f in fields(spec)}
        assert type(spec)(**own).kind == spec.kind
        for other in specs:
            for name in {f.name for f in fields(other)} - own.keys():
                with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
                    type(spec)(**own, **{name: getattr(other, name)})
        with pytest.raises(TypeError, match="unexpected keyword argument 'kind'"):
            type(spec)(**own, kind=spec.kind)
    with pytest.raises(TypeError):
        Linear(n_agents=1, dim=2, coef=[[1, 2]], zeta=[[math.nan]], quad="garbage")


# (first entry, last entry, sum) of each array that FAMILIES[kind](3, 4, seed=5)
# draws, frozen so that a changed draw moves every config built on it.
FROZEN_DRAWS = {
    "benchmark": {"alpha": (0.6100058474907604, 0.030651122084284, 1.2565385490480319),
                  "beta": (1.361004394734393, 0.8221064215083558, 3.0),
                  "v": (-0.4283972398237168, -0.23326223842896354, -1.5537980734893675),
                  "zeta": (0.8173915214792887, -0.3566566858161218, -1.6454024094139281)},
    "quadratic": {"quad": (1.1588696134129925, 1.7926572701983952, 19.018767204740733),
                  "shift": (0.0, 0.0, 0.0)},
    "linear": {"coef": (-0.8019314252534474, -1.2333286640307717, -0.6229126234732603)},
}


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_makers_take_a_seed_and_draw_frozen_values(kind):
    # A maker is the seeded path only: explicit arrays go through the family type.
    make = FAMILIES[kind]
    params = inspect.signature(make).parameters.values()
    assert [(q.name, q.default) for q in params] == [
        ("n", inspect.Parameter.empty), ("d", inspect.Parameter.empty),
        ("seed", inspect.Parameter.empty)]
    spec = make(3, 4, seed=5)
    assert spec.kind == kind
    assert FROZEN_DRAWS[kind].keys() == {f.name for f in fields(spec)} - {"n_agents", "dim"}
    for name, want in FROZEN_DRAWS[kind].items():
        a = np.ravel(getattr(spec, name))
        assert (a[0], a[-1], a.sum()) == pytest.approx(want, rel=1e-15, abs=0.0), name


def _with(arr, index, value):
    arr = np.array(arr)
    arr[index] = value
    return arr


BENCH = make_benchmark(2, 3, seed=1)
QUAD = make_quadratic(2, 3, seed=1)
LIN = make_linear(2, 3, seed=1)


@pytest.mark.parametrize("spec, changes, error", [
    (BENCH, dict(zeta=_with(BENCH.zeta, (1, 2), math.nan)), "zeta has non-finite entries"),
    (BENCH, dict(v=_with(BENCH.v, 0, math.inf)), "v has non-finite entries"),
    (BENCH, dict(alpha=np.zeros(3)), r"alpha must have shape \(2,\), got \(3,\)"),
    (BENCH, dict(beta=BENCH.beta * 1.001), r"mean\(beta\) == 1"),
    (QUAD, dict(shift=_with(QUAD.shift, (0, 1), math.nan)), "shift has non-finite entries"),
    (QUAD, dict(quad=np.eye(3)), r"quad must have shape \(2, 3, 3\), got \(3, 3\)"),
    (QUAD, dict(quad=_with(QUAD.quad, (1, 0, 2), 5.0)), r"^quad\[1\] is not symmetric$"),
    (QUAD, dict(quad=np.stack([-np.eye(3), np.eye(3)])), r"^quad\[0\] is not PSD$"),
    (LIN, dict(coef=_with(LIN.coef, (1, 0), math.nan)), "coef has non-finite entries"),
    (LIN, dict(coef=LIN.coef.T), r"coef must have shape \(2, 3\), got \(3, 2\)"),
    (LIN, dict(n_agents=0), "need n_agents >= 1 and dim >= 1"),
], ids=["benchmark_nan", "benchmark_inf", "benchmark_shape", "benchmark_beta_mean",
        "quadratic_nan", "quadratic_shape", "quadratic_asymmetric", "quadratic_indefinite",
        "linear_nan", "linear_shape", "linear_no_agents"])
def test_replace_revalidates(spec, changes, error):
    with pytest.raises(ValueError, match=error):
        replace(spec, **changes)
