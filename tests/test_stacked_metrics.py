"""Metrics over a stack of rounds: ``run`` evaluates up to a stack's depth
of rounds in one compute_metrics call, or each round's state in place when
that state is too large for a useful stack.  Either way every row is, bit
for bit, the one its round's state gives alone."""

from types import SimpleNamespace

import numpy as np
import pytest

import dzo.algorithms as alg
from dzo.algorithms import ALGORITHMS, MetricsRow, Schedule, StopRule, run
from dzo.network import build_topology
from dzo.oracle import FAMILIES, make_quadratic

N, D = 5, 4


def row_alone(spec, x, s, k, m):
    """One round's metrics on their own, from the gradient at one point."""
    n = x.shape[0]
    xbar = np.add.reduce(x, axis=0) / n
    grad = spec.global_grad(xbar)
    tracking = None if s is None else float(np.square(s - grad).sum()) / n
    return MetricsRow(k=k, m=m, stat_gap=float(grad @ grad),
                      consensus_err=float(np.square(x - xbar).sum()) / n,
                      tracking_err=tracking)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_global_grad_of_a_stack_is_each_point_alone(kind):
    spec = FAMILIES[kind](N, D, seed=1)
    x = np.random.default_rng(2).standard_normal((7, D))
    stacked = spec.global_grad(x)
    assert stacked.shape == (7, D)
    assert all(stacked[i].tobytes() == spec.global_grad(x[i]).tobytes() for i in range(7))
    assert spec.global_grad(x[None]).shape == (1, 7, D)


@pytest.mark.parametrize("stacked", [True, False])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_run_rows_equal_per_round_metrics(kind, algorithm, stacked, monkeypatch):
    # Nine rounds of the state fill the stack; on the other side of the rule
    # the budget holds one round fewer than the smallest useful stack.
    rounds_per_stack = 9 if stacked else alg._MIN_STACK - 1
    monkeypatch.setattr(alg, "_STACK_BYTES",
                        rounds_per_stack * 8 * N * D * (1 + (algorithm != "dgd2p")))
    spec = FAMILIES[kind](N, D, seed=1)
    step = getattr(alg, f"{algorithm}_step")
    seen = []

    def recorded(state, w, schedule):
        step(state, w, schedule)
        s = None if state.s is None else state.s.copy()
        seen.append(row_alone(spec, state.x.copy(), s, state.k, state.oracle.total_queries))
        return state

    compute, calls = alg.compute_metrics, []

    def counted(*args, **kwargs):
        calls.append(len(args[3]))
        return compute(*args, **kwargs)

    monkeypatch.setattr(alg, f"{algorithm}_step", recorded)
    monkeypatch.setattr(alg, "compute_metrics", counted)
    for rounds in (1, 8, 9, 10):   # 1, K - 1, K and K + 1 for the stacked side's K = 9
        seen.clear()
        calls.clear()
        rows = run(algorithm, build_topology("ring", N), spec, Schedule(step_size=0.05),
                   StopRule("rounds", rounds), seed=3, p=0.5, heterogeneous_x0=True)
        assert rows == seen
        assert calls == ([9] * (rounds // 9) + [rounds % 9] * (rounds % 9 > 0) if stacked
                         else [1] * rounds)


def test_stack_depth_follows_the_state_size():
    # fig1's states stack; highdim's and bignet's are read in place.
    for n, d, tracked, stacks in ((50, 64, False, True), (50, 64, True, True),
                                  (50, 300, True, False), (1000, 16, False, False),
                                  (1000, 16, True, False)):
        state = alg.RunState(k=0, x=np.zeros((n, d)), oracle=SimpleNamespace(spec=None),
                             rng=None, s=np.zeros((n, d)) if tracked else None)
        assert (alg._Stack(state).depth > 0) == stacks, (n, d, tracked)


@pytest.mark.parametrize("stacked", [True, False])
@pytest.mark.parametrize("algorithm, k", [("dgd2p", 32), ("gt2d", 45), ("vrgt", 42)])
def test_nonfinite_metrics_raise_at_the_round_they_appear(algorithm, k, stacked, monkeypatch):
    # The iterates grow until the quadratic overflows; k is the round at
    # which metrics computed one round at a time, right after each step,
    # raise.  A stacked run goes on past k within its stack and still
    # reports k.
    if not stacked:
        monkeypatch.setattr(alg, "_STACK_BYTES", 0)
    with np.errstate(all="ignore"), pytest.raises(ValueError) as err:
        run(algorithm, build_topology("ring", 6), make_quadratic(6, 3, seed=0),
            Schedule(step_size=1.0, u0=1e150), StopRule("rounds", 200), seed=0, p=0.5,
            x0_scale=1e150)
    assert str(err.value) == f"non-finite metrics at round {k}"
