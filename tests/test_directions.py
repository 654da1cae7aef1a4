"""dgd2p's direction stream: bit for bit the per-round sphere draws, drawn
a block ahead on a worker thread that the stream owns and joins when it is
closed or dropped, so no worker outlives ``run`` or a hand-stepped state."""

import gc
import sys
import threading

import numpy as np
import pytest

import dzo.algorithms as alg
import dzo.estimators as est
from dzo.algorithms import Schedule, StopRule, dgd2p_step, init_dgd2p, run
from dzo.estimators import BLOCK_BYTES, directions, sphere
from dzo.network import build_topology, metropolis_weights
from dzo.oracle import ZerothOrderOracle, make_benchmark


def block_rounds(n, d):
    return max(1, BLOCK_BYTES // (8 * n * d))


@pytest.mark.parametrize("n, d", [(50, 64), (1000, 16)])
def test_stream_equals_per_round_sphere(n, d):
    count = 3 * block_rounds(n, d) + 1
    ref = np.random.default_rng(11)
    want = [sphere(ref, n, d) for _ in range(count)]
    rng = np.random.default_rng(11)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # pass the interpreter lock between threads often
    try:
        stream = directions(rng, n, d)
        got = [next(stream) for _ in range(count)]   # every array kept alive
        stream.close()
    finally:
        sys.setswitchinterval(interval)
    assert all(g.shape == (n, d) and g.tobytes() == w.tobytes() for g, w in zip(got, want))


class ZeroRowBlock:
    """A generator whose first block draw (an out= fill) comes back with an
    all-zero row; every other draw is the wrapped generator's."""

    def __init__(self, seed):
        self.inner = np.random.default_rng(seed)
        self.bit_generator = self.inner.bit_generator
        self.zeroed = False

    def standard_normal(self, size=None, out=None):
        if out is None:
            return self.inner.standard_normal(size)
        self.inner.standard_normal(out=out)
        if not self.zeroed:
            out[1, 2] = 0.0
            self.zeroed = True
        return out


def test_zero_row_block_falls_back_to_sphere():
    n, d = 4, 3
    count = block_rounds(n, d)
    ref = np.random.default_rng(5)
    want = [sphere(ref, n, d) for _ in range(count)]
    rng = ZeroRowBlock(5)
    stream = directions(rng, n, d)
    got = [next(stream) for _ in range(count)]
    stream.close()
    assert rng.zeroed
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    for _ in range(count):   # the worker has drawn the next block too, without a zero row
        sphere(ref, n, d)
    assert rng.bit_generator.state == ref.bit_generator.state


def hand_stepped(rounds):
    """An init_dgd2p state of 6 agents in R^5 stepped by hand for the given
    number of rounds."""
    n, d = 6, 5
    state = init_dgd2p(ZerothOrderOracle(make_benchmark(n, d, seed=2)), np.zeros((n, d)),
                       np.random.default_rng(0))
    w, schedule = metropolis_weights(build_topology("ring", n)), Schedule(step_size=0.05)
    for _ in range(rounds):
        dgd2p_step(state, w, schedule)
    return state


def test_unstepped_state_starts_no_thread():
    before = threading.active_count()
    hand_stepped(0)
    assert threading.active_count() == before


def test_hand_stepped_stream_joins_its_worker_when_closed():
    before = threading.active_count()
    state = hand_stepped(block_rounds(6, 5) + 1)
    assert threading.active_count() == before + 1
    state.directions.close()
    assert threading.active_count() == before


def test_hand_stepped_stream_joins_its_worker_when_dropped():
    before = threading.active_count()
    state = hand_stepped(block_rounds(6, 5) + 1)
    assert threading.active_count() == before + 1
    del state   # dropped unclosed: the stream is finalised
    gc.collect()
    assert threading.active_count() == before


def dgd2p_run(rounds=20):
    return run("dgd2p", build_topology("ring", 6), make_benchmark(6, 5, seed=2),
               Schedule(step_size=0.05), StopRule("rounds", rounds), seed=3)


def test_no_thread_outlives_a_complete_run():
    before = threading.active_count()
    rows = dgd2p_run()
    assert len(rows) == 20
    assert threading.active_count() == before


def test_no_thread_outlives_a_failing_run(monkeypatch):
    class Stop(Exception):
        pass

    compute = alg.compute_metrics

    def failing(spec, x, s, k, m, **kwargs):
        if 3 in k:
            raise Stop("round 3")
        return compute(spec, x, s, k, m, **kwargs)

    monkeypatch.setattr(alg, "compute_metrics", failing)
    before = threading.active_count()
    with pytest.raises(Stop, match="round 3"):
        dgd2p_run()
    assert threading.active_count() == before


def test_worker_exception_surfaces_from_run(monkeypatch):
    boom = RuntimeError("draw failed")
    fill = est._fill_block
    calls = []

    def failing(*args):
        calls.append(threading.current_thread())
        if len(calls) == 2:
            raise boom
        return fill(*args)

    monkeypatch.setattr(est, "_fill_block", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as err:
        dgd2p_run(rounds=block_rounds(6, 5) + 1)
    assert err.value is boom
    assert all(t is not threading.main_thread() for t in calls)
    assert threading.active_count() == before


class FailingDraw:
    """A generator whose block draw number fail_at (an out= fill) raises;
    every other draw is the wrapped generator's."""

    def __init__(self, rng, fail_at):
        self.inner, self.fail_at, self.draws = rng, fail_at, 0
        self.bit_generator = rng.bit_generator

    def standard_normal(self, size=None, out=None):
        if out is not None:
            self.draws += 1
            if self.draws == self.fail_at:
                raise RuntimeError(f"block draw {self.draws} failed")
        return self.inner.standard_normal(size, out=out)


def fail_second_block(monkeypatch):
    # The first block covers every round of dgd2p_run(block_rounds(6, 5)),
    # so the failing draw is the one in flight when the rounds end.
    monkeypatch.setattr(alg, "directions", lambda rng, n, d:
                        directions(FailingDraw(rng, 2), n, d))


def test_unused_block_error_surfaces_from_run(monkeypatch):
    fail_second_block(monkeypatch)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="block draw 2 failed"):
        dgd2p_run(rounds=block_rounds(6, 5))
    assert threading.active_count() == before


def test_unused_block_error_does_not_mask_the_run_error(monkeypatch):
    class Stop(Exception):
        pass

    def failing(*args, **kwargs):
        raise Stop("metrics")

    fail_second_block(monkeypatch)
    monkeypatch.setattr(alg, "compute_metrics", failing)
    before = threading.active_count()
    with pytest.raises(Stop, match="metrics"):
        dgd2p_run(rounds=block_rounds(6, 5))
    assert threading.active_count() == before
