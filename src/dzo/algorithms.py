"""Synchronous-round distributed algorithms over a zeroth-order oracle.

Three algorithms, all advancing every agent in lockstep per round:

* ``dgd2p`` -- decentralized gradient descent driven by the random-direction
  two-point estimator; 2 queries per agent per round.
* ``gt2d``  -- gradient tracking driven by the full coordinate sweep; 2d
  queries per agent per round (the previous sweep is retained, and the
  tracker is seeded with the round-0 sweep so its network mean matches the
  mean estimate from the start).
* ``vrgt``  -- gradient tracking driven by the variance-reduced estimator
  with Bernoulli(p) snapshot refreshes; 4 + 2dp expected queries per agent
  per round in ``paper_faithful`` accounting (2 + 2dp in ``cached``), plus
  one 2d sweep per agent at initialization to seed the snapshots.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .estimators import SnapshotBlock, check_mode, sphere, sweep, two_point, vr_estimate
from .metrics import MetricsRow, compute_metrics
from .network import MixingMatrix, Topology, metropolis_weights
from .oracle import ObjectiveSpec, ZerothOrderOracle

ALGORITHMS = ("dgd2p", "gt2d", "vrgt")


@dataclass(frozen=True)
class Schedule:
    """Step-size and smoothing-radius schedules.

    step at round k is step_size / max(k, 1)**step_decay (constant when
    step_decay == 0; the decaying option is meant for dgd2p).  The smoothing
    radius is u0 / max(k, 1)**u_decay, non-increasing, finite at k == 0.
    Squared radii scaled by the dimension are summable only when
    u_decay > 1/2; a smaller exponent voids the convergence guarantee, so
    the constructor warns.
    """

    step_size: float
    step_decay: float = 0.0
    u0: float = 3.0
    u_decay: float = 0.75

    def __post_init__(self) -> None:
        if self.step_size < 0.0:
            raise ValueError("step_size must be nonnegative")
        if self.step_decay < 0.0:
            raise ValueError("step_decay must be nonnegative")
        if self.u0 <= 0.0:
            raise ValueError("u0 must be positive")
        if not 0.0 < self.u_decay <= 1.0:
            raise ValueError("u_decay must lie in (0, 1]")
        if self.u_decay <= 0.5:
            warnings.warn("u_decay <= 1/2: squared smoothing radii are not summable",
                          stacklevel=2)

    def step_size_at(self, k: int) -> float:
        return self.step_size / max(k, 1) ** self.step_decay

    def smoothing_at(self, k: int) -> float:
        return self.u0 / max(k, 1) ** self.u_decay


@dataclass(frozen=True)
class StopRule:
    """rounds: run exactly `limit` rounds.  queries: run whole rounds until
    the cumulative fresh-query count reaches `limit`."""

    kind: str
    limit: int

    def __post_init__(self) -> None:
        if self.kind not in ("rounds", "queries"):
            raise ValueError(f"stop kind must be 'rounds' or 'queries', got {self.kind!r}")
        if self.limit < 1:
            raise ValueError("stop limit must be at least 1")


@dataclass
class RunState:
    """Mutable state of one run.  A run owns its oracle and rng stream."""

    k: int
    x: np.ndarray                      # (N, d) iterates
    oracle: ZerothOrderOracle
    rng: np.random.Generator
    s: np.ndarray | None = None        # (N, d) trackers
    g_prev: np.ndarray | None = None   # (N, d) previous estimates
    snapshots: SnapshotBlock | None = None
    last_refreshes: int = 0


def init_dgd2p(oracle: ZerothOrderOracle, x0: np.ndarray,
               rng: np.random.Generator) -> RunState:
    return RunState(k=0, x=x0.copy(), oracle=oracle, rng=rng)


def init_gt2d(oracle: ZerothOrderOracle, x0: np.ndarray, schedule: Schedule,
              rng: np.random.Generator) -> RunState:
    """Seed the tracker with the round-0 sweep (2d queries per agent) so the
    tracking identity holds from the start."""
    g0, _ = sweep(oracle, np.arange(len(x0)), x0, schedule.smoothing_at(0))
    return RunState(k=0, x=x0.copy(), oracle=oracle, rng=rng, s=g0.copy(), g_prev=g0)


def init_vrgt(oracle: ZerothOrderOracle, x0: np.ndarray, schedule: Schedule,
              rng: np.random.Generator) -> RunState:
    """Snapshots start at the initial iterate (one 2d sweep per agent);
    trackers and previous estimates start at zero."""
    snapshots = SnapshotBlock(oracle, x0, schedule.smoothing_at(0))
    return RunState(k=0, x=x0.copy(), oracle=oracle, rng=rng,
                    s=np.zeros_like(x0), g_prev=np.zeros_like(x0), snapshots=snapshots)


def dgd2p_step(state: RunState, w: MixingMatrix, oracle: ZerothOrderOracle,
               schedule: Schedule) -> RunState:
    """Mixed descent along fresh two-point estimates; 2 queries per agent."""
    n, d = state.x.shape
    u = schedule.smoothing_at(state.k)
    eta = schedule.step_size_at(state.k)
    grad_est = two_point(oracle, np.arange(n), state.x, u, sphere(state.rng, n, d))
    state.x = w.w @ (state.x - eta * grad_est)
    state.k += 1
    return state


def gt2d_step(state: RunState, w: MixingMatrix, oracle: ZerothOrderOracle,
              schedule: Schedule) -> RunState:
    """Tracked descent with a fresh full sweep at the new iterate; 2d queries
    per agent (the previous sweep is reused, not recomputed)."""
    if state.s is None or state.g_prev is None:
        raise ValueError("gt2d state not initialized; use init_gt2d")
    alpha = schedule.step_size_at(state.k)
    u_next = schedule.smoothing_at(state.k + 1)
    x_new = w.w @ (state.x - alpha * state.s)
    g_new, _ = sweep(oracle, np.arange(len(x_new)), x_new, u_next)
    state.s = w.w @ (state.s + g_new - state.g_prev)
    state.x = x_new
    state.g_prev = g_new
    state.k += 1
    return state


def vrgt_step(state: RunState, w: MixingMatrix, oracle: ZerothOrderOracle,
              schedule: Schedule, p: float,
              counting_mode: str = "paper_faithful") -> RunState:
    """One variance-reduced gradient-tracking round: (1) mix-and-descend the
    iterates, (2) draw a uniform coordinate per agent, (3) draw the
    Bernoulli refresh indicator, (4) refresh fired snapshots at the new
    iterate, (5) build the variance-reduced estimate, (6) mix the tracker
    with the estimate increment.  Trackers start at zero together with the
    previous-estimate register, so mean(s) == mean(g) holds from round 0."""
    check_mode(counting_mode)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"refresh probability must lie in [0, 1], got {p}")
    if state.s is None or state.g_prev is None or state.snapshots is None:
        raise ValueError("vrgt state not initialized; use init_vrgt")
    n, d = state.x.shape
    snap = state.snapshots
    alpha = schedule.step_size_at(state.k)
    u_next = schedule.smoothing_at(state.k + 1)

    x_new = w.w @ (state.x - alpha * state.s)
    l = state.rng.integers(0, d, size=n)
    hit = np.flatnonzero(state.rng.random(n) < p)
    if hit.size:
        snap.capture_rows(oracle, hit, x_new[hit], u_next)
    g = vr_estimate(oracle, snap, x_new, u_next, l, counting_mode)

    state.s = w.w @ (state.s + g - state.g_prev)
    state.x = x_new
    state.g_prev = g
    state.k += 1
    state.last_refreshes = int(hit.size)
    return state


def run(algorithm: str, topology: Topology, spec: ObjectiveSpec,
        schedule: Schedule, stop: StopRule, seed: int, p: float = 0.1,
        counting_mode: str = "paper_faithful", x0_scale: float = 1.0,
        heterogeneous_x0: bool = False) -> list[MetricsRow]:
    """Run one algorithm to its stop rule and return per-round metrics.

    The trajectory is fully determined by the arguments: the master seed
    derives one stream for the initial point and one consumed by the rounds
    in a fixed order.  All agents start from the same point unless
    heterogeneous_x0 is set.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    if topology.n_agents != spec.n_agents:
        raise ValueError("topology and objective disagree on the number of agents")
    if algorithm == "vrgt":
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"refresh probability must lie in [0, 1], got {p}")
        check_mode(counting_mode)

    w = metropolis_weights(topology)
    oracle = ZerothOrderOracle(spec)
    ss_init, ss_rounds = np.random.SeedSequence(seed).spawn(2)
    rng_init = np.random.default_rng(ss_init)
    if heterogeneous_x0:
        x0 = x0_scale * rng_init.standard_normal((spec.n_agents, spec.dim))
    else:
        x0 = np.tile(x0_scale * rng_init.standard_normal(spec.dim), (spec.n_agents, 1))
    rng = np.random.default_rng(ss_rounds)

    if algorithm == "dgd2p":
        state, step = init_dgd2p(oracle, x0, rng), dgd2p_step
    elif algorithm == "gt2d":
        state, step = init_gt2d(oracle, x0, schedule, rng), gt2d_step
    else:
        state = init_vrgt(oracle, x0, schedule, rng)
        step = partial(vrgt_step, p=p, counting_mode=counting_mode)

    rows: list[MetricsRow] = []
    while (state.k if stop.kind == "rounds" else oracle.total_queries) < stop.limit:
        step(state, w, oracle, schedule)
        rows.append(compute_metrics(state, spec))
    return rows
