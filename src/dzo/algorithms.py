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

gt2d and vrgt share one gradient-tracking round (DIGing) fed by different
estimates.  Every step takes ``(state, w, schedule)`` and reads the oracle,
rng and vrgt's refresh policy from the state its ``init_<name>`` built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimators import SnapshotBlock, check_policy, sphere, sweep, two_point, vr_estimate
from .metrics import MetricsRow, compute_metrics
from .network import MixingMatrix, Topology, metropolis_weights
from .oracle import ObjectiveSpec, ZerothOrderOracle

ALGORITHMS = ("dgd2p", "gt2d", "vrgt")
STOP_KINDS = ("rounds", "queries")


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
        if not 0.0 <= self.step_size < np.inf:
            raise ValueError(f"step_size must be finite and nonnegative, got {self.step_size}")
        if not 0.0 <= self.step_decay < np.inf:
            raise ValueError(f"step_decay must be finite and nonnegative, got {self.step_decay}")
        if not 0.0 < self.u0 < np.inf:
            raise ValueError(f"u0 must be finite and positive, got {self.u0}")
        if not 0.0 < self.u_decay <= 1.0:
            raise ValueError(f"u_decay must lie in (0, 1], got {self.u_decay}")
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
        if self.kind not in STOP_KINDS:
            raise ValueError(f"stop kind must be one of {STOP_KINDS}, got {self.kind!r}")
        if self.limit < 1:
            raise ValueError("stop limit must be at least 1")


@dataclass
class RunState:
    """Mutable state of one run.  A run owns its oracle, its rng stream and,
    for vrgt, its refresh probability and counting mode: every step reads
    them from here, and init_vrgt runs check_policy before any query."""

    k: int
    x: np.ndarray                      # (N, d) iterates
    oracle: ZerothOrderOracle
    rng: np.random.Generator
    s: np.ndarray | None = None        # (N, d) trackers
    g_prev: np.ndarray | None = None   # (N, d) previous estimates
    snapshots: SnapshotBlock | None = None
    p: float = 0.0
    counting_mode: str = "paper_faithful"


def init_dgd2p(oracle: ZerothOrderOracle, x0: np.ndarray,
               rng: np.random.Generator) -> RunState:
    return RunState(k=0, x=x0.copy(), oracle=oracle, rng=rng)


def init_gt2d(oracle: ZerothOrderOracle, x0: np.ndarray, schedule: Schedule,
              rng: np.random.Generator) -> RunState:
    """Seed the tracker with the round-0 sweep (2d queries per agent) so the
    tracking identity holds from the start."""
    g0 = sweep(oracle, np.arange(len(x0)), x0, schedule.smoothing_at(0))
    return RunState(k=0, x=x0.copy(), oracle=oracle, rng=rng, s=g0.copy(), g_prev=g0)


def init_vrgt(oracle: ZerothOrderOracle, x0: np.ndarray, schedule: Schedule,
              rng: np.random.Generator, p: float,
              counting_mode: str = "paper_faithful") -> RunState:
    """Check the refresh policy with check_policy, then start the snapshots
    at the initial iterate (one 2d sweep per agent); trackers and previous
    estimates start at zero."""
    check_policy(p, counting_mode)
    snapshots = SnapshotBlock(oracle, x0, schedule.smoothing_at(0))
    return RunState(k=0, x=x0.copy(), oracle=oracle, rng=rng,
                    s=np.zeros_like(x0), g_prev=np.zeros_like(x0), snapshots=snapshots,
                    p=p, counting_mode=counting_mode)


def dgd2p_step(state: RunState, w: MixingMatrix, schedule: Schedule) -> RunState:
    """Mixed descent along fresh two-point estimates; 2 queries per agent."""
    n, d = state.x.shape
    u = schedule.smoothing_at(state.k)
    eta = schedule.step_size_at(state.k)
    grad_est = two_point(state.oracle, np.arange(n), state.x, u, sphere(state.rng, n, d))
    state.x = w.apply(state.x - eta * grad_est)
    state.k += 1
    return state


def _track(state: RunState, w: MixingMatrix, schedule: Schedule,
           estimate: Callable[[np.ndarray, float], np.ndarray]) -> RunState:
    """One gradient-tracking round (DIGing): x <- W(x - alpha s), then
    g = estimate(x, u_{k+1}) at the new iterate, then s <- W(s + g - g_prev)."""
    if state.s is None or state.g_prev is None:
        raise ValueError("tracker not initialized; use init_gt2d or init_vrgt")
    alpha = schedule.step_size_at(state.k)
    x_new = w.apply(state.x - alpha * state.s)
    g = estimate(x_new, schedule.smoothing_at(state.k + 1))
    state.s = w.apply(state.s + g - state.g_prev)
    state.x = x_new
    state.g_prev = g
    state.k += 1
    return state


def gt2d_step(state: RunState, w: MixingMatrix, schedule: Schedule) -> RunState:
    """Tracked descent with a fresh full sweep at the new iterate; 2d queries
    per agent (the previous sweep is reused, not recomputed)."""
    rows = np.arange(len(state.x))
    return _track(state, w, schedule, lambda x, u: sweep(state.oracle, rows, x, u))


def vrgt_step(state: RunState, w: MixingMatrix, schedule: Schedule) -> RunState:
    """One variance-reduced gradient-tracking round: after the tracked
    descent, (1) draw a uniform coordinate per agent, (2) draw the
    Bernoulli(p) refresh indicator, (3) refresh fired snapshots at the new
    iterate, (4) build the variance-reduced estimate.  Trackers start at
    zero together with the previous-estimate register, so mean(s) == mean(g)
    holds from round 0."""
    snap = state.snapshots
    if snap is None:
        raise ValueError("vrgt state not initialized; use init_vrgt")
    n, d = state.x.shape

    def estimate(x: np.ndarray, u: float) -> np.ndarray:
        l = state.rng.integers(0, d, size=n)
        hit = np.flatnonzero(state.rng.random(n) < state.p)
        if hit.size:
            snap.capture_rows(state.oracle, hit, x[hit], u)
        return vr_estimate(state.oracle, snap, x, u, l, state.counting_mode)

    return _track(state, w, schedule, estimate)


def run(algorithm: str, topology: Topology, spec: ObjectiveSpec,
        schedule: Schedule, stop: StopRule, seed: int, p: float = 0.1,
        counting_mode: str = "paper_faithful", x0_scale: float = 1.0,
        heterogeneous_x0: bool = False) -> list[MetricsRow]:
    """Run one algorithm to its stop rule and return per-round metrics.

    The trajectory is fully determined by the arguments: the master seed
    derives one stream for the initial point and one consumed by the rounds
    in a fixed order.  All agents start from the same point unless
    heterogeneous_x0 is set.  A queries stop rule that initialization alone
    meets raises ValueError, since no round would run.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    if topology.n_agents != spec.n_agents:
        raise ValueError("topology and objective disagree on the number of agents")

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
        state, step = init_vrgt(oracle, x0, schedule, rng, p, counting_mode), vrgt_step
    if stop.kind == "queries" and oracle.total_queries >= stop.limit:
        raise ValueError(f"{algorithm} initialization costs {oracle.total_queries} queries, "
                         f"which already meets the stop limit of {stop.limit}")

    rows: list[MetricsRow] = []
    while (state.k if stop.kind == "rounds" else oracle.total_queries) < stop.limit:
        step(state, w, schedule)
        rows.append(compute_metrics(state))
    return rows
