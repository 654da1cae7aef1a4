"""Generative differential test: ``run`` against a per-agent replay.

Hypothesis draws a topology, an objective, an algorithm, its refresh
policy, the step-size decay and the kind and scale of the start, runs a
few rounds through ``dzo.run`` and replays them one agent at a time:
Metropolis weights rebuilt from the edge list, mixing as an explicit sum
over each agent's neighbours, the estimators of ``per_agent_reference``
and the metrics from ``reference.analytic_grad``.  Both sides draw from
the same seed streams, in the order ``run`` does.

Round and query counts must be exact.  Each metric is a mean squared norm
of vectors that the two sides round differently, and the root of such a
mean moves by at most the root mean square of the vectors' differences.  So
the roots must agree to 1e-12 of the run's scale: the column's largest root
plus the largest entry of the iterates, trackers and gradient.  A bound
relative to each value, or to the column alone, fails where a metric sits
near rounding level (the consensus error of a shared start, the tracking
error once the trackers meet the gradient).
"""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dzo.algorithms import ALGORITHMS, Schedule, StopRule, run
from dzo.estimators import COUNTING_MODES
from dzo.network import TopologyKind, build_topology
from dzo.oracle import FAMILIES, ZerothOrderOracle
from per_agent_reference import SnapshotState, two_d_point, vr_ge
from reference import analytic_grad

RTOL = 1e-12
STEP_SIZE = 0.05
COLUMNS = ("stat_gap", "consensus_err", "tracking_err")
# Largest agent count drawn per kind: complete graphs stay small, and
# Erdos-Renyi graphs dense enough to be connected are never sparse enough
# for the neighbour list anyway.
MAX_N = {"ring": 100, "path": 100, "grid": 100, "complete": 12, "erdos_renyi": 30}


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(TopologyKind))
    return dict(
        kind=kind,
        n=draw(st.integers(2, MAX_N[kind])),
        prob=draw(st.floats(0.3, 1.0)) if kind == "erdos_renyi" else None,
        topology_seed=draw(st.integers(0, 2**16)),
        family=draw(st.sampled_from(sorted(FAMILIES))),
        d=draw(st.integers(1, 8)),
        objective_seed=draw(st.integers(0, 2**16)),
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        counting_mode=draw(st.sampled_from(COUNTING_MODES)),
        p=draw(st.floats(0.0, 1.0)),
        step_decay=draw(st.floats(0.0, 1.0)),
        heterogeneous_x0=draw(st.booleans()),
        # Off the finite-difference cancellation floor that a scale of 6e-5
        # reaches, and away from run's default of 1.
        x0_scale=draw(st.floats(0.1, 2.0)),
        seed=draw(st.integers(0, 2**16)),
        rounds=draw(st.integers(3, 5)),
    )


def neighbour_weights(topology):
    """Metropolis weights from the edge list: W_ij = 1 / (1 + max(deg_i, deg_j))
    on each edge, the rest of each row on its diagonal.  Row i maps j to W_ij."""
    n = topology.n_agents
    deg = [0] * n
    for i, j in topology.edges:
        deg[i] += 1
        deg[j] += 1
    rows = [{} for _ in range(n)]
    for i, j in topology.edges:
        rows[i][j] = rows[j][i] = 1.0 / (1 + max(deg[i], deg[j]))
    for i in range(n):
        rows[i][i] = 1.0 - sum(rows[i].values())
    return rows


def mix(rows, x):
    return np.array([sum(w * x[j] for j, w in row.items()) for row in rows])


def row_metrics(spec, x, s):
    """The round's metrics, and the largest entry of the vectors behind them."""
    n = len(x)
    xbar = sum(x) / n
    grad = sum(analytic_grad(spec, i, xbar) for i in range(n)) / n
    tracking, scale = None, max(np.abs(x).max(), np.abs(grad).max())
    if s is not None:
        tracking = sum((si - grad) @ (si - grad) for si in s) / n
        scale = max(scale, np.abs(s).max())
    return dict(stat_gap=grad @ grad,
                consensus_err=sum((xi - xbar) @ (xi - xbar) for xi in x) / n,
                tracking_err=tracking, scale=scale)


def replay(cfg, topology, spec, schedule):
    """The rounds of ``run`` one agent at a time: per-round metrics and the
    cumulative query count each round's closed form gives."""
    n, d, alg, mode = spec.n_agents, spec.dim, cfg["algorithm"], cfg["counting_mode"]
    weights = neighbour_weights(topology)
    oracle = ZerothOrderOracle(spec)
    ss_init, ss_rounds = np.random.SeedSequence(cfg["seed"]).spawn(2)
    rng_init = np.random.default_rng(ss_init)
    if cfg["heterogeneous_x0"]:
        x = cfg["x0_scale"] * rng_init.standard_normal((n, d))
    else:
        x = np.array([cfg["x0_scale"] * rng_init.standard_normal(d)] * n)
    rng = np.random.default_rng(ss_rounds)

    s = g_prev = None
    if alg == "gt2d":
        s = np.array([two_d_point(oracle, i, x[i], schedule.smoothing_at(0)).estimate
                      for i in range(n)])
        g_prev = s.copy()
    elif alg == "vrgt":
        snaps = [SnapshotState.capture(oracle, i, x[i], schedule.smoothing_at(0))
                 for i in range(n)]
        s, g_prev = np.zeros((n, d)), np.zeros((n, d))
    m = oracle.total_queries
    assert m == (0 if alg == "dgd2p" else 2 * d * n)

    out, ms = [], []
    for k in range(cfg["rounds"]):
        if alg == "dgd2p":
            u = schedule.smoothing_at(k)
            z = rng.standard_normal((n, d))
            g = np.zeros((n, d))
            for i in range(n):
                zi = z[i] / np.sqrt(z[i] @ z[i])
                fp, fm = oracle.evaluate_rows(np.array([i]), np.array([[x[i] + u * zi,
                                                                        x[i] - u * zi]]))[0]
                g[i] = d * ((fp - fm) / (2.0 * u)) * zi
            x = mix(weights, x - schedule.step_size_at(k) * g)
            m += 2 * n
        else:
            x = mix(weights, x - schedule.step_size_at(k) * s)
            u = schedule.smoothing_at(k + 1)
            if alg == "gt2d":
                g = np.array([two_d_point(oracle, i, x[i], u).estimate for i in range(n)])
                m += 2 * d * n
            else:
                l = rng.integers(0, d, size=n)
                hit = np.flatnonzero(rng.random(n) < cfg["p"])
                for i in hit:
                    snaps[i] = SnapshotState.capture(oracle, i, x[i], u)
                g = np.array([vr_ge(oracle, i, x[i], u, snaps[i], int(l[i]), mode)
                              for i in range(n)])
                m += (4 if mode == "paper_faithful" else 2) * n + 2 * d * len(hit)
            s = mix(weights, s + g - g_prev)
            g_prev = g
        assert oracle.total_queries == m
        out.append(row_metrics(spec, x, s))
        ms.append(m)
    return out, ms


@settings(max_examples=100, deadline=None)
@given(configs())
# The neighbour-list product, padded rows included: ring and path at
# N >= 60, grid at N = 100.
@example(dict(kind="ring", n=60, prob=None, topology_seed=0, family="benchmark", d=3,
              objective_seed=1, algorithm="gt2d", counting_mode="cached", p=0.5,
              step_decay=0.0, heterogeneous_x0=True, x0_scale=0.5, seed=2, rounds=3))
@example(dict(kind="path", n=61, prob=None, topology_seed=0, family="quadratic", d=4,
              objective_seed=2, algorithm="vrgt", counting_mode="paper_faithful", p=0.3,
              step_decay=0.0, heterogeneous_x0=True, x0_scale=1.5, seed=3, rounds=3))
@example(dict(kind="grid", n=100, prob=None, topology_seed=0, family="linear", d=2,
              objective_seed=3, algorithm="dgd2p", counting_mode="paper_faithful", p=0.1,
              step_decay=0.5, heterogeneous_x0=True, x0_scale=0.25, seed=4, rounds=3))
def test_run_matches_per_agent_replay(cfg):
    topology = build_topology(cfg["kind"], cfg["n"], seed=cfg["topology_seed"],
                              prob=cfg["prob"])
    spec = FAMILIES[cfg["family"]](cfg["n"], cfg["d"], seed=cfg["objective_seed"])
    schedule = Schedule(step_size=STEP_SIZE, step_decay=cfg["step_decay"])

    def run_in(mode):
        return run(cfg["algorithm"], topology, spec, schedule, StopRule("rounds", cfg["rounds"]),
                   seed=cfg["seed"], p=cfg["p"], counting_mode=mode,
                   x0_scale=cfg["x0_scale"], heterogeneous_x0=cfg["heterogeneous_x0"])

    got = run_in(cfg["counting_mode"])
    ref, ms = replay(cfg, topology, spec, schedule)
    assert [r.k for r in got] == list(range(1, cfg["rounds"] + 1))
    assert [r.m for r in got] == ms
    scale = max(row["scale"] for row in ref)
    for col in COLUMNS:
        a, b = [getattr(r, col) for r in got], [row[col] for row in ref]
        if b[0] is None:
            assert a == b
            continue
        a, b = np.sqrt(a), np.sqrt(b)
        assert np.all(np.abs(a - b) <= RTOL * (b.max() + scale)), (col, a, b)

    if cfg["algorithm"] == "vrgt":
        # The two counting modes charge differently but compute the same bits.
        other = run_in(next(c for c in COUNTING_MODES if c != cfg["counting_mode"]))
        assert [replace(r, m=0) for r in other] == [replace(r, m=0) for r in got]
