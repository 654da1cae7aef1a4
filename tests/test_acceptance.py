"""Acceptance suite: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The comparison budgets are per-agent sampling numbers, matching the query
axis the comparison suites share.
"""

import numpy as np
import pytest

import dzo
from dzo.algorithms import Schedule, StopRule, init_gt2d, init_vrgt, gt2d_step, vrgt_step
from dzo.estimators import SnapshotBlock, coord_pair, sweep, vr_estimate
from dzo.harness import run_experiment, suite_configs, run_config
from dzo.oracle import ZerothOrderOracle, make_benchmark
from dzo.theory import certify_contraction, contraction_step_limit, estimator_variance_limit
from reference import analytic_grad, fit_decay_rate


ROW = np.array([0])   # the criteria use single-agent oracles: one row, agent 0


def _vr(oracle, snap, x, u, l):
    return vr_estimate(oracle, snap, x[None], u, np.array([l]), "paper_faithful")[0]


def _full_sweep(oracle, x, u):
    return sweep(oracle, ROW, x[None], u)[0]


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {name} ({detail})"


def test_criterion_01_vr_ge_unbiasedness():
    d = 8
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(100):
        spec = make_benchmark(1, d, seed=trial)
        oracle = ZerothOrderOracle(spec)
        x = rng.standard_normal(d)
        xt = rng.standard_normal(d)
        ut = rng.uniform(0.02, 0.2)
        u = ut * rng.uniform(0.1, 1.0)
        snap = SnapshotBlock(oracle, xt[None], ut)
        avg = np.mean([_vr(oracle, snap, x, u, l) for l in range(d)], axis=0)
        full = _full_sweep(oracle, x, u)
        worst = max(worst, np.linalg.norm(avg - full) / np.linalg.norm(full))
    _verdict(1, "variance-reduced estimate is conditionally unbiased",
             worst < 1e-10, f"max rel err {worst:.2e}")


def test_criterion_02_coordinate_full_sweep_identity():
    d = 8
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(100):
        spec = make_benchmark(1, d, seed=1000 + trial)
        oracle = ZerothOrderOracle(spec)
        x = rng.standard_normal(d)
        u = rng.uniform(1e-3, 0.5)
        terms = np.zeros((d, d))
        for l in range(d):
            terms[l, l] = d * coord_pair(oracle, ROW, x[None], u, np.array([l]))[0]
        avg = np.mean(terms, axis=0)
        full = _full_sweep(oracle, x, u)
        worst = max(worst, np.max(np.abs(avg - full)) / max(1.0, np.abs(full).max()))
    _verdict(2, "coordinate estimates average to the full sweep",
             worst <= 1e-12, f"max err {worst:.2e}")


def test_criterion_03_full_sweep_error_bound():
    rng = np.random.default_rng(303)
    worst_margin = np.inf
    ok = True
    for d in (8, 64):
        spec = make_benchmark(1, d, seed=d)
        lhat = spec.smoothness()
        oracle = ZerothOrderOracle(spec)
        for u in (1e-2, 1e-4):
            bound = 0.5 * u * lhat * np.sqrt(d)
            for _ in range(50):
                x = rng.standard_normal(d)
                err = np.linalg.norm(_full_sweep(oracle, x, u) - analytic_grad(spec, 0, x))
                ok &= err <= bound
                worst_margin = min(worst_margin, bound - err)
    _verdict(3, "full sweep within half u L sqrt(d) of the gradient",
             ok, f"worst margin {worst_margin:.2e}")


def test_criterion_04_variance_envelope():
    d = 8
    rng = np.random.default_rng(404)
    ok = True
    worst_ratio = 0.0
    for trial in range(50):
        spec = make_benchmark(1, d, seed=2000 + trial)
        lhat = spec.smoothness()
        oracle = ZerothOrderOracle(spec)
        x = rng.standard_normal(d)
        xt = rng.standard_normal(d)
        ut = rng.uniform(0.02, 0.25)
        u = ut * rng.uniform(0.1, 1.0)
        snap = SnapshotBlock(oracle, xt[None], ut)
        grad = analytic_grad(spec, 0, x)
        mse = np.mean([np.sum((_vr(oracle, snap, x, u, l) - grad) ** 2) for l in range(d)])
        for y in (xt, (x + xt) / 2.0):
            limit = estimator_variance_limit(d, lhat, float(np.linalg.norm(x - y)),
                                             float(np.linalg.norm(xt - y)), ut)
            ok &= mse <= limit
            worst_ratio = max(worst_ratio, mse / limit)
    _verdict(4, "brute-force estimator variance under the envelope",
             ok, f"worst ratio {worst_ratio:.3f}")


def test_criterion_05_tracking_identity():
    n, d, rounds = 10, 16, 200
    topo = dzo.build_topology("ring", n)
    w = dzo.metropolis_weights(topo)
    spec = make_benchmark(n, d, seed=55)
    sch = Schedule(step_size=0.02)
    x0 = np.tile(0.25 * np.random.default_rng(5).standard_normal(d), (n, 1))
    worst = 0.0
    for alg in ("vrgt", "gt2d"):
        oracle = ZerothOrderOracle(spec)
        rng = np.random.default_rng(56)
        if alg == "vrgt":
            state, step = init_vrgt(oracle, x0, sch, rng, p=0.1), vrgt_step
        else:
            state, step = init_gt2d(oracle, x0, sch, rng), gt2d_step
        for _ in range(rounds):
            step(state, w, sch)
            dev = float(np.linalg.norm(state.s.mean(axis=0) - state.g_prev.mean(axis=0)))
            worst = max(worst, dev)
    _verdict(5, "tracker mean equals estimate mean every round",
             worst < 1e-9, f"worst deviation {worst:.2e}")


def test_criterion_06_query_accounting(refreshed):
    n, d, rounds, p = 4, 64, 10_000, 0.1
    topo = dzo.build_topology("complete", n)
    w = dzo.metropolis_weights(topo)
    spec = make_benchmark(n, d, seed=0)
    sch = Schedule(step_size=0.02)
    oracle = ZerothOrderOracle(spec)
    x0 = np.tile(0.25 * np.random.default_rng(9).standard_normal(d), (n, 1))
    state = init_vrgt(oracle, x0, sch, np.random.default_rng(123), p=p,
                      counting_mode="paper_faithful")
    for _ in range(rounds):
        vrgt_step(state, w, sch)
    refreshes = sum(refreshed)
    per_agent_round = oracle.total_queries / (n * rounds)
    target = 4 + 2 * d * p
    closed_form = oracle.total_queries == 2 * d * n + 4 * n * rounds + 2 * d * refreshes
    _verdict(6, "expected 4 + 2dp fresh queries per construction",
             abs(per_agent_round - target) <= 0.05 * target and closed_form,
             f"measured {per_agent_round:.4f} vs {target}")


def test_criterion_07_contraction_certificate_grid():
    worst = 0.0
    ok = True
    for sigma in (0.1, 0.3, 0.5, 0.7, 0.9):
        for d in (3, 16, 64, 256):
            cert = certify_contraction(sigma, d, contraction_step_limit(sigma, d))
            ok &= cert.satisfied
            worst = max(worst, cert.weighted_norm - cert.bound)
    _verdict(7, "weighted norm within the contraction level on the grid",
             ok, f"max excess {worst:.2e}")


@pytest.mark.slow
def test_criterion_08_comparison_ordering():
    finals = {}
    for cfg in suite_configs("fig1", seed=0, budget=50_000):
        rows = run_config(cfg)
        finals[cfg.algorithm] = rows[-1].stat_gap
    ok = finals["vrgt"] < finals["gt2d"] < finals["dgd2p"]
    _verdict(8, "variance-reduced tracking wins at a shared budget", ok,
             ", ".join(f"{a}={v:.2e}" for a, v in finals.items()))


@pytest.mark.slow
def test_criterion_09_high_dimension_accuracy():
    cfg = [c for c in suite_configs("fig3", seed=0, budget=100_000)
           if c.objective_dim == 300][0]
    rows = run_config(cfg)
    final = rows[-1].stat_gap
    _verdict(9, "stationarity gap below 1e-6 at dimension 300",
             final < 1e-6, f"final gap {final:.2e} with p={cfg.p:.4f}")


@pytest.mark.slow
def test_criterion_10_sublinear_decay():
    topo = dzo.build_topology("ring", 10)
    spec = make_benchmark(10, 16, seed=11)
    rows = dzo.run("vrgt", topo, spec, Schedule(step_size=0.02),
                   StopRule("rounds", 2000), seed=3, p=0.1, x0_scale=0.25)
    slope = fit_decay_rate(rows)
    _verdict(10, "running-average stationarity gap decays sublinearly",
             slope <= -0.8, f"fitted slope {slope:.3f}")


def test_criterion_11_determinism(tmp_path):
    cfg = suite_configs("fig2", seed=7, budget=1)[0]
    from dataclasses import replace
    cfg = replace(cfg, topology_kind="ring", topology_prob=None, topology_n=6,
                  objective_dim=8, stop_kind="rounds", stop_limit=40,
                  out="det.csv")
    a = run_experiment(cfg, out_dir=tmp_path / "a")
    b = run_experiment(cfg, out_dir=tmp_path / "b")
    identical = a.read_bytes() == b.read_bytes()
    _verdict(11, "identical configs give byte-identical CSVs",
             identical, f"{a.stat().st_size} bytes compared")
