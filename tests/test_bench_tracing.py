"""The benchmark's tracer (bench/spans.py) swaps attributes of dzo modules
for timing wrappers.  This checks that every name it wraps is still one the
program calls, so a renamed or bypassed function shows up here rather than
as a silently empty per-layer metric."""

from pathlib import Path

import pytest

import dzo
from dzo.algorithms import ALGORITHMS
from dzo.harness import ExperimentConfig, run_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_sees_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    originals = (dzo.oracle.ZerothOrderOracle.evaluate_rows, dzo.algorithms.vrgt_step,
                 dzo.algorithms.metropolis_weights, dzo.harness.build_topology)
    tracer = spans.Tracer()
    spans.install(tracer, dzo)
    try:
        finals = [run_config(ExperimentConfig(
            topology_kind="ring", topology_n=4, topology_seed=0,
            objective_kind="benchmark", objective_dim=5, objective_seed=1,
            algorithm=name, step_size=0.05, p=0.5,
            stop_kind="rounds", stop_limit=3, seed=2))[-1]
            for name in ALGORITHMS]
    finally:
        tracer.unpatch()
    _, _, calls = tracer.totals()
    for span in ("network.build_topology", "network.metropolis_weights", "algorithms.init",
                 *(f"algorithms.step.{name}" for name in ALGORITHMS),
                 "metrics.compute", "oracle.sweep", "oracle.pair"):
        assert calls[span] > 0, span
    # Each run's 3 rounds fit one stack of states: one metrics call per run.
    assert calls["metrics.compute"] == len(ALGORITHMS)
    assert tracer.counts["oracle.queries"] == sum(row.m for row in finals)
    assert (dzo.oracle.ZerothOrderOracle.evaluate_rows, dzo.algorithms.vrgt_step,
            dzo.algorithms.metropolis_weights, dzo.harness.build_topology) == originals


@pytest.mark.parametrize("p", [0.0, 0.5])
@pytest.mark.parametrize("counting_mode", ["paper_faithful", "cached"])
def test_tracer_counts_vrgt_queries_with_and_without_the_charged_pair(monkeypatch,
                                                                      counting_mode, p):
    # paper_faithful's snapshot pair is charged through evaluate_rows, so the
    # tracer counts it as a pair call; cached charges no pair at the snapshot.
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    n, d, rounds = 4, 5, 3
    tracer = spans.Tracer()
    spans.install(tracer, dzo)
    try:
        final = run_config(ExperimentConfig(
            topology_kind="ring", topology_n=n, topology_seed=0,
            objective_kind="benchmark", objective_dim=d, objective_seed=1,
            algorithm="vrgt", step_size=0.05, p=p, counting_mode=counting_mode,
            stop_kind="rounds", stop_limit=rounds, seed=2))[-1]
    finally:
        tracer.unpatch()
    _, _, calls = tracer.totals()
    pairs = 2 if counting_mode == "paper_faithful" else 1
    assert tracer.counts["oracle.queries"] == final.m
    assert calls["oracle.pair"] == pairs * rounds
    if p == 0.0:
        assert calls["oracle.sweep"] == 1
        assert final.m == 2 * d * n + 2 * pairs * n * rounds
