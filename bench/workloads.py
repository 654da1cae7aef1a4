"""The benchmark's workloads, each a list of experiment configs made from the
workload seed, plus the method properties its final rows must show.

* fig1 -- the headline suite exactly as ``dzo compare --suite fig1`` builds
  it: N=50, d=64, ER(0.2), vrgt (p=0.1), dgd2p and gt2d to a per-agent
  budget of 50,000.  Per-round fixed cost (mixing, metrics, Python
  overhead) dominates; dgd2p runs 25,000 rounds.
* highdim -- fig3's d=300 vrgt config (p=8/300) to the per-agent budget of
  100,000 that the d=300 acceptance criterion uses, plus gt2d for a fixed
  number of rounds.  The oracle's 2d-point coordinate sweep dominates.
* bignet -- N=1000 agents on ER(0.01) (about ten neighbours each) with the
  seeded random-SPD quadratic at d=16, dgd2p and vrgt (p=0.1,
  paper_faithful) for a fixed number of rounds.  The network layer
  (dense W @ X, Metropolis weights with their SVD) dominates.
"""

from __future__ import annotations

from dataclasses import replace

import checks

FIG1_BUDGET = 50_000
HIGHDIM_DIM = 300
HIGHDIM_BUDGET = 100_000
HIGHDIM_GT2D_ROUNDS = 40
HIGHDIM_GAP = 1e-6
BIGNET_AGENTS = 1000
BIGNET_PROB = 0.01
BIGNET_DIM = 16
BIGNET_STEP = 0.05
BIGNET_ROUNDS = 250
# Every agent's minimiser is 0, so the gap falls geometrically; at these
# settings it falls by 1e11 or more on every seed tried.
BIGNET_FALL = 1e6

# The config whose .config sidecar is replayed: the cheapest in the workload.
REPLAY = {"fig1": "gt2d", "highdim": "gt2d", "bignet": "dgd2p"}


def configs(workload: str, seed: int) -> list:
    """The workload's ExperimentConfigs; dzo must be importable."""
    from dzo.harness import ExperimentConfig, suite_configs

    if workload == "fig1":
        return suite_configs("fig1", seed, FIG1_BUDGET)
    if workload == "highdim":
        vrgt = [c for c in suite_configs("fig3", seed, HIGHDIM_BUDGET)
                if c.objective_dim == HIGHDIM_DIM][0]
        gt2d = replace(vrgt, algorithm="gt2d", stop_kind="rounds",
                       stop_limit=HIGHDIM_GT2D_ROUNDS, out="highdim_gt2d.csv")
        return [vrgt, gt2d]
    if workload == "bignet":
        base = ExperimentConfig(
            topology_kind="erdos_renyi", topology_n=BIGNET_AGENTS, topology_seed=seed,
            topology_prob=BIGNET_PROB, objective_kind="quadratic", objective_dim=BIGNET_DIM,
            objective_seed=seed, algorithm="dgd2p", step_size=BIGNET_STEP,
            stop_kind="rounds", stop_limit=BIGNET_ROUNDS, seed=seed)
        return [replace(base, out="bignet_dgd2p.csv"),
                replace(base, algorithm="vrgt", p=0.1, out="bignet_vrgt.csv")]
    raise ValueError(f"unknown workload {workload!r}")


def properties(workload: str, rows_by_alg: dict) -> dict[str, list[str]]:
    """Method properties of the final rows, as failures per algorithm."""
    if workload == "fig1":
        finals = {a: rows[-1].stat_gap for a, rows in rows_by_alg.items()}
        errors = checks.gap_order(finals, ["vrgt", "gt2d", "dgd2p"])
        return {a: errors for a in rows_by_alg}
    if workload == "highdim":
        return {"vrgt": checks.gap_below(rows_by_alg["vrgt"], HIGHDIM_GAP)}
    return {a: checks.gap_falls(rows, BIGNET_FALL) for a, rows in rows_by_alg.items()}
