"""Golden trajectories: short runs of every algorithm and both vrgt counting
modes, pinned as CSV fixtures in ``tests/data/``.

Four cases are a ring of 8 agents on the 16-dimensional benchmark objective,
200 rounds, which mixes through the dense product.  Two more are the bignet
benchmark workload cut to 30 rounds: ER(0.01) with 1000 agents, which mixes
through the neighbour list, on the seeded 16-dimensional quadratic, with
dgd2p and vrgt (``paper_faithful``, p = 0.1).  ``k`` and ``m`` must match
exactly: query counts per round are part of the contract.  The three float
columns are compared at ``RTOL``.

Why ``RTOL = 1e-6``: byte-identical replay only holds for the same numpy and
BLAS build (another build may sum a matrix product in another order), and a
refactor that evaluates the same stencil through rank-1 updates instead of
materialized points moves each oracle value by about 1e-12 relative.
Multiplying every oracle value by an independent (1 + 1e-12 * N(0, 1))
factor moved these trajectories by at most 1.2e-7 relative over 200 rounds
in five draws.  The perturbation changes no random draw, so the runs stay
paired; the largest moves are in ``consensus_err`` and ``tracking_err``
late in the run, which are small differences of nearly equal terms.
1e-6 leaves ~8x headroom over that, while a change to any estimator
formula, schedule or mixing step moves the columns far more.  ``ATOL`` only
covers the round-1 ``consensus_err`` of a shared start, the rounding residue
of ``W @ x0`` (4.9e-33 on the ring, 1.8e-27 on bignet vrgt), which another
BLAS may sum differently; every other value in the fixtures is above 1e-12.

Regenerate fixtures, only when a trajectory change is intended, with
``PYTHONPATH=src python tests/test_golden.py [case ...]``; with no case
named it rewrites all of them.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dzo.harness import ExperimentConfig, config_to_text, rows_to_csv, run_config, suite_configs
from reference import read_csv

DATA = Path(__file__).parent / "data"
RTOL = 1e-6
ATOL = 1e-20

BASE = ExperimentConfig(
    topology_kind="ring", topology_n=8, topology_seed=0,
    objective_kind="benchmark", objective_dim=16, objective_seed=4,
    algorithm="vrgt", step_size=0.02, p=0.2,
    stop_kind="rounds", stop_limit=200, seed=17, x0_scale=0.25,
)
BIGNET = ExperimentConfig(
    topology_kind="erdos_renyi", topology_n=1000, topology_seed=3, topology_prob=0.01,
    objective_kind="quadratic", objective_dim=16, objective_seed=3,
    algorithm="dgd2p", step_size=0.05,
    stop_kind="rounds", stop_limit=30, seed=3,
)
CASES = {
    "dgd2p": replace(BASE, algorithm="dgd2p"),
    "gt2d": replace(BASE, algorithm="gt2d"),
    "vrgt_paper_faithful": replace(BASE, counting_mode="paper_faithful"),
    "vrgt_cached": replace(BASE, counting_mode="cached"),
    "bignet_dgd2p": BIGNET,
    "bignet_vrgt_paper_faithful": replace(BIGNET, algorithm="vrgt", p=0.1),
}


def fixture_path(name: str) -> Path:
    return DATA / f"golden_{name}.csv"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trajectory(name):
    want = read_csv(fixture_path(name))
    got = run_config(CASES[name])
    assert [(r.k, r.m) for r in got] == [(r.k, r.m) for r in want]
    for column in ("stat_gap", "consensus_err", "tracking_err"):
        a = [getattr(r, column) for r in got]
        b = [getattr(r, column) for r in want]
        if CASES[name].algorithm == "dgd2p" and column == "tracking_err":
            assert a == b == [None] * len(b)
            continue
        np.testing.assert_allclose(a, b, rtol=RTOL, atol=ATOL, err_msg=f"{name} {column}")


# Configs with N*d >= 10^4, where a BLAS sum over every agent's entries would
# be split across threads: bignet's two, and fig3's d=300 vrgt cut to 5 rounds.
THREAD_CASES = {
    "bignet_dgd2p": CASES["bignet_dgd2p"],
    "bignet_vrgt_paper_faithful": CASES["bignet_vrgt_paper_faithful"],
    "fig3_vrgt_d300": replace(suite_configs("fig3", 3, 3000)[-1],
                              stop_kind="rounds", stop_limit=5),
}
RUN_CONFIGS = ("import sys\n"
               "from dzo.harness import load_config, rows_to_csv, run_config\n"
               "for path in sys.argv[1:]:\n"
               "    sys.stdout.write(rows_to_csv(run_config(load_config(path))))\n")


def test_replay_does_not_depend_on_blas_threads(tmp_path):
    # Each thread count needs a fresh interpreter: BLAS reads it at load.
    paths = []
    for name, cfg in THREAD_CASES.items():
        paths.append(tmp_path / f"{name}.ini")
        paths[-1].write_text(config_to_text(cfg))
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", RUN_CONFIGS, *map(str, paths)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        out[threads] = proc.stdout
    assert out["1"] == out["2"]


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for case in sys.argv[1:] or CASES:
        fixture_path(case).write_text(rows_to_csv(run_config(CASES[case])), newline="\n")
        print(fixture_path(case))
