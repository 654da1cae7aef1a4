"""Golden trajectories: short runs of every algorithm and both vrgt counting
modes, pinned as CSV fixtures in ``tests/data/``.

Each case is a ring of 8 agents on the 16-dimensional benchmark objective,
200 rounds.  ``k`` and ``m`` must match exactly: query counts per round are
part of the contract.  The three float columns are compared at ``RTOL``.

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
of ``W @ x0`` (4.9e-33 here), which another BLAS may sum differently; every
other value in the fixtures is above 1e-12.

Regenerate the fixtures, only when a trajectory change is intended, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dzo.harness import ExperimentConfig, read_csv, rows_to_csv, run_config

DATA = Path(__file__).parent / "data"
RTOL = 1e-6
ATOL = 1e-20

BASE = ExperimentConfig(
    topology_kind="ring", topology_n=8, topology_seed=0,
    objective_kind="benchmark", objective_dim=16, objective_seed=4,
    algorithm="vrgt", step_size=0.02, p=0.2,
    stop_kind="rounds", stop_limit=200, seed=17, x0_scale=0.25,
)
CASES = {
    "dgd2p": replace(BASE, algorithm="dgd2p"),
    "gt2d": replace(BASE, algorithm="gt2d"),
    "vrgt_paper_faithful": replace(BASE, counting_mode="paper_faithful"),
    "vrgt_cached": replace(BASE, counting_mode="cached"),
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
        if name == "dgd2p" and column == "tracking_err":
            assert a == b == [None] * len(b)
            continue
        np.testing.assert_allclose(a, b, rtol=RTOL, atol=ATOL, err_msg=f"{name} {column}")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for case, cfg in CASES.items():
        fixture_path(case).write_text(rows_to_csv(run_config(cfg)), newline="\n")
        print(fixture_path(case))
