"""Each benchmark check accepts a correct input and rejects a deliberately
corrupted one.  Run with:  python3 -m pytest -q bench/test_checks.py
"""

import sys
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dzo  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

Row = namedtuple("Row", "k m stat_gap consensus_err tracking_err")
N, D = 5, 3


def rows_from(alg, increments, gaps=None):
    m = checks.sweep_init(alg, N, D)
    rows = []
    for k, inc in enumerate(increments, start=1):
        m += inc
        gap = 1.0 / k if gaps is None else gaps[k - 1]
        rows.append(Row(k, m, gap, 0.5, None if alg == "dgd2p" else 0.25))
    return rows


def vrgt_increments(refreshes):
    return [4 * N + 2 * D * r for r in refreshes]


@pytest.mark.parametrize("alg, incs", [
    ("dgd2p", [2 * N] * 6),
    ("gt2d", [2 * D * N] * 6),
    ("vrgt", vrgt_increments([0, 1, 5, 2, 0, 3])),
])
def test_query_accounting_rejects_one_missing_query(alg, incs):
    rows = rows_from(alg, incs)
    assert checks.query_accounting(alg, rows, N, D) == []
    short = rows[:3] + [r._replace(m=r.m - 1) for r in rows[3:]]
    assert checks.query_accounting(alg, short, N, D)


def test_query_accounting_rejects_vrgt_refreshing_more_than_every_agent():
    rows = rows_from("vrgt", vrgt_increments([1, N + 1]))
    assert checks.query_accounting("vrgt", rows, N, D)


def test_query_accounting_rejects_a_missing_initial_sweep():
    rows = rows_from("gt2d", [2 * D * N] * 3)
    assert checks.query_accounting("gt2d", [r._replace(m=r.m - 2 * D * N) for r in rows], N, D)


def test_refresh_rate():
    refreshes = [1, 0, 1, 0] * 50          # fraction 0.1 over N=5 agents
    assert checks.vrgt_refreshes(rows_from("vrgt", vrgt_increments(refreshes)), N, D) == refreshes
    assert checks.refresh_rate(refreshes, N, 0.1) == []
    assert checks.refresh_rate([2 * r for r in refreshes], N, 0.1)
    assert checks.refresh_rate([0] * 200, N, 0.1)


def test_stop_rule():
    rows = rows_from("dgd2p", [2 * N] * 10)          # m = 10, 20, ..., 100
    assert checks.stop_rule(rows, "queries", 95, 0) == []
    assert checks.stop_rule(rows, "queries", 100, 0) == []
    assert checks.stop_rule(rows[:-1], "queries", 95, 0)     # stopped early
    assert checks.stop_rule(rows, "queries", 90, 0)          # one round too many
    assert checks.stop_rule(rows, "rounds", 10, 0) == []
    assert checks.stop_rule(rows, "rounds", 11, 0)


def test_row_shape():
    rows = rows_from("gt2d", [2 * D * N] * 4)
    assert checks.row_shape("gt2d", rows) == []
    assert checks.row_shape("gt2d", rows[:1] + rows[2:])
    assert checks.row_shape("gt2d", rows[:2] + [rows[2]._replace(stat_gap=float("nan"))])
    assert checks.row_shape("gt2d", [rows[0]._replace(tracking_err=None)])
    assert checks.row_shape("dgd2p", rows)


@pytest.mark.parametrize("spec, field", [
    (dzo.make_benchmark(4, 6, seed=1), "zeta"),
    (dzo.make_benchmark(4, 6, seed=1), "alpha"),
    (dzo.make_quadratic(4, 6, seed=2), "quad"),
])
def test_objective_values_reject_a_perturbed_parameter(spec, field):
    rng = np.random.default_rng(0)
    agents = np.arange(4)
    points = rng.standard_normal((4, 3, 6))
    values = dzo.ZerothOrderOracle(spec).evaluate_rows(agents, points)
    flat = (np.repeat(agents, 3), points.reshape(-1, 6), values.ravel())
    assert checks.objective_values(spec, *flat) == []
    arr = np.array(getattr(spec, field))
    arr[0] *= 1.0 + 1e-9
    bad = replace(spec, **{field: arr})
    assert checks.objective_values(bad, *flat)


def test_mixing_matrix_rejects_an_entry_off_by_1e_9():
    topo = dzo.build_topology("erdos_renyi", 12, seed=3, prob=0.4)
    w = dzo.metropolis_weights(topo)
    assert checks.mixing_matrix(12, topo.edges, w.w, w.sigma) == []
    i, j = sorted(topo.edges)[0]
    bad = w.w.copy()
    bad[i, j] += 1e-9
    assert checks.mixing_matrix(12, topo.edges, bad, w.sigma)
    assert checks.mixing_matrix(12, topo.edges, w.w, w.sigma + 1e-8)


def test_method_properties():
    assert checks.gap_order({"a": 1.0, "b": 2.0, "c": 3.0}, ["a", "b", "c"]) == []
    assert checks.gap_order({"a": 1.0, "b": 4.0, "c": 3.0}, ["a", "b", "c"])
    rows = rows_from("dgd2p", [2 * N] * 3, gaps=[1.0, 1e-3, 1e-8])
    assert checks.gap_below(rows, 1e-6) == []
    assert checks.gap_below(rows[:2], 1e-6)
    assert checks.gap_falls(rows, 1e6) == []
    assert checks.gap_falls(rows, 1e9)


def test_csv_matches_rejects_a_changed_digit(tmp_path):
    rows = [Row(1, 10, 0.1 + 0.2, 1 / 3, 2 / 3), Row(2, 20, 1e-300, 5e-324, 7.0)]
    path = dzo.harness.write_csv(rows, tmp_path / "a.csv")
    assert checks.csv_matches(path, rows) == []
    text = path.read_text()
    path.write_text(text.replace("0.30000000000000004", "0.30000000000000009"))
    assert checks.csv_matches(path, rows)
    path.write_text(text)
    assert checks.csv_matches(path, [rows[0], rows[1]._replace(tracking_err=None)])
    assert checks.csv_matches(path, rows[:1])


def test_workload_configs_match_their_description():
    fig1 = workloads.configs("fig1", 5)
    assert [c.algorithm for c in fig1] == ["vrgt", "dgd2p", "gt2d"]
    assert {(c.topology_n, c.objective_dim, c.stop_limit) for c in fig1} == {(50, 64, 50 * 50_000)}
    vrgt, gt2d = workloads.configs("highdim", 5)
    assert (vrgt.objective_dim, vrgt.p, vrgt.stop_limit) == (300, 8 / 300, 50 * 100_000)
    assert (gt2d.algorithm, gt2d.stop_kind) == ("gt2d", "rounds")
    big = workloads.configs("bignet", 5)
    assert [(c.algorithm, c.topology_n, c.objective_kind, c.counting_mode) for c in big] == [
        ("dgd2p", 1000, "quadratic", "paper_faithful"), ("vrgt", 1000, "quadratic", "paper_faithful")]
