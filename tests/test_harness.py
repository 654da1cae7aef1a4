import configparser
import io
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dzo.algorithms import ALGORITHMS, MetricsRow, RunState, compute_metrics
from dzo.cli import main
from dzo.harness import (
    CSV_HEADER,
    X0_MODES,
    ExperimentConfig,
    config_from_text,
    config_to_text,
    load_config,
    rows_to_csv,
    run_comparison,
    run_config,
    run_experiment,
    suite_configs,
    write_csv,
)
from dzo.estimators import COUNTING_MODES
from dzo.network import DisconnectedGraphError, TopologyKind
from dzo.oracle import FAMILIES, ZerothOrderOracle, make_benchmark
from reference import diagonal_quadratic, fit_decay_rate, read_csv


def tiny_config(**overrides):
    base = dict(
        topology_kind="ring", topology_n=4, topology_seed=0,
        objective_kind="benchmark", objective_dim=5, objective_seed=2,
        algorithm="vrgt", step_size=0.05, p=0.3,
        stop_kind="rounds", stop_limit=15, seed=9, out="tiny.csv",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def metrics_of(state):
    """compute_metrics on a stack of the one state."""
    s = None if state.s is None else state.s[None]
    [row] = compute_metrics(state.oracle.spec, state.x[None], s, [state.k],
                            [state.oracle.total_queries])
    return row


def make_state(x, s=None, spec=None):
    spec = spec or diagonal_quadratic(x.shape[0], x.shape[1])
    return RunState(k=3, x=x, oracle=ZerothOrderOracle(spec),
                    rng=np.random.default_rng(0), s=s)


def test_compute_metrics_consensus_and_stationarity():
    spec = diagonal_quadratic(2, 2)
    state = make_state(np.array([[1.0, 0.0], [-1.0, 0.0]]), spec=spec)
    row = metrics_of(state)
    assert row.consensus_err == pytest.approx(1.0, abs=1e-15)
    assert row.stat_gap == pytest.approx(0.0, abs=1e-15)  # mean is the minimizer
    assert row.tracking_err is None


def test_compute_metrics_zero_at_shared_stationary_point():
    spec = diagonal_quadratic(3, 2)
    state = make_state(np.zeros((3, 2)), spec=spec)
    row = metrics_of(state)
    assert row.stat_gap == 0.0 and row.consensus_err == 0.0


def test_compute_metrics_tracking_error():
    spec = diagonal_quadratic(2, 2)
    x = np.tile([0.5, -1.0], (2, 1))
    state = make_state(x, s=x.copy(), spec=spec)
    # the quadratic's global gradient at xbar equals xbar, so s_i = xbar tracks
    assert metrics_of(state).tracking_err == pytest.approx(0.0, abs=1e-15)


def test_compute_metrics_purity():
    spec = make_benchmark(3, 4, seed=1)
    state = make_state(np.random.default_rng(0).standard_normal((3, 4)), spec=spec)
    before = state.oracle.total_queries
    metrics_of(state)
    assert state.oracle.total_queries == before


def test_metrics_row_rejects_nonfinite():
    with pytest.raises(ValueError):
        MetricsRow(k=1, m=2, stat_gap=np.inf, consensus_err=0.0, tracking_err=None)


def without_keys(text, *keys):
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(tuple(f"{key} =" for key in keys)))


@pytest.mark.parametrize("overrides", [
    dict(topology_kind="erdos_renyi", topology_prob=0.25,
         step_size=0.017345439653429316, u0=2.9999999999999996),
    dict(algorithm="dgd2p"),
    dict(topology_kind="ring", topology_prob=None),
    dict(step_decay=0.5, x0_mode="heterogeneous", x0_scale=2.5, out="runs/b.csv"),
], ids=["erdos_renyi", "dgd2p", "ring_without_prob", "non_defaults"])
def test_config_text_round_trip(overrides):
    cfg = tiny_config(**overrides)
    text = config_to_text(cfg)
    again = config_from_text(text)
    assert config_to_text(again) == text
    assert ("prob =" in text) == (cfg.topology_prob is not None)
    if cfg.algorithm == "vrgt":
        assert again == cfg
    else:
        # p and counting_mode are vrgt-only: not written, read back as defaults
        assert without_keys(text, "p", "counting_mode") == text
        assert again == replace(cfg, p=0.1, counting_mode="paper_faithful")


def test_config_optional_keys_take_defaults():
    text = config_to_text(tiny_config(step_decay=0.5, x0_scale=2.5))
    defaults = tiny_config(p=0.1, step_decay=0.0, x0_scale=1.0, out="run.csv")
    assert config_from_text(without_keys(text, "p", "step_decay", "x0_scale", "out")) == defaults


def test_config_file_round_trip(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "exp.ini"
    path.write_text(config_to_text(cfg))
    assert load_config(path) == cfg


def test_config_rejects_garbage():
    for text in ("[topology]\nkind = ring\n", "kind = ring\n"):  # the second has no section
        with pytest.raises(ValueError, match="malformed experiment config"):
            config_from_text(text)
    for key in ("u0", "u_decay"):  # required although ExperimentConfig has defaults
        with pytest.raises(ValueError, match=f"malformed experiment config: '{key}'"):
            config_from_text(without_keys(config_to_text(tiny_config()), key))
    with pytest.raises(ValueError):
        tiny_config(algorithm="momentum")
    with pytest.raises(ValueError):
        tiny_config(stop_limit=0)
    with pytest.raises(ValueError):
        tiny_config(x0_mode="spread")


def test_config_rejects_unknown_keys():
    text = config_to_text(tiny_config())
    for right, wrong in (("counting_mode", "counting_mod"), ("x0_scale", "x0scale")):
        assert f"\n{right} = " in text
        misspelled = text.replace(f"\n{right} = ", f"\n{wrong} = ")
        with pytest.raises(ValueError, match=f"malformed experiment config: unknown key '{wrong}'"):
            config_from_text(misspelled)


@pytest.mark.parametrize("algorithm, lines, error", [
    ("dgd2p", "p = -3\ncounting_mode = bogus\n", "refresh probability"),
    ("dgd2p", "counting_mode = bogus\n", "counting_mode must be one of"),
    ("vrgt", "counting_mode = cahced\n", "counting_mode must be one of"),
], ids=["dgd2p_bad_p", "dgd2p_bad_mode", "vrgt_misspelled_mode"])
def test_config_rejects_bad_p_and_mode_for_every_algorithm(tmp_path, capsys, algorithm,
                                                           lines, error):
    # A value the sidecar would drop (dgd2p) or that fails only once run
    # (vrgt) is rejected when the config loads.
    text = config_to_text(tiny_config(algorithm=algorithm, out="bad.csv"))
    text = without_keys(text, "p", "counting_mode").replace("[schedule]", lines + "\n[schedule]")
    assert_rejected_at_load(text, error, tmp_path, capsys)


def assert_rejected_at_load(text, error, tmp_path, capsys):
    """The config text (out = bad.csv) fails to load with error, and `dzo run`
    on it exits 2 with that error before writing a CSV."""
    with pytest.raises(ValueError, match=re.escape(f"malformed experiment config: {error}")):
        config_from_text(text)
    ini = tmp_path / "exp.ini"
    ini.write_text(text)
    assert main(["run", "--config", str(ini), "--out", str(tmp_path)]) == 2
    assert error in capsys.readouterr().err
    assert not (tmp_path / "bad.csv").exists()


def with_values(text, values):
    """The config text with each (section, key) set to its value."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    for (section, key), value in values.items():
        parser[section][key] = value
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


@pytest.mark.parametrize("values, error", [
    ({("schedule", "u0"): "-1"}, "u0 must be finite and positive"),
    ({("schedule", "u0"): "inf"}, "u0 must be finite and positive"),
    ({("algorithm", "step_size"): "-1"}, "step_size must be finite and nonnegative"),
    ({("algorithm", "step_size"): "nan"}, "step_size must be finite and nonnegative"),
    ({("schedule", "u_decay"): "2"}, "u_decay must lie in (0, 1]"),
    ({("schedule", "step_decay"): "-1"}, "step_decay must be finite and nonnegative"),
    ({("topology", "n"): "1"}, "build_topology needs n >= 2"),
    ({("topology", "kind"): "erdos_renyi"}, "erdos_renyi needs prob in (0, 1]"),
    ({("topology", "prob"): "1.5"}, "only erdos_renyi takes a prob, got 1.5 for ring"),
    ({("objective", "dim"): "0"}, "objective dim must be at least 1"),
    ({("objective", "kind"): "cubic"}, "unknown objective kind 'cubic'"),
    ({("run", "x0_scale"): "nan"}, "x0_scale must be finite"),
    ({("run", "x0_scale"): "inf"}, "x0_scale must be finite"),
    ({("run", "seed"): "-1"}, "seed must be nonnegative"),
    ({("objective", "seed"): "-1"}, "objective_seed must be nonnegative"),
    ({("topology", "seed"): "-1"}, "topology_seed must be nonnegative"),
], ids=["u0_negative", "u0_inf", "step_size_negative", "step_size_nan", "u_decay_above_one",
        "step_decay_negative", "one_agent", "erdos_renyi_without_prob", "prob_on_ring",
        "dim_zero", "objective_kind_unknown", "x0_scale_nan", "x0_scale_inf", "seed_negative",
        "objective_seed_negative", "topology_seed_negative_on_ring"])
def test_config_rejects_out_of_range_values(tmp_path, capsys, values, error):
    # Each value used to load and fail only once the run built the schedule,
    # topology or objective, or (x0_scale, a ring's topology seed or prob) not
    # at all.
    text = with_values(config_to_text(tiny_config(out="bad.csv")), values)
    assert_rejected_at_load(text, error, tmp_path, capsys)


# Per field: values inside its bounds, then values outside them.  The
# topology's kind and prob are drawn as one pair: only erdos_renyi takes a prob.
_FIELD_VALUES = {
    ("topology_kind", "topology_prob"): (
        tuple((kind, 0.5 if kind == "erdos_renyi" else None) for kind in TopologyKind)
        + (("erdos_renyi", 1.0),),
        (("star", None), ("erdos_renyi", None), ("erdos_renyi", 0.0), ("erdos_renyi", 1.5),
         ("ring", 0.5), ("grid", 1.5))),
    "topology_n": ((2, 5), (1,)),
    "topology_seed": ((0, 7), (-1,)),
    "objective_kind": (tuple(FAMILIES), ("cubic",)),
    "objective_dim": ((1, 3), (0,)),
    "objective_seed": ((0, 7), (-1,)),
    "algorithm": (ALGORITHMS, ("adam",)),
    "step_size": ((0.0, 0.05), (-1.0, math.nan, math.inf)),
    "p": ((0.0, 0.5, 1.0), (-0.5, 1.5, math.nan)),
    "counting_mode": (COUNTING_MODES, ("cahced",)),
    "u0": ((0.5, 3.0), (-1.0, 0.0, math.nan, math.inf)),
    "u_decay": ((0.75, 1.0, 0.5), (0.0, 2.0, math.nan)),
    "step_decay": ((0.0, 0.5), (-1.0, math.nan)),
    "stop_limit": ((1, 3), (0,)),
    "seed": ((0, 7), (-1,)),
    "x0_scale": ((-1.0, 0.0, 0.5), (math.nan, math.inf)),
    "x0_mode": (X0_MODES, ("spread",)),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_config_that_loads_runs(data):
    # Most fields stay inside their bounds and up to three straddle them, so
    # many drawn configs construct.  Every one that does must run to finite
    # rows; only a graph sample can show that an Erdos-Renyi draw is
    # disconnected.
    straddling = data.draw(st.sets(st.sampled_from(sorted(_FIELD_VALUES, key=str)), max_size=3))
    fields = {}
    for name, (inside, outside) in _FIELD_VALUES.items():
        value = data.draw(st.sampled_from(inside + outside if name in straddling else inside),
                          label=str(name))
        fields.update(zip(name, value) if isinstance(name, tuple) else {name: value})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # u_decay <= 1/2 warns, and loads
        try:
            cfg = ExperimentConfig(stop_kind="rounds", **fields)
        except ValueError:
            assert straddling, "a config inside every bound was rejected"
            return
        try:
            rows = run_config(cfg)
        except DisconnectedGraphError:
            return
    assert len(rows) == cfg.stop_limit
    assert all(math.isfinite(v) for r in rows
               for v in (r.stat_gap, r.consensus_err, r.tracking_err or 0.0))


def test_config_with_percent_round_trips(tmp_path):
    cfg = tiny_config(out="runs/100%.csv")
    text = config_to_text(cfg)
    assert "out = runs/100%.csv\n" in text
    assert config_from_text(text) == cfg
    path = run_experiment(cfg, out_dir=tmp_path / "a")
    sidecar = path.with_suffix(".csv.config")
    assert path.name == "100%.csv" and sidecar.read_text() == text
    again = run_experiment(load_config(sidecar), out_dir=tmp_path / "b")
    assert again.read_bytes() == path.read_bytes()


def test_csv_schema_and_round_trip(tmp_path):
    rows = run_config(tiny_config())
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)
    assert text.endswith("\n") and "\r" not in text

    path = write_csv(rows, tmp_path / "out.csv")
    again = read_csv(path)
    assert again == rows  # 17 significant digits survive the round trip


def test_csv_empty_tracking_field_for_dgd2p(tmp_path):
    rows = run_config(tiny_config(algorithm="dgd2p", stop_limit=3))
    lines = rows_to_csv(rows).splitlines()
    assert all(line.endswith(",") for line in lines[1:])
    path = write_csv(rows, tmp_path / "dgd.csv")
    assert all(r.tracking_err is None for r in read_csv(path))


def test_run_experiment_replay_from_sidecar(tmp_path):
    cfg = tiny_config()
    first = run_experiment(cfg, out_dir=tmp_path / "a")
    sidecar = first.with_suffix(first.suffix + ".config")
    assert sidecar.exists()

    replay_cfg = load_config(sidecar)
    second = run_experiment(replay_cfg, out_dir=tmp_path / "b")
    assert first.read_bytes() == second.read_bytes()


def test_run_experiment_row_count(tmp_path):
    cfg = tiny_config(stop_kind="rounds", stop_limit=10, algorithm="gt2d")
    path = run_experiment(cfg, out_dir=tmp_path)
    assert len(read_csv(path)) == 10


def test_query_axis_matches_cost_model():
    n, d = 4, 5
    topo_rows = {
        "dgd2p": 2 * n,
        "gt2d": 2 * d * n,
    }
    for alg, per_round in topo_rows.items():
        rows = run_config(tiny_config(algorithm=alg, topology_n=n,
                                      objective_dim=d, stop_limit=6))
        init = 2 * d * n if alg == "gt2d" else 0
        assert [r.m for r in rows] == [init + per_round * (k + 1) for k in range(6)]


def _series(gaps):
    return [MetricsRow(k=i + 1, m=i + 1, stat_gap=float(g), consensus_err=0.0,
                       tracking_err=None) for i, g in enumerate(gaps)]


def test_fit_decay_rate_synthetic():
    assert abs(fit_decay_rate(_series(np.full(400, 2.5)))) < 1e-8
    with pytest.raises(ValueError):
        fit_decay_rate(_series(np.ones(20)))
    with pytest.warns(UserWarning):
        fit_decay_rate(_series(np.concatenate([[0.0], np.ones(100)])))


def test_fit_decay_rate_exact_inverse_series():
    # gaps (1, 0, 0, ...) make the running average exactly 1/k
    gaps = np.zeros(400)
    gaps[0] = 1.0
    with pytest.warns(UserWarning):
        slope = fit_decay_rate(_series(gaps))
    assert slope == pytest.approx(-1.0, abs=0.01)


def test_suite_configs():
    fig1 = suite_configs("fig1", seed=5, budget=1000)
    base = ExperimentConfig(
        topology_kind="erdos_renyi", topology_n=50, topology_seed=5, topology_prob=0.2,
        objective_kind="benchmark", objective_dim=64, objective_seed=5,
        algorithm="vrgt", step_size=0.02, p=0.1, counting_mode="paper_faithful",
        u0=3.0, u_decay=0.75, step_decay=0.0, stop_kind="queries", stop_limit=1000 * 50,
        seed=5, x0_scale=0.25, x0_mode="shared", out="fig1_vrgt.csv",
    )
    assert fig1 == [base,
                    replace(base, algorithm="dgd2p", out="fig1_dgd2p.csv"),
                    replace(base, algorithm="gt2d", out="fig1_gt2d.csv")]
    assert suite_configs("fig2", seed=5, budget=1000) == [
        replace(base, p=p, out=f"fig2_vrgt_p{p:g}.csv") for p in (0.2, 0.5, 0.8, 1.0)]
    assert suite_configs("fig3", seed=5, budget=1000) == [
        replace(base, objective_dim=d, p=p, out=f"fig3_vrgt_d{d}.csv")
        for d, p in ((30, 0.1), (100, 0.08), (200, 0.04), (300, 8 / 300))]

    with pytest.raises(ValueError):
        suite_configs("fig9", seed=0, budget=10)
    with pytest.raises(ValueError):
        suite_configs("fig1", seed=0, budget=0)


def test_run_comparison_small(tmp_path):
    from dataclasses import replace

    # shrink the suite topology through its config list to keep this fast
    paths = []
    for cfg in suite_configs("fig2", seed=1, budget=40):
        small = replace(cfg, topology_kind="ring", topology_prob=None,
                        topology_n=4, objective_dim=6, stop_limit=40 * 4)
        paths.append(run_experiment(small, out_dir=tmp_path))
    assert len(paths) == 4
    for p in paths:
        sidecar = p.with_suffix(p.suffix + ".config")
        assert sidecar.exists()
        assert "p = " in sidecar.read_text()


def test_run_comparison_api(tmp_path):
    # full-size topology but minuscule budget: exercises the public entry point
    paths = run_comparison("fig1", seed=0, budget=140, out_dir=tmp_path)
    assert [p.name for p in paths] == ["fig1_vrgt.csv", "fig1_dgd2p.csv", "fig1_gt2d.csv"]
    for p in paths:
        assert read_csv(p)
