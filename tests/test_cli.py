import math
import os
import re
import subprocess
import sys
from pathlib import Path

import dzo
from dzo.cli import main
from dzo.harness import ExperimentConfig, config_to_text, read_csv

REPO = Path(__file__).resolve().parent.parent


def run_python(*args):
    """Run a fresh interpreter on args with this checkout's dzo importable."""
    src = str(Path(dzo.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_verify_prints_table(capsys):
    assert main(["verify", "--sigma", "0.1,0.5", "--d", "16,64", "--p", "0.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("sigma,d,p,step_limit")
    assert len(out) == 1 + 4
    assert all(line.endswith("true") for line in out[1:])


def test_verify_reports_out_of_range_p(capsys):
    assert main(["verify", "--sigma", "0.0", "--d", "16", "--p", "0.01"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "nan" in out[1]


def test_run_subcommand(tmp_path, capsys):
    cfg = ExperimentConfig(
        topology_kind="ring", topology_n=4, topology_seed=0,
        objective_kind="benchmark", objective_dim=5, objective_seed=2,
        algorithm="dgd2p", step_size=0.05,
        stop_kind="rounds", stop_limit=8, seed=9, out="cli.csv",
    )
    path = tmp_path / "exp.ini"
    path.write_text(config_to_text(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    csv_path = tmp_path / "cli.csv"
    assert csv_path.exists()
    assert len(read_csv(csv_path)) == 8


def test_default_out_dir_env_var(tmp_path, monkeypatch):
    cfg = ExperimentConfig(
        topology_kind="ring", topology_n=4, topology_seed=0,
        objective_kind="quadratic", objective_dim=3, objective_seed=1,
        algorithm="gt2d", step_size=0.1,
        stop_kind="rounds", stop_limit=3, seed=0, out="env.csv",
    )
    ini = tmp_path / "exp.ini"
    ini.write_text(config_to_text(cfg))
    monkeypatch.setenv("DZO_OUT_DIR", str(tmp_path / "envout"))
    assert main(["run", "--config", str(ini)]) == 0
    assert (tmp_path / "envout" / "env.csv").exists()


def test_run_subcommand_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[topology]\nkind = ring\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_compare_subcommand(tmp_path, capsys):
    assert main(["compare", "--suite", "fig1", "--seed", "1", "--budget", "135",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    for line in out:
        rows = read_csv(line)
        assert rows and rows[-1].m >= 135 * 50


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "OK" in out


def test_replay_across_processes(tmp_path):
    # Sidecar replay must be byte-identical even from a fresh interpreter.
    cfg = ExperimentConfig(
        topology_kind="grid", topology_n=6, topology_seed=1,
        objective_kind="benchmark", objective_dim=4, objective_seed=3,
        algorithm="vrgt", step_size=0.05, p=0.4,
        stop_kind="rounds", stop_limit=25, seed=11, out="replay.csv",
    )
    ini = tmp_path / "exp.ini"
    ini.write_text(config_to_text(cfg))
    assert main(["run", "--config", str(ini), "--out", str(tmp_path / "a")]) == 0

    sidecar = tmp_path / "a" / "replay.csv.config"
    run_python("-m", "dzo", "run", "--config", str(sidecar), "--out", str(tmp_path / "b"))
    first = (tmp_path / "a" / "replay.csv").read_bytes()
    second = (tmp_path / "b" / "replay.csv").read_bytes()
    assert first == second


def test_import_dzo_leaves_theory_unloaded():
    # The package root is the simulator; the analysis and scipy.optimize
    # load only when dzo.theory is asked for.
    out = run_python("-c", """
import sys, types, dzo
print([m for m in ("dzo.theory", "scipy.optimize") if m in sys.modules])
print(sorted(n for n, v in vars(dzo).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)))
print([dzo.algorithms.run is dzo.run, dzo.harness.__name__, dzo.network.__name__,
       dzo.oracle.__name__])
from dzo import theory
print([theory.__name__, "scipy.optimize" in sys.modules])
""")
    assert out[0] == "[]"
    assert out[1] == str(sorted([
        "MetricsRow", "Schedule", "StopRule", "ZerothOrderOracle", "build_topology",
        "make_benchmark", "make_quadratic", "metropolis_weights", "mix", "run",
        "run_experiment"]))
    assert out[2] == "[True, 'dzo.harness', 'dzo.network', 'dzo.oracle']"
    assert out[3] == "['dzo.theory', True]"


def test_readme_quick_start():
    readme = (REPO / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    scope = {}
    exec(code, scope)
    assert math.isfinite(scope["rows"][-1].stat_gap)


def test_stepsize_tables_script():
    out = run_python(str(REPO / "scripts" / "stepsize_tables.py"))
    assert out[0].startswith("# smoothness estimate for the 50-agent benchmark: L = ")
    assert out[1] == "sigma,d,p,alpha_limit,alpha_limit_p_inv_d,norm_at_guarantee,practical_ratio"
    assert len(out) == 2 + 3 * 3 * 2


def test_reproduce_figs_script(tmp_path):
    out = run_python(str(REPO / "scripts" / "reproduce_figs.py"), "--suites", "fig1",
                     "--budget", "300", "--out", str(tmp_path))
    assert re.fullmatch(r"fig1: 3 runs in \d+\.\ds", out[0])
    assert len(out) == 4
    for line in out[1:]:
        assert read_csv(line.strip())[-1].m >= 300 * 50
