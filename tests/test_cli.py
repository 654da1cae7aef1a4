import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dzo
from dzo.algorithms import ALGORITHMS, STOP_KINDS
from dzo.cli import main
from dzo.estimators import COUNTING_MODES
from dzo.harness import X0_MODES, ExperimentConfig, config_from_text, config_to_text
from dzo.network import TopologyKind
from dzo.oracle import FAMILIES
from reference import read_csv

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


def test_run_subcommand_rejects_misspelled_key(tmp_path, capsys):
    cfg = ExperimentConfig(
        topology_kind="ring", topology_n=4, topology_seed=0,
        objective_kind="benchmark", objective_dim=5, objective_seed=2,
        algorithm="vrgt", step_size=0.05,
        stop_kind="rounds", stop_limit=3, seed=9, out="typo.csv",
    )
    ini = tmp_path / "exp.ini"
    ini.write_text(config_to_text(cfg).replace("counting_mode =", "counting_mod ="))
    assert main(["run", "--config", str(ini), "--out", str(tmp_path)]) == 2
    assert "unknown key 'counting_mod'" in capsys.readouterr().err
    assert not (tmp_path / "typo.csv").exists()


def test_compare_rejects_a_budget_spent_by_initialization(tmp_path, capsys):
    # fig1's vrgt and gt2d spend 2d = 128 queries per agent before round 1.
    assert main(["compare", "--suite", "fig1", "--budget", "1", "--out", str(tmp_path)]) == 2
    assert "vrgt initialization costs 6400 queries" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


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
    # The package root is the simulator; the analysis loads only when
    # dzo.theory is asked for, and no part of dzo loads scipy.
    out = run_python("-c", """
import sys, types, dzo
print([m for m in ("dzo.theory", "scipy.optimize") if m in sys.modules])
print(sorted(n for n, v in vars(dzo).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)))
print([dzo.algorithms.run is dzo.run, dzo.harness.__name__, dzo.network.__name__,
       dzo.oracle.__name__])
import dzo.cli
from dzo import theory
print([theory.__name__, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
""")
    assert out[0] == "[]"
    assert out[1] == str(sorted([
        "MetricsRow", "Schedule", "StopRule", "ZerothOrderOracle", "build_topology",
        "make_benchmark", "make_quadratic", "metropolis_weights", "mix", "run",
        "run_experiment"]))
    assert out[2] == "[True, 'dzo.harness', 'dzo.network', 'dzo.oracle']"
    assert out[3] == "['dzo.theory', []]"


def test_declared_dependencies_are_what_dzo_imports():
    # The runtime dependencies in pyproject.toml name exactly the third-party
    # packages src/dzo imports: none undeclared, none unused.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", dep).group(0) for dep in project["dependencies"]}
    imported = set()
    for path in (REPO / "src" / "dzo").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert declared == imported - set(sys.stdlib_module_names)


def test_readme_quick_start():
    readme = (REPO / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    scope = {}
    exec(code, scope)
    assert math.isfinite(scope["rows"][-1].stat_gap)


def test_readme_config_block():
    readme = (REPO / "README.md").read_text()
    text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert config_from_text(text) == ExperimentConfig(
        topology_kind="erdos_renyi", topology_n=50, topology_seed=0, topology_prob=0.2,
        objective_kind="benchmark", objective_dim=64, objective_seed=0,
        algorithm="vrgt", step_size=0.02, p=0.1, counting_mode="paper_faithful",
        u0=3.0, u_decay=0.75, step_decay=0.0, stop_kind="queries", stop_limit=2_500_000,
        seed=0, x0_scale=1.0, x0_mode="shared", out="run.csv",
    )


def test_readme_config_choices_match_their_owners():
    # Each "a | b | c" comment in the README's config block lists the values
    # its next key accepts; they must be the owners' lists, in order.
    readme = (REPO / "README.md").read_text()
    text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    documented, section, choices = {}, None, None
    for line in text.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif line.startswith(";"):
            found = re.search(r"\w+(?: \| \w+)+", line)
            choices = found.group(0).split(" | ") if found else None
        elif "=" in line and choices:
            documented[(section, line.split("=")[0].strip())] = choices
            choices = None
    assert documented == {
        ("topology", "kind"): list(TopologyKind),
        ("objective", "kind"): list(FAMILIES),
        ("algorithm", "name"): list(ALGORITHMS),
        ("algorithm", "counting_mode"): list(COUNTING_MODES),
        ("stop", "kind"): list(STOP_KINDS),
        ("run", "x0_mode"): list(X0_MODES),
    }


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
