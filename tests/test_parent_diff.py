"""scripts/parent_diff.py's per-config comparison on one small config: two
copies of the checkout read identical, and a copy whose oracle charges one
extra query is a gated difference."""

import importlib.util
import shutil
from pathlib import Path

from dzo.harness import config_from_text

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("parent_diff", REPO / "scripts" / "parent_diff.py")
parent_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parent_diff)

SMALL = {**parent_diff.FIG, "topology.n": 8, "topology.prob": 0.5, "objective.dim": 5,
         "algorithm.name": "dgd2p", "stop.kind": "rounds", "stop.limit": 30}


def test_copies_are_identical_and_an_extra_query_is_a_gated_difference(tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(REPO / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "same").mkdir()
    assert parent_diff.compare("small", SMALL, REPO, copy, tmp_path / "same") == (
        0, "small: identical")

    oracle = copy / "src" / "dzo" / "oracle.py"
    text = oracle.read_text()
    assert text.count("self.total_queries = 0") == 1
    oracle.write_text(text.replace("self.total_queries = 0", "self.total_queries = 1"))
    (tmp_path / "extra").mkdir()
    code, line = parent_diff.compare("small", SMALL, REPO, copy, tmp_path / "extra")
    assert code == 1
    assert line.startswith("small: DIFFERS in m column; ")
    assert line.endswith("stat_gap 0, consensus_err 0, tracking_err 0")


def test_every_config_is_one_the_checkout_accepts():
    for name, cfg in parent_diff.CONFIGS.items():
        assert config_from_text(parent_diff.config_text(name, cfg)).out == f"{name}.csv"
