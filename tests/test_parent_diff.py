"""scripts/parent_diff.py's per-config comparison on one small config: two
copies of the checkout read identical, and a copy whose oracle charges one
extra query is a gated difference.  Float moves are relative only above
tests/test_golden.py's ATOL."""

import importlib.util
import math
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


def test_moves_are_relative_only_above_the_golden_atol():
    # Round 1's consensus_err from a shared start is W x0's rounding residue;
    # a change there reads as a tiny-field count, not a relative move.
    base = ["1.8e-27", "0.5", "0.0010000000000000000", "3.0"]
    head = ["3.1e-27", "0.5", "0.0010000000000000002", "3.0"]
    move, tiny = parent_diff.largest_move(base, head)
    assert tiny == 1
    assert 1e-16 < move < 1e-15
    assert parent_diff.largest_move(["1e-20", "2"], ["-1e-20", "2"]) == (0.0, 1)
    assert parent_diff.largest_move(["1e-20", "2"], ["2e-20", "2"]) == (0.5, 0)
    assert parent_diff.largest_move(["1.0", ""], ["1.0", "0.5"])[0] == math.inf
    assert parent_diff.describe_move("consensus_err", base, head) == (
        f"consensus_err {move:.3g} (1 only at or below 1e-20)")
    assert parent_diff.describe_move("stat_gap", base, base) == "stat_gap 0"
