#!/usr/bin/env python3
"""Run a fixed set of experiment configs in two source trees and compare
their CSVs and .config sidecars.

    python3 scripts/parent_diff.py BASE HEAD

BASE and HEAD are checkouts, say the parent commit and a change.  Each run
is a fresh interpreter running ``dzo run`` from ``<tree>/src``, with BLAS on
one thread.  The set, all at seed 3 (17 runs, about 13 s per tree on 2
vCPUs):

    fig1     vrgt, dgd2p, gt2d to a per-agent budget of 50,000, and vrgt cached
    fig2     vrgt at p = 0.2 / 0.5 / 0.8 / 1.0 to 20,000
    fig3     vrgt at d = 30 / 100 / 200 / 300, cut to 300 rounds
    highdim  fig3's d=300 vrgt to 100,000, and gt2d for 40 rounds
    bignet   N=1000 quadratic, d=16: dgd2p, vrgt and vrgt cached, 250 rounds

For each run it prints ``identical`` when both CSVs and both sidecars are
byte-identical, or else what differs and the largest relative move of each
float column.  The exit status is 1 when a run fails in either tree or its
k or m column or its sidecar differs, since query counts are the contract;
float moves are reported and not gated, as the golden trajectories gate
them.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 3
FIG = {"topology.kind": "erdos_renyi", "topology.n": 50, "topology.seed": SEED,
       "topology.prob": 0.2, "objective.kind": "benchmark", "objective.dim": 64,
       "objective.seed": SEED, "algorithm.name": "vrgt", "algorithm.step_size": 0.02,
       "algorithm.p": 0.1, "schedule.u0": 3.0, "schedule.u_decay": 0.75,
       "stop.kind": "queries", "stop.limit": 50_000 * 50, "run.seed": SEED,
       "run.x0_scale": 0.25}
HIGHDIM = {**FIG, "objective.dim": 300, "algorithm.p": 8 / 300, "stop.limit": 100_000 * 50}
BIGNET = {**FIG, "topology.n": 1000, "topology.prob": 0.01, "objective.kind": "quadratic",
          "objective.dim": 16, "algorithm.name": "dgd2p", "algorithm.step_size": 0.05,
          "stop.kind": "rounds", "stop.limit": 250, "run.x0_scale": 1.0}
CONFIGS = {
    **{f"fig1_{name}": {**FIG, "algorithm.name": name} for name in ("vrgt", "dgd2p", "gt2d")},
    "fig1_vrgt_cached": {**FIG, "algorithm.counting_mode": "cached"},
    **{f"fig2_vrgt_p{p:g}": {**FIG, "algorithm.p": p, "stop.limit": 20_000 * 50}
       for p in (0.2, 0.5, 0.8, 1.0)},
    **{f"fig3_vrgt_d{d}": {**FIG, "objective.dim": d, "algorithm.p": min(0.1, 8 / d),
                           "stop.kind": "rounds", "stop.limit": 300}
       for d in (30, 100, 200, 300)},
    "highdim_vrgt": HIGHDIM,
    "highdim_gt2d": {**HIGHDIM, "algorithm.name": "gt2d", "stop.kind": "rounds",
                     "stop.limit": 40},
    "bignet_dgd2p": BIGNET,
    "bignet_vrgt": {**BIGNET, "algorithm.name": "vrgt"},
    "bignet_vrgt_cached": {**BIGNET, "algorithm.name": "vrgt",
                           "algorithm.counting_mode": "cached"},
}
GATED = ("k", "m")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The child checks that dzo came from the tree under test, not from an install.
CHILD = ("import sys; from pathlib import Path; import dzo.cli; "
         "sys.exit(dzo.cli.main(sys.argv[2:]) if Path(dzo.cli.__file__).is_relative_to(sys.argv[1])"
         " else f'dzo was imported from {dzo.cli.__file__}')")


def config_text(name: str, cfg: dict) -> str:
    """The INI text of a config given as {"section.key": value}, writing name.csv."""
    sections: dict[str, list[str]] = {}
    for field, value in {**cfg, "run.out": f"{name}.csv"}.items():
        section, key = field.split(".")
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    return "".join(f"[{section}]\n{''.join(lines)}\n" for section, lines in sections.items())


def run_tree(tree: Path, config: Path, out: Path) -> tuple[bytes, bytes]:
    """Run a config file with the dzo of tree, writing into out; the CSV's
    and the sidecar's bytes."""
    src = str(tree.resolve() / "src")
    env = {**os.environ, "PYTHONPATH": src, **dict.fromkeys(BLAS_THREADS, "1")}
    proc = subprocess.run([sys.executable, "-c", CHILD, src, "run", "--config", str(config),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    if proc.returncode:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"{tree} exited {proc.returncode}: {last}")
    csv = Path(proc.stdout.strip())
    return csv.read_bytes(), Path(f"{csv}.config").read_bytes()


def largest_move(a: list[str], b: list[str]) -> float:
    """The largest relative difference between two columns of float fields."""
    move = 0.0
    for x, y in zip(a, b):
        if x != y:
            if not (x and y):   # a field left empty on one side only
                return math.inf
            x, y = float(x), float(y)
            move = max(move, abs(x - y) / (max(abs(x), abs(y)) or 1.0))
    return move


def compare(name: str, cfg: dict, base: Path, head: Path, work: Path) -> tuple[int, str]:
    """Run one config in both trees under work.  Returns 1 when a run fails
    or a k or m column or the sidecar differs, else 0, and the report line."""
    config = work / f"{name}.ini"
    config.write_text(config_text(name, cfg))
    try:
        (csv_a, side_a), (csv_b, side_b) = (run_tree(tree, config, work / label)
                                            for label, tree in (("base", base), ("head", head)))
    except RuntimeError as err:
        return 1, f"{name}: FAILED, {err}"
    if csv_a == csv_b and side_a == side_b:
        return 0, f"{name}: identical"
    header, *rows_a = (line.split(",") for line in csv_a.decode().splitlines())
    header_b, *rows_b = (line.split(",") for line in csv_b.decode().splitlines())
    if header != header_b:
        return 1, f"{name}: DIFFERS in the CSV header"
    columns = [([row[i] for row in rows_a], [row[i] for row in rows_b])
               for i in range(len(header))]
    differs = [] if side_a == side_b else ["sidecar"]
    differs += [f"{col} column" for col, (a, b) in zip(header, columns)
                if col in GATED and a != b]   # a column of another length differs too
    moves = ", ".join(f"{col} {largest_move(a, b):.3g}"
                      for col, (a, b) in zip(header, columns) if col not in GATED)
    verdict = f"DIFFERS in {', '.join(differs)}; " if differs else ""
    return int(bool(differs)), f"{name}: {verdict}largest relative float moves: {moves}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    status, identical, start = 0, 0, time.perf_counter()
    with tempfile.TemporaryDirectory() as work:
        for name, cfg in CONFIGS.items():
            code, line = compare(name, cfg, args.base, args.head, Path(work))
            print(line, flush=True)
            status |= code
            identical += line.endswith(": identical")
    verdict = "a gated difference" if status else "no gated difference"
    print(f"{identical} of {len(CONFIGS)} runs identical, {verdict}, "
          f"in {time.perf_counter() - start:.1f} s")
    return status


if __name__ == "__main__":
    sys.exit(main())
