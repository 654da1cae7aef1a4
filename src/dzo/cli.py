"""Command-line entry points.

Subcommands:

* ``run --config FILE``          -- execute one experiment config.
* ``compare --suite fig1|fig2|fig3 --seed S --budget M --out DIR``
                                 -- run a comparison suite.
* ``verify --sigma ... --d ... --p ...``
                                 -- print step-size limits and contraction
                                    certificates as CSV.
* ``selftest``                   -- quick invariant sweep, nonzero exit on
                                    failure.

The default output directory is the DZO_OUT_DIR environment variable when
set; ``--out`` overrides it.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import harness, theory
from .algorithms import Schedule, StopRule, run
from .estimators import SnapshotBlock, sweep, vr_estimate
from .network import build_topology, metropolis_weights, mix
from .oracle import ZerothOrderOracle, make_benchmark


def _default_out() -> str:
    return os.environ.get("DZO_OUT_DIR", ".")


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = harness.load_config(args.config)
    path = harness.run_experiment(cfg, out_dir=args.out)
    print(path)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    paths = harness.run_comparison(args.suite, seed=args.seed, budget=args.budget,
                                   out_dir=args.out)
    for p in paths:
        print(p)
    return 0


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _cmd_verify(args: argparse.Namespace) -> int:
    print("sigma,d,p,step_limit,step_limit_p_inv_d,alpha_l,weighted_norm,bound,"
          "spectral_radius,satisfied")
    for sigma in _floats(args.sigma):
        for d in _ints(args.d):
            for p in _floats(args.p):
                try:
                    lim = theory.step_size_limit(sigma, d, p, args.L)
                except ValueError:
                    lim = float("nan")
                lim_inv = theory.step_size_limit_inv_dim(sigma, d, args.L) if sigma > 0 else 0.0
                alpha_l = args.alpha_l if args.alpha_l is not None \
                    else theory.contraction_step_limit(sigma, d)
                cert = theory.certify_contraction(sigma, d, alpha_l)
                print(f"{sigma:g},{d},{p:g},{lim:.12g},{lim_inv:.12g},{alpha_l:.12g},"
                      f"{cert.weighted_norm:.12g},{cert.bound:.12g},"
                      f"{cert.spectral_radius:.12g},{str(cert.satisfied).lower()}")
    return 0


def _cmd_selftest(_args: argparse.Namespace) -> int:
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    rng = np.random.default_rng(0)

    # Mixing matrices: doubly stochastic and contracting on every kind.
    for kind in ("ring", "path", "complete", "grid"):
        topo = build_topology(kind, 12)
        w = metropolis_weights(topo)
        x = rng.standard_normal((12, 5))
        before = x - x.mean(axis=0)
        after = mix(w, x) - x.mean(axis=0)
        ok = (w.sigma < 1.0
              and np.linalg.norm(after) <= w.sigma * np.linalg.norm(before) + 1e-10)
        check(f"mixing contraction on {kind}", ok)

    # Estimator identities on a small benchmark instance.
    spec = make_benchmark(1, 6, seed=3)
    oracle = ZerothOrderOracle(spec)
    x = rng.standard_normal((1, 6))
    snap = SnapshotBlock(oracle, x + 0.1, 0.05)
    full, _ = sweep(oracle, np.array([0]), x, 0.03)
    avg = np.mean([vr_estimate(oracle, snap, x, 0.03, np.array([l]), "paper_faithful")
                   for l in range(6)], axis=0)
    check("variance-reduced estimate averages to the full sweep",
          bool(np.linalg.norm(avg - full) <= 1e-10 * max(1.0, np.linalg.norm(full))))

    # Tracking identity over a short tracked run.
    rows = run("vrgt", build_topology("ring", 6), make_benchmark(6, 8, seed=1),
               Schedule(step_size=0.05), StopRule("rounds", 30), seed=5, p=0.3)
    check("tracked run produces finite metrics", all(np.isfinite(r.stat_gap) for r in rows))

    # Contraction certificates across a small grid.
    ok = all(theory.certify_contraction(s, d, theory.contraction_step_limit(s, d)).satisfied
             for s in (0.1, 0.5, 0.9) for d in (3, 16, 64))
    check("contraction certificate at the guaranteed step level", ok)

    # Determinism of a tiny run.
    cfg = harness.ExperimentConfig(
        topology_kind="ring", topology_n=4, topology_seed=0,
        objective_kind="benchmark", objective_dim=5, objective_seed=2,
        algorithm="vrgt", step_size=0.05, stop_kind="rounds", stop_limit=20, seed=9)
    check("byte-identical replay",
          harness.rows_to_csv(harness.run_config(cfg))
          == harness.rows_to_csv(harness.run_config(cfg)))

    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failure(s)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="dzo",
                                     description="Distributed zeroth-order optimization simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=_default_out())
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run a comparison suite")
    p_cmp.add_argument("--suite", required=True, choices=harness.SUITES)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--budget", type=int, required=True,
                       help="per-agent query budget")
    p_cmp.add_argument("--out", default=_default_out())
    p_cmp.set_defaults(func=_cmd_compare)

    p_ver = sub.add_parser("verify", help="print step-size limits and certificates")
    p_ver.add_argument("--sigma", required=True, help="comma-separated values in [0,1)")
    p_ver.add_argument("--d", required=True, help="comma-separated dimensions >= 3")
    p_ver.add_argument("--p", required=True, help="comma-separated refresh probabilities")
    p_ver.add_argument("--L", type=float, default=1.0)
    p_ver.add_argument("--alpha-l", dest="alpha_l", type=float, default=None,
                       help="certificate level; defaults to the guaranteed one")
    p_ver.set_defaults(func=_cmd_verify)

    p_self = sub.add_parser("selftest", help="quick invariant sweep")
    p_self.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
