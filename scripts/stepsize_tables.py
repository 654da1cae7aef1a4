#!/usr/bin/env python3
"""Tabulate certified step sizes and contraction certificates.

Prints, for a grid of (sigma, d, p), the step-size limits and certificate of
``dzo verify`` at the 50-agent benchmark's smoothness constant, next to the
practical step size the experiments actually use.  A reminder that the
certified region is far more conservative than what works in practice.
A bad grid prints nothing and exits 2.

    python3 scripts/stepsize_tables.py --practical 0.02
"""

import argparse
import sys

from dzo.oracle import make_benchmark
from dzo.theory import step_size_table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sigma", default="0.1,0.5,0.9")
    parser.add_argument("--d", default="16,64,300")
    parser.add_argument("--p", default="0.1,1.0")
    parser.add_argument("--practical", type=float, default=0.02)
    args = parser.parse_args()

    L = make_benchmark(50, 64, seed=42).smoothness()
    try:
        rows = step_size_table([float(s) for s in args.sigma.split(",")],
                               [int(d) for d in args.d.split(",")],
                               [float(p) for p in args.p.split(",")], L)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"# smoothness constant of the 50-agent benchmark: L = {L:.3f}")
    print("sigma,d,p,alpha_limit,alpha_limit_p_inv_d,norm_at_guarantee,practical_ratio")
    for sigma, d, p, lim, inv, _, cert in rows:
        ratio = args.practical / lim if lim > 0 else float("inf")   # NaN > 0 is False
        print(f"{sigma:g},{d},{p:g},{lim:.3e},{inv:.3e},{cert.weighted_norm:.6f},{ratio:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
