#!/usr/bin/env python3
"""Tabulate certified step sizes and contraction certificates.

Prints, for a grid of (sigma, d, p), the admissible step-size limits and
the weighted-norm certificate evaluated at the guaranteed level, next to
the practical step size the experiments actually use.  A reminder that the
certified region is far more conservative than what works in practice.

    python3 scripts/stepsize_tables.py --practical 0.02
"""

import argparse

import numpy as np

from dzo.oracle import estimate_smoothness, make_benchmark
from dzo.theory import (
    certify_contraction,
    contraction_step_limit,
    step_size_limit,
    step_size_limit_inv_dim,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sigma", default="0.1,0.5,0.9")
    parser.add_argument("--d", default="16,64,300")
    parser.add_argument("--p", default="0.1,1.0")
    parser.add_argument("--practical", type=float, default=0.02)
    args = parser.parse_args()

    lhat = estimate_smoothness(make_benchmark(50, 64, seed=42))
    print(f"# smoothness estimate for the 50-agent benchmark: L = {lhat:.3f}")
    print("sigma,d,p,alpha_limit,alpha_limit_p_inv_d,norm_at_guarantee,practical_ratio")
    for sigma in map(float, args.sigma.split(",")):
        for d in map(int, args.d.split(",")):
            for p in map(float, args.p.split(",")):
                try:
                    lim = step_size_limit(sigma, d, p, lhat)
                except ValueError:
                    lim = float("nan")
                inv = step_size_limit_inv_dim(sigma, d, lhat) if sigma > 0 else 0.0
                cert = certify_contraction(sigma, d, contraction_step_limit(sigma, d))
                ratio = args.practical / lim if np.isfinite(lim) and lim > 0 else np.inf
                print(f"{sigma:g},{d},{p:g},{lim:.3e},{inv:.3e},"
                      f"{cert.weighted_norm:.6f},{ratio:.1e}")


if __name__ == "__main__":
    main()
