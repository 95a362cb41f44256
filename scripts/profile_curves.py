#!/usr/bin/env python3
"""Dump analytic risk-profile curves (base, monotonized, optimized one-step)
for plotting, including the ridgeless fixed-point internals."""

import argparse
import math

import numpy as np

from riskmono import Mn1lsPrior, mn1ls_profile, monotonize_curve, solve_v
from riskmono.profiles import reference_profiles


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rho2", type=float, default=4.0)
    ap.add_argument("--sigma2", type=float, default=1.0)
    ap.add_argument("--eps", type=float, default=0.01, help="lassoless sparsity")
    ap.add_argument("--points", type=int, default=200)
    ap.add_argument("--out", default="profiles.csv")
    args = ap.parse_args()

    prior = Mn1lsPrior(args.eps, math.sqrt(args.rho2 / args.eps))
    base, onestep = reference_profiles("onestep", args.sigma2, args.rho2)

    gammas = np.exp(np.linspace(math.log(0.1), math.log(10.0), args.points))
    monotonized = monotonize_curve(gammas, base)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("gamma,mn2ls,mn1ls,monotonized_mn2ls,onestep_optimized,v,tv,tvg\n")
        for g, mono in zip(gammas, monotonized):
            # fixed-point internals exist on the overparameterized branch only
            fp = solve_v(g) if g > 1.0 else None
            row = [
                g,
                base(g),
                mn1ls_profile(g, prior, args.sigma2),
                mono,
                onestep(g),
                fp.v if fp else math.nan,
                fp.tv if fp else math.nan,
                fp.tvg if fp else math.nan,
            ]
            fh.write(",".join(format(v, ".10g") for v in row) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
