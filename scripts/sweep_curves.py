#!/usr/bin/env python3
"""Zero-step or one-step risk curves across aspect ratios with a ridgeless base.

`--proc zero` runs the base procedure and the zero-step procedure; `--proc
one` runs the zero-step and the one-step procedure.  Desk scale by default
(n = 400, n_te = 40, 50 replications; block 20 and 16 gammas for zero, block
30 and 12 gammas for one); --full matches the headline setup (n = 1000,
n_te = 100, block 50, 100 replications, 20 log-spaced gammas in [0.1, 10]).
"""

import argparse
import math

import numpy as np

from riskmono import (
    BaseProcedure,
    DataModel,
    MonotonizeConfig,
    SweepConfig,
    run_sweep,
)

# --proc -> (procedures run, desk block, desk gamma count)
SETUPS = {"zero": (("base", "zero"), 20, 16), "one": (("zero", "one"), 30, 12)}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--proc", choices=tuple(SETUPS), required=True)
    ap.add_argument("--snr", type=float, default=4.0)
    ap.add_argument("--M", type=int, default=1)
    ap.add_argument("--full", action="store_true", help="headline-scale run")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="default: PROC_step_curve.csv")
    args = ap.parse_args()
    out = args.out or f"{args.proc}_step_curve.csv"

    procs, desk_block, desk_points = SETUPS[args.proc]
    if args.full:
        n, n_te, block, reps, points = 1000, 100, 50, 100, 20
    else:
        n, n_te, block, reps, points = 400, 40, desk_block, 50, desk_points
    gammas = tuple(np.exp(np.linspace(math.log(0.1), math.log(10.0), points)))

    common = dict(
        n=n,
        gamma_grid=gammas,
        reps=reps,
        model=DataModel.dense(1, args.snr, 1.0),
        base=BaseProcedure.mn2ls(),
        mono=MonotonizeConfig(block=block, n_te=n_te, M=args.M),
        master_seed=args.seed,
    )
    rows = []
    for proc in procs:
        table = run_sweep(SweepConfig(procedure=proc, **common))
        rows.extend(table.rows)
        print(f"{proc}: {len(table.rows)} grid points done")
    table.rows = sorted(rows, key=lambda r: (r["gamma"], r["proc"], r["M"]))
    table.to_csv(out)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
