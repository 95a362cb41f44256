#!/usr/bin/env python3
"""Dump and compare zero-step and one-step fits and sweeps across code versions.

`dump OUT` runs `zero_step` and `one_step` for every base kind (mn2ls,
ridge, lasso, null, mn1ls) at M in {1, 3} on four n = 60 datasets: p = 20,
48 and 150, plus a p = 150 dataset whose rows 30-59 repeat rows 0-29. It
pickles, per run, each candidate row (index, estimate, coefficients,
error), the selected index and the selected coefficients, with the true
signal of each dataset. It also runs the `run_sweep` cases of `SWEEPS` on 2
workers and pickles their rows: every CSV column plus `mean_oracle_risk`,
`se_oracle_risk` and `fail_reasons`.

`diff A B` reports, per base kind, how many runs are bit-identical and the
largest change in candidate coefficients, in candidate true risk, in the
selected true risk, and the number of changed selections; then, per sweep
case, how many rows are bit-identical.  It exits 1 when any run or sweep row
differs.

    PYTHONPATH=src python scripts/compare_fits.py dump before.pkl
    PYTHONPATH=src python scripts/compare_fits.py diff before.pkl after.pkl
"""

import argparse
import os
import pickle

import numpy as np

from riskmono import (
    BaseProcedure,
    Dataset,
    DataModel,
    MonotonizeConfig,
    SweepConfig,
    generate,
    one_step,
    run_sweep,
    zero_step,
)
from riskmono import sweep

N, RHO2, SIGMA2 = 60, 4.0, 1.0
BASES = {
    "mn2ls": BaseProcedure.mn2ls(),
    "ridge": BaseProcedure.ridge(0.3),
    "lasso": BaseProcedure.lasso(0.5),
    "null": BaseProcedure.null(),
    "mn1ls": BaseProcedure.mn1ls(),
}


# run_sweep cases: dense model at n = 60; "default_block" leaves block and nu
# to the library; "injected_failures" makes every cell whose data seed is 0
# mod 3 raise, so some grid points keep valid means next to failed cells and
# others get NaN; "config_error" fails every cell (block too large for n)
_SWEEP = dict(n=60, gamma_grid=(0.25, 0.8, 2.0), reps=5, model=DataModel.dense(1, RHO2, SIGMA2),
              master_seed=11)
_MONO = MonotonizeConfig(block=8, n_te=12)
SWEEPS = {
    "base": dict(procedure="base", n_mc=40),
    "zero": dict(procedure="zero", mono=_MONO, n_mc=40),
    "zero_M3": dict(procedure="zero", mono=MonotonizeConfig(M=3, block=8, n_te=12)),
    "one": dict(procedure="one", mono=_MONO, n_mc=40),
    "one_M3": dict(procedure="one", mono=MonotonizeConfig(M=3, block=8, n_te=12)),
    "default_block": dict(procedure="zero"),
    "injected_failures": dict(procedure="zero", mono=_MONO, reps=8),
    "config_error": dict(procedure="zero", mono=MonotonizeConfig(block=40, n_te=12)),
}


_generate = sweep.generate


def _failing_generate(model, n, seed):
    if seed % 3 == 0:
        raise ArithmeticError(f"injected failure at seed {seed}")
    return _generate(model, n, seed)


def sweeps():
    os.environ["RISKMONO_THREADS"] = "2"
    out = {}
    for name, knobs in SWEEPS.items():
        sweep.generate = _failing_generate if name == "injected_failures" else _generate
        try:
            out[name] = run_sweep(SweepConfig(**{**_SWEEP, **knobs})).rows
        finally:
            sweep.generate = _generate
    return out


def datasets():
    out = {}
    for p in (20, 48, 150):
        out[f"p{p}"] = generate(DataModel.dense(p, RHO2, SIGMA2), N, 100 + p)
    data, beta0 = generate(DataModel.dense(150, RHO2, SIGMA2), N, 7)
    X, y = data.features.copy(), data.response.copy()
    X[30:], y[30:] = X[:30], y[:30]
    out["p150_repeated_rows"] = (Dataset(X, y), beta0)
    return out


def dump(path):
    runs = {}
    data_sets = datasets()
    for dname, (data, _) in data_sets.items():
        for kind, base in BASES.items():
            for M in (1, 3):
                for pname, proc in (("zero_step", zero_step), ("one_step", one_step)):
                    cfg = MonotonizeConfig(M=M, n_te=10, block=8, seed=11)
                    table, pred = proc(data, base, cfg)
                    rows = [
                        (
                            row.index,
                            None if row.estimate is None else row.estimate.value,
                            None if row.predictor is None else row.predictor.coefficients.copy(),
                            row.error,
                        )
                        for row in table.rows
                    ]
                    runs[(kind, pname, M, dname)] = (rows, table.selected, pred.coefficients.copy())
    signals = {name: beta0 for name, (_, beta0) in data_sets.items()}
    with open(path, "wb") as fh:
        pickle.dump({"runs": runs, "signals": signals, "sweeps": sweeps()}, fh)
    print(f"wrote {len(runs)} runs and {len(SWEEPS)} sweeps to {path}")


def _risk(beta, beta0):
    d = beta - beta0
    return float(d @ d + SIGMA2)


def _same(run_a, run_b):
    (rows_a, sel_a, coef_a), (rows_b, sel_b, coef_b) = run_a, run_b
    if sel_a != sel_b or coef_a.tobytes() != coef_b.tobytes() or len(rows_a) != len(rows_b):
        return False
    for (ia, ea, ca, erra), (ib, eb, cb, errb) in zip(rows_a, rows_b):
        if (ia, ea, erra) != (ib, eb, errb) or (ca is None) != (cb is None):
            return False
        if ca is not None and ca.tobytes() != cb.tobytes():
            return False
    return True


def diff(path_a, path_b) -> bool:
    """Print the comparison; True when every run and sweep row is identical."""
    with open(path_a, "rb") as fh:
        a = pickle.load(fh)
    with open(path_b, "rb") as fh:
        b = pickle.load(fh)
    if a["runs"].keys() != b["runs"].keys():
        raise SystemExit("the dumps hold different runs")
    print("base,runs,identical,max_coef_change,max_candidate_risk_change,"
          "max_selected_risk_change,selections_changed")
    identical = True
    for kind in BASES:
        keys = [k for k in a["runs"] if k[0] == kind]
        same = changed = 0
        coef = risk = sel_risk = 0.0
        for key in keys:
            run_a, run_b = a["runs"][key], b["runs"][key]
            beta0 = a["signals"][key[3]]
            same += _same(run_a, run_b)
            for (_, _, ca, _), (_, _, cb, _) in zip(run_a[0], run_b[0]):
                if ca is not None and cb is not None:
                    coef = max(coef, float(np.max(np.abs(ca - cb))))
                    risk = max(risk, abs(_risk(ca, beta0) - _risk(cb, beta0)))
            sel_risk = max(sel_risk, abs(_risk(run_a[2], beta0) - _risk(run_b[2], beta0)))
            changed += run_a[1] != run_b[1]
        print(f"{kind},{len(keys)},{same},{coef:.3e},{risk:.3e},{sel_risk:.3e},{changed}")
        identical &= same == len(keys)
    if a["sweeps"].keys() != b["sweeps"].keys():
        raise SystemExit("the dumps hold different sweeps")
    print("sweep,rows,identical")
    for name, rows_a in a["sweeps"].items():
        rows_b = b["sweeps"][name]
        same = sum(_row_bits(ra) == _row_bits(rb) for ra, rb in zip(rows_a, rows_b))
        rows = max(len(rows_a), len(rows_b))
        print(f"{name},{rows},{same}")
        identical &= same == rows
    return identical


def _row_bits(row):
    # floats by their hex form, so NaN equals NaN and -0.0 differs from 0.0
    return {k: v.hex() if isinstance(v, float) else v for k, v in row.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="run every case and pickle the fits")
    d.add_argument("out")
    c = sub.add_parser("diff", help="compare two dumps")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args()
    if args.command == "dump":
        dump(args.out)
    elif not diff(args.a, args.b):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
