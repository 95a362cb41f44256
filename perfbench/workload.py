"""One benchmark workload, in its own process.

Started by run.py, which pins the thread counts in the environment before
this process loads numpy.  The process sets up (imports, the benchmark's own
inputs, one warm-up call), then runs whole rounds of the workload's
operations until their timed work fills `--seconds`, reads its peak
resident set, then checks the outputs of every round and prints one JSON
line.  With `--setup-only` it stops after set-up and reports only the set-up
time.

The checks module (and the parts of scipy only it uses) is imported by the
check methods, after the timed rounds, so neither set-up time nor peak memory
includes the checker's.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import riskmono
from riskmono import cli, monotonize, sweep
from riskmono.core import child_seed

from tracing import NoTrace, Tracer

SIGMA2 = 1.0


def _digest(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=repr)


class DenseSweeps:
    """`run_sweep` on the dense model with the mn2ls base, as `riskmono
    simulate` runs it.  An operation is one (gamma, replication) cell; it
    fails when it lands in `n_fail`."""

    N, N_TE, RHO2 = 400, 40, 4.0

    def __init__(self, seed, procedures, gammas, block, reps):
        self.block = block
        mono = monotonize.MonotonizeConfig(block=block, n_te=self.N_TE)
        model = riskmono.DataModel.dense(1, self.RHO2, SIGMA2)
        self.configs = [
            sweep.SweepConfig(n=self.N, gamma_grid=gammas, reps=reps, model=model,
                              procedure=proc, mono=mono, master_seed=seed)
            for proc in procedures
        ]
        self.ops_per_round = len(procedures) * len(gammas) * reps
        self._warm = sweep.SweepConfig(n=self.N, gamma_grid=gammas[-1:], reps=2, model=model,
                                       procedure=procedures[-1], mono=mono, master_seed=seed)

    def warm_up(self):
        sweep.run_sweep(self._warm)

    def run_round(self, r, trace):
        tables, failed = [], 0
        for cfg in self.configs:
            try:
                rows = sweep.run_sweep(cfg).rows
            except Exception as exc:  # the benchmark counts it and keeps running
                print(f"{cfg.procedure} sweep failed: {exc!r}", file=sys.stderr)
                failed += len(cfg.gamma_grid) * cfg.reps
                tables.append(None)
                continue
            failed += sum(int(row["n_fail"]) for row in rows)
            tables.append(rows)
        return tables, failed

    def check(self, r, out, first):
        import checks

        if r > 0:
            # every cell derives its own seed, so a rerun gives the same table
            return [] if _digest(out) == _digest(first) else [
                f"round {r} differs from round 0 on the same config"]
        bad = []
        for cfg, rows in zip(self.configs, out):
            if rows is None:
                continue
            # rows whose cells failed too often carry NaN means; they are
            # counted in `failed`, and the checks speak of the others
            rows = [row for row in rows if math.isfinite(row["mean_risk"])]
            if cfg.procedure == "base":
                bad += checks.check_base_rows(rows, self.N, self.RHO2, SIGMA2)
            elif cfg.procedure == "zero":
                bad += checks.check_zero_rows(rows, self.N, self.N_TE, self.block,
                                              self.RHO2, SIGMA2)
            else:
                bad += checks.check_one_rows(rows, self.RHO2, SIGMA2)
        return bad


# AC-05's grid: 16 log-spaced points on [0.1, 10] without the interpolation band
AC05_GAMMAS = tuple(
    float(g) for g in np.exp(np.linspace(math.log(0.1), math.log(10.0), 16))
    if not 0.8 < g < 1.25
)


def zero_dense_mn2ls(seed):
    return DenseSweeps(seed, ("base", "zero"), AC05_GAMMAS, block=20, reps=6)


def one_dense_mn2ls(seed):
    return DenseSweeps(seed, ("one",), (1.2, 1.5, 2.0), block=30, reps=8)


class SparseL1:
    """`zero_step` with the mn1ls and the lasso base, plus one full-sample fit
    of each base, on sparse-model datasets.  Each round takes the next
    PER_ROUND datasets of a pool drawn at set-up, so a run averages over
    inputs; an operation is one zero-step run or one fit."""

    N, P, EPSILON, MAGNITUDE, LAM = 100, 300, 0.05, 3.0, 0.5
    N_TE, BLOCK = 10, 20
    PER_ROUND, POOL = 4, 64
    BASES = (riskmono.BaseProcedure.mn1ls(), riskmono.BaseProcedure.lasso(LAM))

    def __init__(self, seed):
        model = riskmono.DataModel.sparse(self.P, self.EPSILON, self.MAGNITUDE, SIGMA2)
        self.seed = seed
        self.pool = [riskmono.generate(model, self.N, child_seed(seed, "sparse_l1", i))
                     for i in range(self.POOL)]
        self.ops_per_round = self.PER_ROUND * 2 * len(self.BASES)

    def _mono(self, i):
        return monotonize.MonotonizeConfig(block=self.BLOCK, n_te=self.N_TE,
                                           seed=child_seed(self.seed, "cv", i))

    def warm_up(self):
        data, _ = self.pool[-1]
        small = data.rows(np.arange(40))
        for base in self.BASES:
            base.fit(small)

    def run_round(self, r, trace):
        out, failed = [], 0
        for j in range(self.PER_ROUND):
            i = (r * self.PER_ROUND + j) % self.POOL
            data, _ = self.pool[i]
            res = {"dataset": i}
            for base in self.BASES:
                for op in ("zero_step", "fit"):
                    with trace.span(f"bench.{op}", ctx=f"round{r}/data{i}/{base.kind}"):
                        try:
                            if op == "fit":
                                value = base.fit(data)
                            else:
                                value = monotonize.zero_step(data, base, self._mono(i))
                        except Exception as exc:  # counted; the run goes on
                            print(f"{op} {base.kind} on dataset {i}: {exc!r}", file=sys.stderr)
                            failed += 1
                            continue
                    res[(base.kind, op)] = value
            out.append(res)
        return out, failed

    def check(self, r, out, first):
        import checks

        bad = []
        for res in out:
            i = res["dataset"]
            data, beta0 = self.pool[i]
            X, y = data.features, data.response
            for kind in ("mn1ls", "lasso"):
                if (kind, "zero_step") in res:
                    table, _ = res[(kind, "zero_step")]
                    fitted = [row for row in table.rows if row.predictor is not None]
                    est = {row.index: row.estimate.value for row in fitted}
                    true = {row.index: checks.true_risk(row.predictor.coefficients, beta0, SIGMA2)
                            for row in fitted}
                    bad += [f"dataset {i} {kind}: {m}" for m in
                            checks.check_selection(est, table.selected)
                            + checks.check_oracle_inequality(est, true, table.selected)]
            if ("mn1ls", "fit") in res:
                beta = res[("mn1ls", "fit")].coefficients
                # the dual LP costs about as much as the fit: certify the
                # first round, check feasibility everywhere
                bad += [f"dataset {i}: {m}" for m in (
                    checks.check_mn1ls_certificate(X, y, beta) if r == 0
                    else checks.check_mn1ls_feasible(X, y, beta))]
            if ("lasso", "fit") in res:
                beta = res[("lasso", "fit")].coefficients
                bad += [f"dataset {i}: {m}" for m in checks.check_lasso_kkt(X, y, beta, self.LAM)]
        return bad


class ProfilesCurve:
    """`riskmono profile` for the mn2ls, onestep and mn1ls kinds.  An
    operation is one curve point; it fails when the command fails or the
    point is not finite."""

    RHO2, EPSILON, MAGNITUDE = 4.0, 0.01, 20.0
    POINTS = 16

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 7])
        # one gamma per log-spaced bin of [0.1, 10], jittered in the bin's
        # middle half, so every seed puts the same number of points on each
        # branch of the profiles
        edges = np.linspace(math.log(0.1), math.log(10.0), self.POINTS + 1)
        width = edges[1] - edges[0]
        dense = np.exp(edges[:-1] + width * (0.25 + 0.5 * rng.random(self.POINTS)))
        lassoless = (math.exp(rng.uniform(math.log(0.5), math.log(0.8))),
                     math.exp(rng.uniform(math.log(1.5), math.log(3.0))))
        self.curves = (("mn2ls", tuple(map(float, dense))), ("onestep", tuple(map(float, dense))),
                       ("mn1ls", lassoless))
        self.ops_per_round = sum(len(g) for _, g in self.curves)

    def _profile(self, kind, gammas):
        args = ["profile", "--kind", kind, "--rho2", repr(self.RHO2), "--sigma2", repr(SIGMA2),
                "--eps", repr(self.EPSILON), "--magnitude", repr(self.MAGNITUDE),
                "--gamma", ",".join(repr(float(g)) for g in gammas)]
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(args)
        except Exception as exc:  # counted; the run goes on
            print(f"profile --kind {kind}: {exc!r}", file=sys.stderr)
            return None
        if code != 0:
            return None
        lines = buf.getvalue().splitlines()[1:]
        return [tuple(float(v) for v in line.split(",")[1:]) for line in lines]

    def warm_up(self):
        self._profile("mn2ls", (2.0,))

    def run_round(self, r, trace):
        out, failed = [], 0
        for kind, gammas in self.curves:
            with trace.span(f"bench.profile.{kind}", ctx=f"round{r}/{kind}"):
                points = self._profile(kind, gammas)
            if points is None or len(points) != len(gammas):
                failed += len(gammas)
                points = None
            else:
                failed += sum(not all(map(math.isfinite, pt)) for pt in points)
            out.append(points)
        return out, failed

    def check(self, r, out, first):
        import checks

        if r > 0:
            return [] if _digest(out) == _digest(first) else [
                f"round {r} differs from round 0 on the same grid"]
        bad = []
        for (kind, gammas), points in zip(self.curves, out):
            if points is None:
                continue
            # non-finite points are counted in `failed`; check the others
            kept = [(g, pt) for g, pt in zip(gammas, points) if all(map(math.isfinite, pt))]
            gammas = [g for g, _ in kept]
            analytic = [a for _, (a, _) in kept]
            mono = [m for _, (_, m) in kept]
            if kind == "mn2ls":
                bad += checks.check_mn2ls_curve(gammas, analytic, mono, self.RHO2, SIGMA2)
            elif kind == "onestep":
                bad += checks.check_onestep_curve(gammas, analytic, mono, self.RHO2, SIGMA2)
            else:
                bad += checks.check_mn1ls_curve(gammas, analytic, mono, self.EPSILON,
                                                self.MAGNITUDE, SIGMA2)
        return bad


WORKLOADS = {
    "zero_dense_mn2ls": zero_dense_mn2ls,
    "one_dense_mn2ls": one_dense_mn2ls,
    "sparse_l1": SparseL1,
    "profiles_curve": ProfilesCurve,
}


def run(name, seed, seconds, traced, spawned_at, out_dir):
    workload = WORKLOADS[name](seed)
    workload.warm_up()
    setup_s = time.monotonic() - spawned_at
    if seconds is None:
        return {"setup_s": setup_s}

    tracer = Tracer() if traced else NoTrace()
    if traced:
        tracer.install()
    outs, walls, cpus, failed = [], [], [], 0
    try:
        while True:
            r = tracer.round = len(walls)
            w0, c0 = time.perf_counter(), time.process_time()
            out, n_failed = workload.run_round(r, tracer)
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
            tracer.round = None
            failed += n_failed
            outs.append(out)
            # start a round only if its timed work can end within the window
            if sum(walls) + statistics.median(walls) > seconds:
                break
    finally:
        tracer.round = None
        if traced:
            tracer.uninstall()

    # the program's peak, read before the checks allocate their own arrays
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    k0 = time.perf_counter()
    problems = [msg for r, out in enumerate(outs) for msg in workload.check(r, out, outs[0])]
    check_s = time.perf_counter() - k0
    for msg in problems:
        print(f"CHECK FAILED {name}: {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "rounds": len(walls),
        "attempted": len(walls) * workload.ops_per_round,
        "failed": failed,
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb,
        "check_s": check_s,
        "round_walls": walls,
    }
    if traced:
        result["per_layer"] = tracer.per_layer(len(walls), sweep.worker_count())
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"trace-{name}-seed{seed}.json")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.setup_only == (args.seconds is not None):
        ap.error("give exactly one of --seconds and --setup-only")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.spawned_at, args.out_dir)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
