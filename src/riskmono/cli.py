# Command-line surface: analytic profile curves, simulation sweeps from a
# config file, zero/one-step monotonization of a user dataset, and a selftest.

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from .core import Dataset, SolverError, child_seed, split_train_test
from .datagen import DataModel, generate
from .monotonize import ConfigError, MonotonizeConfig, one_step, zero_step
from .predictors import BaseProcedure
from .profiles import (
    ISOTROPIC,
    Mn1lsPrior,
    ModelEnergy,
    mn2ls_profile,
    monotonize_curve,
    reference_profiles,
    snr_star,
    solve_v,
)
from .risk_estimation import AVG, Mom, estimate_risk, median_of_means
from .sweep import SweepConfig, run_sweep

_BASE_ALIASES = {"mn2": "mn2ls", "mn1": "mn1ls"}


def parse_gamma_grid(spec: str) -> tuple[float, ...]:
    """Grid spec: `a:b:klog` / `a:b:klin` (endpoints included) or a comma
    list.  ConfigError unless the grid is nonempty, finite and positive."""
    spec = spec.strip()
    if ":" in spec:
        fields = spec.split(":")
        if len(fields) != 3:
            raise ConfigError(f"gamma range {spec!r} needs three fields, a:b:k")
        lo_s, hi_s, count_s = fields
        scale = "lin"
        for suffix in ("log", "lin"):
            if count_s.endswith(suffix):
                scale = suffix
                count_s = count_s[: -len(suffix)]
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
        if count < 1 or not 0 < lo <= hi < math.inf:
            raise ConfigError(f"gamma range {spec!r} needs finite 0 < a <= b and k >= 1")
        if count == 1:
            return (lo,)
        if scale == "log":
            return tuple(np.exp(np.linspace(math.log(lo), math.log(hi), count)).tolist())
        return tuple(np.linspace(lo, hi, count).tolist())
    grid = tuple(sorted(float(tok) for tok in spec.split(",") if tok.strip()))
    if not grid or not all(0 < g < math.inf for g in grid):
        raise ConfigError(f"gamma grid must be nonempty, finite and positive, got {spec!r}")
    return grid


def parse_centering(spec: str):
    spec = spec.strip().lower()
    if spec == "avg":
        return AVG
    if spec.startswith("mom:"):
        return Mom(float(spec.split(":", 1)[1]))
    raise ConfigError(f"centering must be 'avg' or 'mom:ETA', got {spec!r}")


def parse_base(name: str, lam: float | None) -> BaseProcedure:
    kind = name.strip().lower()
    # ValueError for an unknown kind, or unless ridge/lasso get lam > 0
    return BaseProcedure(_BASE_ALIASES.get(kind, kind), lam)


def read_config(path) -> dict:
    """Plain-text `key = value` lines; '#' starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            values[key.strip().lower()] = val.strip()
    return values


def _config_to_sweep(values: dict, overrides: dict) -> SweepConfig:
    merged = dict(values)
    for key, val in overrides.items():
        if val is not None:
            merged[key] = str(val)
    unread = set(merged)

    def get(key, cast=str, default=None):
        unread.discard(key)
        return cast(merged[key]) if key in merged else default

    def need(key, cast=str):
        if key not in merged:
            raise ConfigError(f"config is missing '{key}'")
        return get(key, cast)

    sigma2 = get("sigma2", float, 1.0)
    model_kind = get("model", default="dense").lower()
    if model_kind == "dense":
        model = DataModel.dense(1, get("rho2", float, 1.0), sigma2)
    elif model_kind == "sparse":
        model = DataModel.sparse(1, need("epsilon", float), need("magnitude", float), sigma2)
    else:
        raise ConfigError(f"model must be dense or sparse, got {model_kind!r}")
    cfg = SweepConfig(
        n=need("n", int),
        gamma_grid=need("gammas", parse_gamma_grid),
        reps=need("reps", int),
        model=model,
        procedure=get("proc", default="base").lower(),
        base=parse_base(get("base", default="mn2"), get("lambda", float)),
        mono=MonotonizeConfig(
            M=get("m", int, 1),
            n_te=get("n_te", int),
            block=get("block", int),
            nu=get("nu", float),
            cen=parse_centering(get("cen", default="avg")),
            include_null=get("include_null", default="true").lower() in ("1", "true", "yes"),
        ),
        n_mc=get("n_mc", int, 0),
        master_seed=get("seed", int, 0),
    )
    if unread:
        raise ConfigError(f"config keys not used: {', '.join(sorted(unread))}")
    return cfg


def _cmd_profile(args) -> int:
    gammas = parse_gamma_grid(args.gamma)
    prior = Mn1lsPrior(args.eps, args.magnitude) if args.kind == "mn1ls" else None
    base, analytic = reference_profiles(args.kind, args.sigma2, args.rho2, prior)
    lines = ["gamma,analytic,monotonized"]
    for g, mono in zip(gammas, monotonize_curve(gammas, base)):
        lines.append(f"{g:.12g},{analytic(g):.12g},{mono:.12g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(args) -> int:
    values = read_config(args.config)
    cfg = _config_to_sweep(values, {"seed": args.seed, "reps": args.reps})
    table = run_sweep(cfg)
    table.to_csv(args.out)
    return 0


def _cmd_monotonize(args) -> int:
    data = Dataset.from_csv(args.data)
    base = parse_base(args.base, args.lam)
    cfg = MonotonizeConfig(
        M=args.M,
        n_te=args.nte,
        block=args.block,
        cen=parse_centering(args.cen),
        include_null=not args.no_null,
        seed=args.seed,
    )
    proc = zero_step if args.proc == "zero" else one_step
    table, pred = proc(data, base, cfg)
    print(f"# {args.proc}-step, base={base.kind}, M={cfg.M}, n={data.n}, p={data.p}")
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["index", "estimated_risk", "status"])
    for row in table.rows:
        if row.estimate is None:
            out.writerow([_index_field(row.index), "", f"failed: {row.error}"])
        else:
            mark = "selected" if row.index == table.selected else ""
            out.writerow([_index_field(row.index), f"{row.estimate.value:.12g}", mark])
    print(f"# selected index: {_index_field(table.selected)}")
    print("# coefficients: " + " ".join(f"{c:.12g}" for c in pred.coefficients))
    return 0


def _index_field(index) -> str:
    # a one-step index (xi1, xi2) prints as xi1:xi2, one CSV field
    return ":".join(map(str, index)) if isinstance(index, tuple) else str(index)


def _cmd_selftest(args) -> int:
    checks = []

    fp = solve_v(2.0, ISOTROPIC)
    checks.append(("isotropic fixed point v(0;2) = 1", abs(fp.v - 1.0) < 1e-9))
    checks.append(("snr* constant near 10.7041", abs(snr_star() - 10.7041) < 1e-3))
    energy = ModelEnergy(4.0, 1.0)
    checks.append(("null-risk anchor = 5", mn2ls_profile(math.inf, energy) == 5.0))
    checks.append(
        ("mom arithmetic on 1..9", median_of_means(np.arange(1.0, 10.0), math.exp(-3 / 8)) == 5.0)
    )
    model = DataModel.dense(20, 4.0, 1.0)
    data, beta0 = generate(model, 60, seed=7)
    d_again, _ = generate(model, 60, seed=7)
    checks.append(("generator determinism", np.array_equal(data.features, d_again.features)))
    tr, te = split_train_test(data, 10, child_seed(11, "demo"))
    est = estimate_risk(BaseProcedure.null().fit(tr), te)
    checks.append(("null-risk estimate finite", math.isfinite(est.value)))
    table, _ = zero_step(
        data, BaseProcedure.mn2ls(), MonotonizeConfig(block=8, n_te=12, seed=3)
    )
    best = min(v for v in table.estimates().values())
    checks.append(("selection attains table minimum", table.selected_value() == best))

    failures = 0
    for label, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskmono",
        description="Risk monotonization procedures and analytic risk profiles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="emit an analytic risk curve as CSV")
    p.add_argument("--kind", choices=("mn2ls", "mn1ls", "onestep"), required=True)
    p.add_argument("--rho2", type=float, default=1.0)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.01, help="mn1ls sparsity")
    p.add_argument("--magnitude", type=float, default=20.0, help="mn1ls spike size")
    p.add_argument("--gamma", required=True, help="grid: a:b:klog, a:b:klin, or comma list")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_profile)

    s = sub.add_parser("simulate", help="run a gamma sweep from a config file")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=None, help="override config seed")
    s.add_argument("--reps", type=int, default=None, help="override config reps")
    s.set_defaults(func=_cmd_simulate)

    m = sub.add_parser("monotonize", help="apply zero/one-step to a dataset CSV")
    m.add_argument("--data", required=True, help="headerless CSV, response first column")
    m.add_argument("--proc", choices=("zero", "one"), required=True)
    m.add_argument("--base", required=True, help="mn2|mn1|ridge|lasso|null")
    m.add_argument("--M", type=int, default=1)
    m.add_argument("--nte", type=int, default=None)
    m.add_argument("--block", type=int, default=None)
    m.add_argument("--lam", type=float, default=None)
    m.add_argument("--cen", default="avg")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--no-null", action="store_true")
    m.set_defaults(func=_cmd_monotonize)

    t = sub.add_parser("selftest", help="run the built-in invariant checks")
    t.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract is exit code 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
