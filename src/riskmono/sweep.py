# Gamma-sweep experiment runner: for each aspect ratio and replication,
# generate data, run the chosen procedure, and aggregate true-risk statistics
# next to the matching analytic profile columns.

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ._lapack import one_blas_thread
from .core import child_seed
from .datagen import ConditionalSampler, DataModel, generate
from .monotonize import MonotonizeConfig, one_step, zero_step
from .predictors import BaseProcedure
from .profiles import monotonize_curve, reference_profiles
from .risk_estimation import closed_form_risk, mc_true_risk

CSV_COLUMNS = (
    "gamma",
    "p",
    "proc",
    "M",
    "mean_risk",
    "se_risk",
    "mean_risk_mc",
    "se_risk_mc",
    "analytic",
    "monotonized_analytic",
    "n_fail",
)

PROCEDURES = ("base", "zero", "one")

# a grid point with a larger share of failed replications gets NaN means
MAX_FAILURE_RATE = 0.2


def worker_count() -> int:
    """Worker cap from RISKMONO_THREADS (default: hardware parallelism).
    Raises ValueError unless the variable is unset, empty or an integer >= 1."""
    env = os.environ.get("RISKMONO_THREADS", "").strip()
    if not env:
        return os.cpu_count() or 1
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"RISKMONO_THREADS must be an integer >= 1, got {env!r}")
    return count


@dataclass(frozen=True)
class SweepConfig:
    n: int
    gamma_grid: tuple[float, ...]
    reps: int
    model: DataModel  # template; p is overridden per gamma
    procedure: str = "base"
    base: BaseProcedure = field(default_factory=BaseProcedure.mn2ls)
    mono: MonotonizeConfig = field(default_factory=MonotonizeConfig)
    n_mc: int = 0
    master_seed: int = 0

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        grid = tuple(float(g) for g in self.gamma_grid)
        if not grid or any(g <= 0 for g in grid):
            raise ValueError("gamma grid must be nonempty and positive")
        if not all(map(math.isfinite, grid)):
            raise ValueError(f"gamma grid must be finite, got {grid}")
        if list(grid) != sorted(grid):
            raise ValueError("gamma grid must be sorted ascending")
        if self.procedure not in PROCEDURES:
            raise ValueError(f"unknown procedure {self.procedure!r}")
        object.__setattr__(self, "gamma_grid", grid)


@dataclass
class CurveTable:
    rows: list[dict]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(row[c]) for c in CSV_COLUMNS) + "\n")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _replication(cfg: SweepConfig, gi: int, p: int, rep: int):
    """One (gamma, rep) cell: returns (true_risk, mc_risk or nan, oracle_risk).

    `oracle_risk` is the smallest true risk among the fitted candidates, i.e.
    what the procedure would reach with a perfect selector; the selected
    predictor is one of them, so oracle_risk <= true_risk.  For the base
    procedure there is one candidate and the two coincide.
    """
    seed = child_seed(cfg.master_seed, "sweep", gi, rep)
    model = cfg.model.with_p(p)
    data, beta0 = generate(model, cfg.n, child_seed(seed, "gen"))
    if cfg.procedure == "base":
        table, pred = None, cfg.base.fit(data)
    elif cfg.procedure == "zero":
        table, pred = zero_step(data, cfg.base, replace(cfg.mono, seed=child_seed(seed, "zs")))
    else:
        table, pred = one_step(data, cfg.base, replace(cfg.mono, seed=child_seed(seed, "os")))
    risk = closed_form_risk(pred, beta0, model.sigma2)
    oracle = risk
    if table is not None:
        oracle = min(
            closed_form_risk(row.predictor, beta0, model.sigma2)
            for row in table.rows
            if row.predictor is not None
        )
    mc = math.nan
    if cfg.n_mc > 0:
        sampler = ConditionalSampler(model, beta0)
        mc = mc_true_risk(pred, sampler, cfg.n_mc, child_seed(seed, "mc")).value
    return risk, mc, oracle


def _analytic_columns(cfg: SweepConfig) -> list[tuple[float, float]]:
    """(analytic, monotonized_analytic) for each gamma of the grid, for the
    configured base and model; the monotonized column is one curve, the
    M = 1 monotonized base profile.  `analytic` is NaN where no target for
    the procedure exists: bagged (M >= 2) zero- and one-step runs, which the
    M = 1 profiles do not describe (bagging lowers the risk), and one-step
    with the mn1ls base."""
    model, grid = cfg.model, cfg.gamma_grid
    if (cfg.base.kind, model.kind) == ("mn2ls", "dense"):
        kind, prior = ("onestep" if cfg.procedure == "one" else "mn2ls"), None
    elif (cfg.base.kind, model.kind) == ("mn1ls", "sparse"):
        kind, prior = "mn1ls", model.mn1ls_prior()
    else:
        return [(math.nan, math.nan)] * len(grid)
    base_profile, reference = reference_profiles(kind, model.sigma2, model.rho2, prior)
    monotonized = monotonize_curve(grid, base_profile)
    if cfg.procedure != "base" and cfg.mono.M > 1 or (cfg.procedure, kind) == ("one", "mn1ls"):
        analytic = [math.nan] * len(grid)
    elif cfg.procedure == "zero":
        analytic = monotonized
    else:
        analytic = [reference(g) for g in grid]
    return list(zip(analytic, monotonized))


def run_sweep(cfg: SweepConfig) -> CurveTable:
    """Run the configured procedure across the gamma grid.

    Per-replication failures are recorded and the run continues; a grid point
    where more than MAX_FAILURE_RATE of the replications fail gets NaN means.
    Output is deterministic in (config, master_seed) regardless of the worker
    count because every cell derives its own seed.  With more than one
    worker, every OpenBLAS runs on one thread while the pool runs, so each
    worker's BLAS is serial; one worker leaves BLAS threading alone.

    Besides the CSV_COLUMNS, each row carries `mean_oracle_risk` and
    `se_oracle_risk`: the per-replication best candidate's true risk, which
    splits the selected risk into what the candidate grid reaches and what
    the split-CV selection adds; and `fail_reasons`, one "TypeName: message"
    string per failed replication, in replication order.  They are not
    written to the CSV.
    """
    ps = [max(1, round(gamma * cfg.n)) for gamma in cfg.gamma_grid]
    tasks = [(gi, p, rep) for gi, p in enumerate(ps) for rep in range(cfg.reps)]

    def run_task(task):
        try:
            return _replication(cfg, *task)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            # numerical, solver and configuration failures of one cell;
            # anything else is a programming error and propagates
            return exc

    workers = worker_count()
    if workers > 1 and len(tasks) > 1:
        # the workers are the parallelism; OpenBLAS threads on top of them
        # would oversubscribe the CPUs
        with one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
            running = pool.map(run_task, tasks)
            # the calling thread would only wait for the pool meanwhile
            columns = _analytic_columns(cfg)
            outcomes = list(running)
    else:
        columns = _analytic_columns(cfg)
        outcomes = [run_task(task) for task in tasks]

    rows = []
    for gi, (gamma, p, (analytic, monotonized)) in enumerate(zip(cfg.gamma_grid, ps, columns)):
        cell = outcomes[gi * cfg.reps : (gi + 1) * cfg.reps]
        reasons = [f"{type(o).__name__}: {o}" for o in cell if isinstance(o, Exception)]
        done = [o for o in cell if not isinstance(o, Exception)]
        risks, mcs, oracles = ([o[i] for o in done] for i in range(3))
        n_fail = len(reasons)
        valid = risks and n_fail <= MAX_FAILURE_RATE * cfg.reps
        rows.append(
            {
                "gamma": gamma,
                "p": p,
                "proc": cfg.procedure,
                "M": cfg.mono.M if cfg.procedure != "base" else 1,
                "mean_risk": float(np.mean(risks)) if valid else math.nan,
                "se_risk": _std_err(risks) if valid else math.nan,
                "mean_risk_mc": float(np.mean(mcs)) if valid and cfg.n_mc else math.nan,
                "se_risk_mc": _std_err(mcs) if valid and cfg.n_mc else math.nan,
                "analytic": analytic,
                "monotonized_analytic": monotonized,
                "n_fail": n_fail,
                "fail_reasons": tuple(reasons),
                "mean_oracle_risk": float(np.mean(oracles)) if valid else math.nan,
                "se_oracle_risk": _std_err(oracles) if valid else math.nan,
            }
        )
    return CurveTable(rows)


def _std_err(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    if values.size <= 1:
        return math.nan
    return float(np.std(values, ddof=1) / math.sqrt(values.size))
