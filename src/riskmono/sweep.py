# Gamma-sweep experiment runner: for each aspect ratio and replication,
# generate data, run the chosen procedure, and aggregate true-risk statistics
# next to the matching analytic profile columns.

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .core import child_seed
from .datagen import ConditionalSampler, DataModel, generate
from .monotonize import MonotonizeConfig, one_step, zero_step
from .predictors import BaseProcedure
from .profiles import (
    ModelEnergy,
    mn1ls_profile,
    mn2ls_profile,
    monotonize_curve,
    optimize_onestep_iso,
)
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


def worker_count() -> int:
    """Worker cap from RISKMONO_THREADS (default: hardware parallelism)."""
    env = os.environ.get("RISKMONO_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SweepConfig:
    n: int
    gamma_grid: tuple[float, ...]
    reps: int
    model: DataModel  # template; p is overridden per gamma
    procedure: str = "base"
    base: BaseProcedure = field(default_factory=BaseProcedure.mn2ls)
    mono: MonotonizeConfig = field(default_factory=lambda: MonotonizeConfig(nu=0.5))
    n_mc: int = 0
    master_seed: int = 0

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        grid = tuple(float(g) for g in self.gamma_grid)
        if not grid or any(g <= 0 for g in grid):
            raise ValueError("gamma grid must be nonempty and positive")
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

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]


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
    configured base and model; the monotonized column is one curve."""
    model = cfg.model
    sigma2 = model.sigma2
    grid = cfg.gamma_grid
    if cfg.base.kind == "mn2ls" and model.kind == "dense":
        energy = ModelEnergy(model.rho2, sigma2)
        base_profile = lambda z: mn2ls_profile(z, energy)
    elif cfg.base.kind == "mn1ls" and model.kind == "sparse":
        prior = model.mn1ls_prior()
        base_profile = lambda z: mn1ls_profile(z, prior, sigma2)
    else:
        return [(math.nan, math.nan)] * len(grid)
    monotonized = monotonize_curve(grid, base_profile)
    if cfg.procedure == "base":
        analytic = [base_profile(g) for g in grid]
    elif cfg.procedure == "zero":
        analytic = monotonized
    elif cfg.base.kind == "mn2ls":
        analytic = [(optimize_onestep_iso(g, model.snr).risk + 1.0) * sigma2 for g in grid]
    else:
        analytic = [math.nan] * len(grid)
    return list(zip(analytic, monotonized))


def run_sweep(cfg: SweepConfig, max_failure_rate: float = 0.2) -> CurveTable:
    """Run the configured procedure across the gamma grid.

    Per-replication failures are recorded and the run continues; a grid point
    with more than `max_failure_rate` failures is marked invalid (NaN means).
    Output is deterministic in (config, master_seed) regardless of the worker
    count because every cell derives its own seed.

    Besides the CSV_COLUMNS, each row carries `mean_oracle_risk` and
    `se_oracle_risk`: the per-replication best candidate's true risk, which
    splits the selected risk into what the candidate grid reaches and what
    the split-CV selection adds; and `fail_reasons`, one "TypeName: message"
    string per failed replication, in replication order.  They are not
    written to the CSV.
    """
    tasks = []
    for gi, gamma in enumerate(cfg.gamma_grid):
        p = max(1, round(gamma * cfg.n))
        for rep in range(cfg.reps):
            tasks.append((gi, p, rep))

    workers = worker_count()
    results: dict[tuple, tuple] = {}

    def run_task(task):
        gi, p, rep = task
        try:
            return task, _replication(cfg, gi, p, rep)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            # numerical, solver and configuration failures of one cell;
            # anything else is a programming error and propagates
            return task, exc

    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for task, outcome in pool.map(run_task, tasks):
                results[task] = outcome
    else:
        for task in tasks:
            results[task] = run_task(task)[1]

    rows = []
    for gi, (gamma, (analytic, monotonized)) in enumerate(
        zip(cfg.gamma_grid, _analytic_columns(cfg))
    ):
        p = max(1, round(gamma * cfg.n))
        risks, mcs, oracles, reasons = [], [], [], []
        for rep in range(cfg.reps):
            outcome = results[(gi, p, rep)]
            if isinstance(outcome, Exception):
                reasons.append(f"{type(outcome).__name__}: {outcome}")
            else:
                risks.append(outcome[0])
                mcs.append(outcome[1])
                oracles.append(outcome[2])
        n_fail = len(reasons)
        valid = risks and n_fail <= max_failure_rate * cfg.reps
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
    rows.sort(key=lambda r: (r["gamma"], r["proc"], r["M"]))
    return CurveTable(rows)


def _std_err(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    if values.size <= 1:
        return math.nan
    return float(np.std(values, ddof=1) / math.sqrt(values.size))
