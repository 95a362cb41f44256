# Zero-step (bagged subsample) and one-step (disjoint split + MN2LS residual
# adjustment) procedures, both driven by the cross-validation selector.

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, LinearPredictor, child_seed, disjoint_pair_indices, subsample_indices
from .cv_select import CandidateFamily, RiskTable, cross_validate, default_test_size
from .predictors import BaseProcedure
from .risk_estimation import AVG, CenteringMethod


class ConfigError(ValueError):
    """Monotonization configuration produces an empty or invalid grid."""


NULL_INDEX = "null"


@dataclass(frozen=True)
class MonotonizeConfig:
    """Knobs shared by the zero-step and one-step procedures.

    The subsample block size may be given directly (`block`, matching how the
    experiments state it) or as the exponent `nu` with block = floor(n^nu).
    """

    M: int = 1
    n_te: int | None = None
    block: int | None = None
    nu: float | None = None
    cen: CenteringMethod = field(default_factory=lambda: AVG)
    include_null: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.M < 1:
            raise ConfigError(f"M must be >= 1, got {self.M}")
        if (self.block is None) == (self.nu is None):
            raise ConfigError("give exactly one of block or nu")
        if self.block is not None and self.block < 1:
            raise ConfigError(f"block must be >= 1, got {self.block}")
        if self.nu is not None and not 0.0 < self.nu < 1.0:
            raise ConfigError(f"nu must be in (0, 1), got {self.nu}")

    def resolve_block(self, n: int) -> int:
        b = self.block if self.block is not None else int(math.floor(n**self.nu))
        if b < 1:
            raise ConfigError(f"block size floor(n^nu) = {b} must be >= 1")
        return b

    def resolve_n_te(self, n: int) -> int:
        return self.n_te if self.n_te is not None else default_test_size(n)


def zero_step_grid(n: int, n_te: int, block: int) -> list[tuple[int, int]]:
    """Index grid for the zero-step procedure: (xi, n_xi = n_tr - xi*block).

    xi starts at 1, as the published setup (n = 1000, n_te = 100, block 50:
    sizes 850 down to 100) fixes.  The largest candidate is therefore fitted
    on n - n_te - block rows, and at finite n the smallest aspect ratio on
    offer is p / n_1 > p / n: this grid offset is part of the gap between the
    zero-step risk and min_{zeta >= gamma} R(zeta).  The paper's abstract
    does not settle whether xi = 0 (n_0 = n_tr) belongs to the grid.
    """
    n_tr = n - n_te
    xi_max = math.ceil(n_tr / block - 2)
    if xi_max < 1:
        raise ConfigError(
            f"empty zero-step grid: n_tr={n_tr}, block={block} "
            f"gives ceil(n_tr/block - 2) = {xi_max}"
        )
    return [(xi, n_tr - xi * block) for xi in range(1, xi_max + 1)]


def one_step_grid(n: int, n_te: int, block: int) -> list[tuple[int, int, int, int]]:
    """Index grid for the one-step procedure: (xi1, xi2, n1, n2).

    xi2 = 0 encodes the no-adjustment convention, so the one-step candidate
    set contains the zero-step ingredient predictors for each xi1.
    """
    n_tr = n - n_te
    xi_max = math.ceil(n_tr / block - 2)
    if xi_max < 2:
        raise ConfigError(
            f"empty one-step grid: n_tr={n_tr}, block={block} "
            f"gives ceil(n_tr/block - 2) = {xi_max} < 2"
        )
    grid = []
    for xi1 in range(2, xi_max + 1):
        n1 = n_tr - xi1 * block
        for xi2 in range(0, xi1):
            grid.append((xi1, xi2, n1, xi2 * block))
    return grid


def bagged_ingredient(
    base: BaseProcedure, train: Dataset, k: int, M: int, seed: int, cache: dict
) -> LinearPredictor:
    """Coefficient average of the base fit on M independent size-k subsamples.

    Subsets are i.i.d. uniform across the M repetitions (they may coincide).
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    coefs = [
        base.fit_rows(train, subsample_indices(train.n, k, child_seed(seed, "bag", j)), cache)
        for j in range(M)
    ]
    # valid for linear predictors: averaging coefficients == averaging predictions
    return LinearPredictor(np.mean(coefs, axis=0))


def onestep_ingredient(
    base: BaseProcedure, train: Dataset, idx1: np.ndarray, idx2: np.ndarray, cache: dict
) -> LinearPredictor:
    """Base fit on rows idx1 plus an MN2LS fit to its residuals on rows idx2.

    An empty idx2 means no adjustment and returns the base fit.
    """
    pilot = base.fit_rows(train, idx1, cache)
    if idx2.size == 0:
        return LinearPredictor(pilot)
    resid = train.response[idx2] - train.features[idx2] @ pilot
    adjust = BaseProcedure.mn2ls().fit_rows(train, idx2, cache, response=resid)
    return LinearPredictor(pilot + adjust)


def _bagged_onestep(
    base: BaseProcedure, train: Dataset, n1: int, n2: int, M: int, seed: int, cache: dict
) -> LinearPredictor:
    coefs = []
    for j in range(M):
        idx1, idx2 = disjoint_pair_indices(train.n, n1, n2, child_seed(seed, "pair", j))
        coefs.append(onestep_ingredient(base, train, idx1, idx2, cache).coefficients)
    return LinearPredictor(np.mean(coefs, axis=0))


def zero_step(
    data: Dataset, base: BaseProcedure, cfg: MonotonizeConfig
) -> tuple[RiskTable, LinearPredictor]:
    """Cross-validated selection over bagged subsample sizes (plus the null
    predictor when configured)."""
    n_te = cfg.resolve_n_te(data.n)
    block = cfg.resolve_block(data.n)
    grid = dict(zero_step_grid(data.n, n_te, block))
    cache: dict = {}  # row gram shared across candidates of this run

    def fitter(xi):
        if xi == NULL_INDEX:
            return lambda train: BaseProcedure.null().fit(train)
        k = grid[xi]
        seed = child_seed(cfg.seed, "zs", xi)
        return lambda train: bagged_ingredient(base, train, k, cfg.M, seed, cache)

    indices = tuple(grid) + ((NULL_INDEX,) if cfg.include_null else ())
    family = CandidateFamily(indices, fitter)
    return cross_validate(family, data, n_te, cfg.cen, cfg.seed)


def one_step(
    data: Dataset, base: BaseProcedure, cfg: MonotonizeConfig
) -> tuple[RiskTable, LinearPredictor]:
    """Cross-validated selection over disjoint split pairs with the MN2LS
    residual adjustment (xi2 = 0 rows carry no adjustment)."""
    n_te = cfg.resolve_n_te(data.n)
    block = cfg.resolve_block(data.n)
    grid = {(xi1, xi2): (n1, n2) for xi1, xi2, n1, n2 in one_step_grid(data.n, n_te, block)}
    cache: dict = {}

    def fitter(xi):
        if xi == NULL_INDEX:
            return lambda train: BaseProcedure.null().fit(train)
        n1, n2 = grid[xi]
        if xi[1] == 0:
            # no-adjustment rows reuse the zero-step seed path, so the
            # one-step candidate set contains the zero-step ingredients
            seed = child_seed(cfg.seed, "zs", xi[0])
            return lambda train: bagged_ingredient(base, train, n1, cfg.M, seed, cache)
        return lambda train: _bagged_onestep(
            base, train, n1, n2, cfg.M, child_seed(cfg.seed, "os", *xi), cache
        )

    indices = tuple(grid) + ((NULL_INDEX,) if cfg.include_null else ())
    family = CandidateFamily(indices, fitter)
    return cross_validate(family, data, n_te, cfg.cen, cfg.seed)
