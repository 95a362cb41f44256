# Zero-step (bagged subsample) and one-step (disjoint split + MN2LS residual
# adjustment) procedures, both driven by the cross-validation selector.  Every
# candidate of a training split fits on rows of the same M row orders.

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, LinearPredictor, row_order
from .cv_select import CandidateFamily, RiskTable, cross_validate, default_test_size
from .predictors import BaseProcedure, RowFit
from .risk_estimation import AVG, CenteringMethod


class ConfigError(ValueError):
    """Monotonization configuration produces an empty or invalid grid."""


NULL_INDEX = "null"
# block = floor(n^nu) when a config gives neither block nor nu
DEFAULT_NU = 0.5


@dataclass(frozen=True)
class MonotonizeConfig:
    """Knobs shared by the zero-step and one-step procedures.

    The subsample block size may be given directly (`block`, matching how the
    experiments state it) or as the exponent `nu` with block = floor(n^nu);
    with neither, nu = DEFAULT_NU.
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
        if self.block is not None and self.nu is not None:
            raise ConfigError(f"give exactly one of block or nu, or neither for nu = {DEFAULT_NU}")
        if self.block is None and self.nu is None:
            object.__setattr__(self, "nu", DEFAULT_NU)
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

    Candidate xi fits on the first n_xi rows of each bag draw's row order
    (`bagged_ingredient`), so the candidates' row sets are nested.
    """
    n_tr = n - n_te
    xi_max = _xi_max(n_tr, block)
    if xi_max < 1:
        raise ConfigError(
            f"empty zero-step grid: n_tr={n_tr}, block={block} "
            f"gives ceil(n_tr/block - 2) = {xi_max}"
        )
    return [(xi, n_tr - xi * block) for xi in range(1, xi_max + 1)]


def one_step_grid(n: int, n_te: int, block: int) -> list[tuple[int, int, int, int]]:
    """Index grid for the one-step procedure: (xi1, xi2, n1, n2).

    xi2 = 0 encodes the no-adjustment convention, so the one-step candidate
    set contains the zero-step ingredient predictors for each xi1.  In each
    bag draw the pilot fits on the first n1 rows of the row order and the
    adjustment on its last n2 rows; n1 + n2 <= n_tr - block keeps them
    disjoint.
    """
    n_tr = n - n_te
    xi_max = _xi_max(n_tr, block)
    if xi_max < 2:
        raise ConfigError(
            f"empty one-step grid: n_tr={n_tr}, block={block} "
            f"gives ceil(n_tr/block - 2) = {xi_max} < 2"
        )
    # the pilots are the zero-step sizes from xi = 2 on
    return [(xi1, xi2, n1, xi2 * block)
            for xi1, n1 in zero_step_grid(n, n_te, block)[1:] for xi2 in range(xi1)]


def _xi_max(n_tr: int, block: int) -> int:
    # the largest xi of both grids: n_xi = n_tr - xi*block stays above block
    return math.ceil(n_tr / block - 2)


def onestep_ingredient(
    base: BaseProcedure,
    train: Dataset,
    idx1: np.ndarray,
    idx2: np.ndarray,
    n1: int | None = None,
    n2: int | None = None,
) -> RowFit:
    """Base fit on rows idx1[:n1] plus an MN2LS fit to its residuals on rows
    idx2[:n2] (all of either when None), both `BaseProcedure.row_fit`s on
    `train`.  No rows in idx2[:n2] means no adjustment and returns the base
    fit.  The pilot's residual is formed once over all of idx2 and kept on
    `train`, keyed on the pilot's own key and idx2, so every adjustment of
    one pilot takes the first n2 entries of one residual.  With an mn2ls
    pilot on fewer rows than columns, the pilot is weights w1 over the
    training rows, its residual is y2 - row_gram()[idx2] w1, and the
    adjustment's weights w2 add to w1; no p-wide product is formed.  A pilot
    with a primal part (any other base, or mn2ls on rows that reject the
    shared factor or number at least p) leaves the residual y2 - X2 beta1.
    `.predictor(train)` forms the coefficients."""
    pilot = base.row_fit(train, idx1, k=n1)
    rows2 = np.asarray(idx2, dtype=np.intp)
    if rows2[:n2].size == 0:
        return pilot

    def residual():
        resid = train.response[rows2] - pilot.fitted(train, rows2)
        resid.setflags(write=False)
        return resid

    resid = train.memo(("residual", base.fit_key(idx1, n1), rows2.tobytes()), residual)
    return pilot + BaseProcedure.mn2ls().row_fit(train, rows2, response=resid[:n2], k=n2)


def bagged_ingredient(
    base: BaseProcedure,
    train: Dataset,
    n1: int,
    M: int,
    seed: int,
    n2: int = 0,
    cut: tuple[int | None, int | None] = (None, None),
) -> RowFit:
    """Average over bag draws j < M of the one-step ingredient with pilot
    rows order[:n1] and adjustment rows order[::-1][:n2], where
    order = row_order(train.n, seed, j).  With n2 = 0 it is the zero-step
    ingredient: the base fit on a uniform n1-subset, bagged.

    Draws are i.i.d. across j (their subsets may coincide).  Each order is
    drawn once per `train` and kept on it.  Within one draw the row sets of
    all sizes are nested, so every mn2ls fit on fewer rows than columns
    solves on one of two Cholesky factors per draw, kept on `train`: that of
    `order` and that of its reverse.  cut = (head, tail) cuts them to
    order[:head] and order[::-1][:tail] (None keeps all), the rows the
    caller's fits read, and so sizes the factors and the pilots' kept
    residuals; n1 <= head and n2 <= tail.  The draws average in row-space
    form (weights over the training rows plus a primal part), before any
    coefficients are formed; `.predictor(train)` forms them, as X' w + primal.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    head, tail = cut
    fits = []
    for j in range(M):
        order = train.memo(("row_order", seed, j), lambda: row_order(train.n, seed, j))
        fits.append(onestep_ingredient(base, train, order[:head], order[::-1][:tail], n1, n2))
    # valid for linear predictors: averaging coefficients == averaging predictions
    return RowFit.mean(fits)


def _candidate(base, cfg, n1, n2, cut):
    """Candidate fit train -> RowFit: `bagged_ingredient` on the M row orders
    of cfg.seed, cut to `cut`, so all candidates of a training split share
    them, kept in row-space form; `cross_validate` forms the coefficients of
    all candidates of the split in one product.  With n2 = 0 it is zero-step
    candidate n1, and one-step's (xi1, 0) rows are these same row fits, bit
    for bit, given the same cut (their coefficients come from each
    procedure's own product, so they can differ in the last bits).  Each
    candidate alone keeps the law of independent draws: its pilot rows are
    a uniform n1-subset and its adjustment rows a uniform n2-subset of their
    complement; only the joint law across candidates is nested."""
    return lambda train: bagged_ingredient(base, train, n1, cfg.M, cfg.seed, n2, cut)


def _select(data: Dataset, cfg: MonotonizeConfig, candidates):
    """Cross-validated selection over candidates(n_te, block, cut), a dict
    index -> (train -> RowFit), plus the null predictor when configured.
    Every candidate fits on rows of the one training split, and `cut` holds
    the leading rows of each row order and of its reverse that the grids
    read: pilots and zero-step candidates take at most n_tr - block rows
    (xi = 1), adjustments at most (xi_max - 1) * block.  Both procedures
    cut alike, so one-step's (xi1, 0) rows solve on zero-step's factors."""
    n_te, block = cfg.resolve_n_te(data.n), cfg.resolve_block(data.n)
    n_tr = data.n - n_te
    fits = candidates(n_te, block, (n_tr - block, (_xi_max(n_tr, block) - 1) * block))
    if cfg.include_null:
        fits[NULL_INDEX] = BaseProcedure.null().row_fit
    return cross_validate(CandidateFamily(tuple(fits), fits.__getitem__), data, n_te, cfg.cen,
                          cfg.seed)


def zero_step(
    data: Dataset, base: BaseProcedure, cfg: MonotonizeConfig
) -> tuple[RiskTable, LinearPredictor]:
    """Cross-validated selection over bagged subsample sizes (plus the null
    predictor when configured)."""
    return _select(data, cfg, lambda n_te, block, cut: {
        xi: _candidate(base, cfg, k, 0, cut) for xi, k in zero_step_grid(data.n, n_te, block)
    })


def one_step(
    data: Dataset, base: BaseProcedure, cfg: MonotonizeConfig
) -> tuple[RiskTable, LinearPredictor]:
    """Cross-validated selection over disjoint split pairs with the MN2LS
    residual adjustment.  The (xi1, 0) rows carry no adjustment: they are the
    zero-step candidates xi1 themselves."""
    return _select(data, cfg, lambda n_te, block, cut: {
        (xi1, xi2): _candidate(base, cfg, n1, n2, cut)
        for xi1, xi2, n1, n2 in one_step_grid(data.n, n_te, block)
    })
