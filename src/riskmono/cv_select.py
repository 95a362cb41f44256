# Split-sample cross-validation: fit an indexed family of predictors on one
# training split, estimate every risk on one test split, select the minimizer.

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from .core import (
    Dataset,
    LinearPredictor,
    LossKind,
    child_seed,
    split_train_test,
)
from .risk_estimation import AVG, CenteringMethod, RiskEstimate, estimate_risk


@dataclass(frozen=True)
class CandidateFamily:
    """Ordered candidate indices plus a fitter mapping index -> (train -> predictor)."""

    indices: tuple
    fitter: Callable[[Any], Callable[[Dataset], LinearPredictor]]

    def __post_init__(self):
        if len(self.indices) == 0:
            raise ValueError("candidate family is empty")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("candidate indices must be distinct")


@dataclass(frozen=True)
class CandidateRow:
    index: Any
    estimate: RiskEstimate | None
    predictor: LinearPredictor | None = None
    error: str | None = None


@dataclass(frozen=True)
class RiskTable:
    """Per-candidate estimated risks plus the selected index.

    Fitted candidate predictors ride along on the rows so that post-run
    oracle-inequality diagnostics can evaluate every candidate's true risk.
    """

    rows: tuple[CandidateRow, ...]
    selected: Any

    def estimates(self) -> dict:
        return {r.index: r.estimate.value for r in self.rows if r.estimate is not None}

    def selected_value(self) -> float:
        return self.estimates()[self.selected]


def default_test_size(n: int) -> int:
    """n_te = ceil(n / ceil(log n)), the O(n / log n) recommendation."""
    if n < 2:
        raise ValueError("need n >= 2 to split")
    n_te = math.ceil(n / max(1, math.ceil(math.log(n))))
    return min(max(1, n_te), n - 1)


def cross_validate(
    family: CandidateFamily,
    data: Dataset,
    n_te: int | None = None,
    loss: LossKind = LossKind.SQUARED_ERROR,
    cen: CenteringMethod = AVG,
    seed: int = 0,
):
    """Split once, fit every candidate on the same training split, estimate
    each risk on the same test split, and return the estimated-risk minimizer.

    Ties go to the earliest index in declared order.  A candidate whose fit or
    risk estimate raises a ValueError, ArithmeticError or RuntimeError (which
    covers the solver, configuration and linear-algebra errors) is recorded
    with an error marker and excluded from selection rather than aborting the
    run; any other exception propagates.
    """
    if n_te is None:
        n_te = default_test_size(data.n)
    train, test, _ = split_train_test(data, n_te, child_seed(seed, "cv-split"))

    rows = []
    for xi in family.indices:
        try:
            pred = family.fitter(xi)(train)
            est = estimate_risk(pred, test, loss, cen)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            rows.append(CandidateRow(xi, None, None, f"{type(exc).__name__}: {exc}"))
            continue
        rows.append(CandidateRow(xi, est, pred))

    selected_row = None
    best = math.inf
    for row in rows:
        if row.estimate is not None and row.estimate.value < best:
            best = row.estimate.value
            selected_row = row
    if selected_row is None:
        raise RuntimeError(
            "every candidate failed: " + "; ".join(f"{r.index}: {r.error}" for r in rows)
        )
    return RiskTable(tuple(rows), selected_row.index), selected_row.predictor
