# Test-set risk estimators (AVG and MOM), the Monte-Carlo / closed-form true
# risk oracles, and the additive/multiplicative oracle-inequality diagnostics.

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, LinearPredictor, loss_values


class InfeasibleEtaError(ValueError):
    """The MOM batch count ceil(8 log(1/eta)) exceeds the test-set size."""


@dataclass(frozen=True)
class Avg:
    pass


@dataclass(frozen=True)
class Mom:
    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must be in (0, 1), got {self.eta}")


CenteringMethod = Avg | Mom

AVG = Avg()


@dataclass(frozen=True)
class RiskEstimate:
    value: float
    n_te: int
    method: CenteringMethod


def mom_batch_count(eta: float) -> int:
    """B = ceil(8 log(1/eta))."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    return max(1, math.ceil(8.0 * math.log(1.0 / eta)))


def median_of_means(values: np.ndarray, eta: float) -> float:
    """MOM over B = ceil(8 log(1/eta)) contiguous batches, in index order.

    Remainder rows go to the earliest batches; an even batch count resolves
    the median as the average of the two middle batch means.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    B = mom_batch_count(eta)
    if B > n:
        raise InfeasibleEtaError(
            f"MOM needs B = ceil(8 log(1/eta)) = {B} <= {n} observations"
        )
    base, rem = divmod(n, B)
    means = np.empty(B)
    start = 0
    for b in range(B):
        size = base + (1 if b < rem else 0)
        means[b] = np.mean(values[start : start + size])
        start += size
    means.sort()
    if B % 2 == 1:
        return float(means[B // 2])
    return float((means[B // 2 - 1] + means[B // 2]) / 2.0)


def estimate_risk_avg(pred: LinearPredictor, test: Dataset) -> RiskEstimate:
    if test.n == 0:
        raise ValueError("test set is empty")
    value = float(np.mean(loss_values(pred, test)))
    return RiskEstimate(value, test.n, AVG)


def estimate_risk_mom(
    pred: LinearPredictor, test: Dataset, eta: float = 0.05
) -> RiskEstimate:
    if test.n == 0:
        raise ValueError("test set is empty")
    value = median_of_means(loss_values(pred, test), eta)
    return RiskEstimate(value, test.n, Mom(eta))


def estimate_risk(pred: LinearPredictor, test: Dataset, cen: CenteringMethod) -> RiskEstimate:
    if isinstance(cen, Mom):
        return estimate_risk_mom(pred, test, cen.eta)
    return estimate_risk_avg(pred, test)


def mc_true_risk(
    pred: LinearPredictor,
    sampler,
    n_mc: int = 10_000,
    seed: int = 0,
) -> RiskEstimate:
    """Monte-Carlo conditional risk: average loss over n_mc fresh draws.

    `sampler` is any object with draw(n, seed) -> Dataset producing i.i.d.
    observations from the conditional law of (X0, Y0); see datagen.
    """
    if n_mc < 1:
        raise ValueError(f"n_mc must be >= 1, got {n_mc}")
    fresh = sampler.draw(n_mc, seed)
    value = float(np.mean(loss_values(pred, fresh)))
    return RiskEstimate(value, n_mc, AVG)


def closed_form_risk(
    pred: LinearPredictor,
    beta0: np.ndarray,
    sigma2: float,
    covariance: np.ndarray | None = None,
) -> float:
    """Exact conditional squared-error risk (beta - beta0)' Sigma (beta - beta0)
    + sigma^2 for linear models with known covariance (default isotropic)."""
    d = pred.coefficients - np.asarray(beta0, dtype=np.float64)
    if covariance is None:
        return float(d @ d + sigma2)
    return float(d @ (covariance @ d) + sigma2)


def delta_diagnostics(risk_hats, true_risks) -> tuple[float, float]:
    """Worst-case additive and multiplicative risk-estimation errors.

    delta_add = max |Rhat - R|, delta_mul = max |Rhat/R - 1| over candidates.
    """
    hats = np.asarray(
        [r.value if isinstance(r, RiskEstimate) else float(r) for r in risk_hats]
    )
    trues = np.asarray([float(r) for r in true_risks])
    if hats.size == 0 or hats.size != trues.size:
        raise ValueError("risk lists must be equal-length and nonempty")
    delta_add = float(np.max(np.abs(hats - trues)))
    if np.any(trues <= 0.0):
        raise ZeroDivisionError("multiplicative error undefined for zero true risk")
    delta_mul = float(np.max(np.abs(hats / trues - 1.0)))
    return delta_add, delta_mul


def oracle_inequalities_hold(
    selected_true: float,
    candidate_trues,
    delta_add: float,
    delta_mul: float,
    tol: float = 1e-10,
) -> bool:
    """Check the deterministic oracle inequalities of the CV selection rule:
    R(cv) <= min R + 2 delta_add and R(cv) <= (1+d)/(1-d)_+ min R."""
    best = float(np.min(np.asarray(candidate_trues, dtype=np.float64)))
    if selected_true > best + 2.0 * delta_add + tol:
        return False
    shrink = max(0.0, 1.0 - delta_mul)
    mult_bound = math.inf if shrink == 0.0 else (1.0 + delta_mul) / shrink * best
    return selected_true <= mult_bound + tol
