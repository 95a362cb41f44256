# Base prediction procedures: minimum l2-norm least squares, minimum l1-norm
# least squares, ridge, lasso, and the null (always-zero) predictor.

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

from .core import Dataset, LinearPredictor, SolverError

# pseudoinverse rank cutoff: singular values <= RTOL_SCALE*max(n,p)*s_max drop
RTOL_SCALE = 1e-12

LP_FEAS_TOL = 1e-9


class ConvergenceWarning(UserWarning):
    pass


def fit_mn2ls(data: Dataset) -> LinearPredictor:
    """Minimum l2-norm least squares (X'X/m)^+ (X'Y/m).

    Generic full-rank inputs take a Cholesky gram solve; anything the
    factorization or its residual check flags as (near-)rank-deficient falls
    back to the SVD route (LAPACK gelsd) with singular values
    s <= rtol*s_max treated as zero, rtol = 1e-12 * max(n, p).
    """
    beta = _mn2ls_cholesky(data.features, data.response)
    if beta is not None:
        return LinearPredictor(beta)
    rcond = RTOL_SCALE * max(data.n, data.p)
    beta, *_ = np.linalg.lstsq(data.features, data.response, rcond=rcond)
    return LinearPredictor(beta)


def _mn2ls_cholesky(X: np.ndarray, y: np.ndarray, gram: np.ndarray | None = None):
    """Full-rank fast path: solve the gram system on the smaller side.
    Returns None when the system looks (near-)rank-deficient; a rank-deficient
    gram solve can satisfy the normal equations without being min-norm, so the
    guard is on conditioning, not on the residual.  `gram` supplies a
    precomputed row gram X X' for the n < p side."""
    n, p = X.shape
    try:
        if n >= p:
            A = X.T @ X
            b = X.T @ y
            factor = scipy.linalg.cho_factor(A, check_finite=False)
            if not _well_conditioned(factor[0]):
                return None
            beta = scipy.linalg.cho_solve(factor, b, check_finite=False)
        else:
            G = X @ X.T if gram is None else gram
            factor = scipy.linalg.cho_factor(G, check_finite=False)
            if not _well_conditioned(factor[0]):
                return None
            beta = X.T @ scipy.linalg.cho_solve(factor, y, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(beta)):
        return None
    return beta


def _well_conditioned(chol: np.ndarray, ratio: float = 1e-5) -> bool:
    # diag(L) spread approximates sqrt(cond) of the gram matrix; anything
    # near the rank cutoff goes to the SVD route instead
    d = np.abs(np.diag(chol))
    return d.min() > ratio * d.max()


def fit_ridge(data: Dataset, lam: float) -> LinearPredictor:
    """Ridge estimator (X'X/m + lam I)^{-1} X'Y/m via an SPD solve."""
    if lam <= 0:
        raise ValueError(f"ridge penalty must be positive, got {lam}")
    X, y, m = data.features, data.response, data.n
    if data.p <= data.n:
        A = X.T @ X / m + lam * np.eye(data.p)
        b = X.T @ y / m
        beta = scipy.linalg.solve(A, b, assume_a="pos")
    else:
        # push-through identity keeps the solve at n x n when p > n
        A = X @ X.T / m + lam * np.eye(m)
        beta = X.T @ scipy.linalg.solve(A, y, assume_a="pos") / m
    return LinearPredictor(beta)


def fit_lasso(
    data: Dataset,
    lam: float,
    tol: float = 1e-10,
    max_sweeps: int = 100_000,
) -> LinearPredictor:
    """Lasso by cyclic coordinate descent with soft-threshold updates.

    Minimizes (1/2m) ||Y - X beta||^2 + lam ||beta||_1.  Stops when the max
    coordinate change in a sweep is below `tol`.
    """
    if lam <= 0:
        raise ValueError(f"lasso penalty must be positive, got {lam}")
    X, y, m = data.features, data.response, data.n
    p = data.p
    col_sq = (X * X).sum(axis=0) / m
    beta = np.zeros(p)
    resid = y.copy()
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(p):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            rho = X[:, j] @ resid / m + col_sq[j] * old
            new = _soft(rho, lam) / col_sq[j]
            if new != old:
                resid -= (new - old) * X[:, j]
                beta[j] = new
                delta = max(delta, abs(new - old))
        if delta < tol:
            break
    else:
        warnings.warn(
            f"lasso coordinate descent hit {max_sweeps} sweeps "
            f"(last max coordinate change {delta:.3e})",
            ConvergenceWarning,
        )
    return LinearPredictor(beta)


def _soft(x: float, thresh: float) -> float:
    if x > thresh:
        return x - thresh
    if x < -thresh:
        return x + thresh
    return 0.0


def fit_mn1ls(data: Dataset) -> LinearPredictor:
    """Minimum l1-norm element of the least-squares solution set.

    Full column rank: the unique OLS solution.  Otherwise minimize ||beta||_1
    subject to X beta = yhat (yhat = projection of Y onto col(X)) as a linear
    program in the beta = beta+ - beta- split.
    """
    X, y = data.features, data.response
    n, p = data.n, data.p
    rcond = RTOL_SCALE * max(n, p)
    ls, _, rank, _ = np.linalg.lstsq(X, y, rcond=rcond)
    if rank == p:
        return LinearPredictor(ls)
    yhat = X @ ls  # projection onto the column space; equals y when rank = n
    res = linprog(
        c=np.ones(2 * p),
        A_eq=np.hstack([X, -X]),
        b_eq=yhat,
        bounds=(0, None),
        method="highs",
        options={
            "primal_feasibility_tolerance": LP_FEAS_TOL,
            "dual_feasibility_tolerance": LP_FEAS_TOL,
        },
    )
    if not res.success:
        raise SolverError(
            f"min-l1 LP failed: {res.message} (status {res.status}, {res.nit} iterations)"
        )
    beta = res.x[:p] - res.x[p:]
    return LinearPredictor(beta)


def fit_null(data: Dataset) -> LinearPredictor:
    return LinearPredictor(np.zeros(data.p))


@dataclass(frozen=True)
class BaseProcedure:
    """A named base prediction procedure, optionally with a penalty level."""

    kind: str
    lam: float | None = None

    _KINDS = ("mn2ls", "mn1ls", "ridge", "lasso", "null")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown base procedure {self.kind!r}")
        if self.kind in ("ridge", "lasso"):
            if self.lam is None or self.lam <= 0:
                raise ValueError(f"{self.kind} needs a positive penalty")
        elif self.lam is not None:
            raise ValueError(f"{self.kind} takes no penalty")

    @classmethod
    def mn2ls(cls):
        return cls("mn2ls")

    @classmethod
    def mn1ls(cls):
        return cls("mn1ls")

    @classmethod
    def ridge(cls, lam: float):
        return cls("ridge", lam)

    @classmethod
    def lasso(cls, lam: float):
        return cls("lasso", lam)

    @classmethod
    def null(cls):
        return cls("null")

    def fit(self, data: Dataset) -> LinearPredictor:
        if self.kind == "mn2ls":
            return fit_mn2ls(data)
        if self.kind == "mn1ls":
            return fit_mn1ls(data)
        if self.kind == "ridge":
            return fit_ridge(data, self.lam)
        if self.kind == "lasso":
            return fit_lasso(data, self.lam)
        return fit_null(data)

    def fit_rows(
        self, train: Dataset, idx: np.ndarray, cache: dict, response=None
    ) -> np.ndarray:
        """Coefficients of the fit on rows `idx` of `train`.

        `response` overrides the responses of those rows (residual fits).
        `cache` belongs to one run whose candidates all subsample `train`.
        For mn2ls with p > len(idx), X_sub X_sub' is a principal submatrix of
        the cached row gram X X', so the Cholesky fast path starts from it;
        when that is (near-)singular the generic fit on the subset decides.
        Every other kind fits on the subset directly.
        """
        X = train.features[idx]
        y = train.response[idx] if response is None else response
        if self.kind == "mn2ls" and train.p > idx.size:
            if "row_gram" not in cache:
                cache["row_gram"] = train.features @ train.features.T
            beta = _mn2ls_cholesky(X, y, cache["row_gram"][np.ix_(idx, idx)])
            if beta is not None:
                return beta
        return self.fit(Dataset(X, y)).coefficients
