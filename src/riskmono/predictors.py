# Base prediction procedures: minimum l2-norm least squares, minimum l1-norm
# least squares, ridge, lasso, and the null (always-zero) predictor.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .core import Dataset, LinearPredictor, SolverError

# pseudoinverse rank cutoff: singular values <= RTOL_SCALE*max(n,p)*s_max drop
RTOL_SCALE = 1e-12
# Cholesky diagonal spread (min/max) at or below which mn2ls takes the SVD route
CHOL_DIAG_RATIO = 1e-5
# lasso homotopy, relative to lam_max: knot ties, and the optimality residual
# beyond which a fit is a SolverError
TIE_RTOL, KKT_RTOL = 1e-10, 1e-6


def fit_mn2ls(data: Dataset) -> LinearPredictor:
    """Minimum l2-norm least squares (X'X/m)^+ (X'Y/m).

    With fewer rows than columns it is the row-space fit on all rows
    (`_mn2ls_rows`); otherwise a Cholesky solve of the normal equations.
    Anything the factorization or `_mn2ls_cholesky`'s check flags as
    (near-)rank-deficient falls back to the SVD route (LAPACK gelsd) with
    singular values s <= rtol*s_max treated as zero, rtol = 1e-12 * max(n, p).
    """
    if data.n < data.p:
        return _mn2ls_rows(data, None, data.response).predictor(data)
    X, y = data.features, data.response
    try:
        U = _lapack.cho_factor(X.T @ X)
    except _lapack.NotPositiveDefinite:
        U = None
    beta = _mn2ls_cholesky(U, X.T @ y, data.p)
    return LinearPredictor(_lstsq(X, y) if beta is None else beta)


def _lstsq(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    beta, *_ = np.linalg.lstsq(X, y, rcond=RTOL_SCALE * max(X.shape))
    return beta


def _mn2ls_rows(data: Dataset, order, y: np.ndarray) -> RowFit:
    """The mn2ls fit on rows order[:k] of `data` (all rows when order is
    None) with responses y, k = len(y) < p, in row space: weights
    (X_k X_k')^{-1} y over those rows, solved on the leading k x k block of
    `data.order_factor(order)`, so fits on leading rows of one order share
    one factor.  Where `_mn2ls_cholesky` rejects that block, the fit is the
    SVD route's on the gathered rows, as the primal part."""
    idx = slice(None) if order is None else np.asarray(order, dtype=np.intp)[: len(y)]
    w = _mn2ls_cholesky(data.order_factor(order), y, len(y))
    if w is None:
        return RowFit(primal=_lstsq(data.features[idx], y))
    weights = np.zeros(data.n)
    weights[idx] = w
    return RowFit(weights=weights)


def _mn2ls_cholesky(U: np.ndarray | None, b: np.ndarray, k: int):
    """x with U_k'U_k x = b, U_k the leading k x k block of the upper
    Cholesky factor U, and the one place that decides between the Cholesky
    route and the SVD route: None when U is None (the factorization failed),
    has fewer than k rows (it failed within the block) or looks
    (near-)rank-deficient, and when x is not finite.  A rank-deficient gram
    solve can satisfy the normal equations without being min-norm, so the
    guard is on conditioning, not on the residual: the spread of diag(U_k)
    approximates sqrt(cond) of U_k'U_k.  The solve is two triangular solves
    on U_k in place (`_lapack.solve_leading`), which release the GIL, so
    sweep workers overlap."""
    if U is None:
        return None
    d = np.abs(np.diag(U)[:k])
    if d.size != k or not d.min() > CHOL_DIAG_RATIO * d.max():
        return None
    x = _lapack.solve_leading(U, b, k)
    return x if np.all(np.isfinite(x)) else None


def fit_ridge(data: Dataset, lam: float) -> LinearPredictor:
    """Ridge estimator (X'X/m + lam I)^{-1} X'Y/m via an SPD solve."""
    if lam <= 0:
        raise ValueError(f"ridge penalty must be positive, got {lam}")
    X, y, m = data.features, data.response, data.n
    if data.p <= data.n:
        A = X.T @ X / m + lam * np.eye(data.p)
        beta = _lapack.cho_solve(_lapack.cho_factor(A), X.T @ y / m)
    else:
        # push-through identity keeps the solve at n x n when p > n
        A = X @ X.T / m + lam * np.eye(m)
        beta = X.T @ _lapack.cho_solve(_lapack.cho_factor(A), y) / m
    return LinearPredictor(beta)


def fit_lasso(data: Dataset, lam: float) -> LinearPredictor:
    """Lasso: minimizes (1/2m) ||Y - X beta||^2 + lam ||beta||_1, by the
    homotopy on the rank-reduced rows."""
    if lam <= 0:
        raise ValueError(f"lasso penalty must be positive, got {lam}")
    X, y = _row_reduce(data.features, data.response)
    return LinearPredictor(_lasso_homotopy(X, y, lam, data.n))


def fit_mn1ls(data: Dataset) -> LinearPredictor:
    """Minimum l1-norm element of the least-squares solution set.

    Full column rank: the unique OLS solution.  Otherwise the end lam -> 0+
    of the lasso path, which is the min-l1 least-squares solution
    (Tibshirani 2013, "The lasso problem and uniqueness").
    """
    X, y = _row_reduce(data.features, data.response)
    if X.shape[0] == data.p:
        return LinearPredictor(np.linalg.solve(X, y))
    return LinearPredictor(_lasso_homotopy(X, y, 0.0, data.n))


def _row_reduce(X: np.ndarray, y: np.ndarray):
    """Rows (S_r V_r', U_r' y) of the SVD of X cut at the rank cutoff.  They
    keep X'X and X'y, so least-squares minimizers stay, and the homotopy sees
    full row rank however many rows repeat."""
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    r = int(np.sum(s > RTOL_SCALE * max(X.shape) * s[0]))
    return s[:r, None] * Vt[:r], U[:, :r].T @ y


def _lasso_homotopy(X: np.ndarray, y: np.ndarray, lam: float, m: int) -> np.ndarray:
    """Minimizer of (1/2m) ||y - X beta||^2 + lam ||beta||_1 (lam >= 0) along
    the lasso path down from lam_max (LARS with lasso drops; Efron, Hastie,
    Johnstone & Tibshirani 2004).  X must have full row rank.

    With active set A and signs s, beta_A(t) = u - t d, G_AA u = c_A and
    G_AA d = s (G = X'X/m, c = X'y/m), and the correlations X'(y - X beta)/m
    run along e + t a.  A segment ends where an inactive correlation crosses
    +-t outwards (join), an active coefficient shrinks to 0 (leave), or at
    lam.  Knots up to TIE_RTOL * lam_max above t are ties, taken at t.  Only
    crossings in those directions count, so the knot just passed, which
    recurs at t for the variable that changed and for copies of its column,
    is not taken again.  A column with |e_j| at the rank cutoff is in the
    span of A and never joins.  Of G only the columns G[:, A] are formed.
    """
    r, p = X.shape
    c = X.T @ y / m
    lam_max = float(np.max(np.abs(c)))
    beta = np.zeros(p)
    if lam >= lam_max:
        return beta
    t, tie, floor = lam_max, TIE_RTOL * lam_max, RTOL_SCALE * max(r, p) * lam_max
    signs, active = np.zeros(p), []
    gram = np.empty((p, r), order="F")  # gram[:, i] = G[:, active[i]]
    j = int(np.argmax(np.abs(c)))
    row = 0 if c[j] > 0 else 1
    max_knots = 8 * r  # paths to lam = 0 take 1.3-1.8 knots per rank
    for _ in range(max_knots):
        if row == 2:  # j leaves, and the last active column takes its slot
            i = active.index(j)
            gram[:, i], active[i] = gram[:, len(active) - 1], active[-1]
            active.pop()
        elif len(active) < r:
            gram[:, len(active)] = X.T @ X[:, j] / m
            active.append(j)
        else:
            raise SolverError(f"lasso homotopy: more than {r} active variables")
        signs[j] = (1.0, -1.0, 0.0)[row]
        A = np.array(active)
        try:
            factor = _lapack.cho_factor(gram[A, : A.size])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"lasso homotopy: singular active gram ({A.size} active)") from exc
        ud = _lapack.cho_solve(factor, np.column_stack([c[A], signs[A]]))
        u, d = ud.T
        e, a = c - gram[:, : A.size] @ u, gram[:, : A.size] @ d
        free = (signs == 0) & (np.abs(e) > floor)
        up, down, shrink = free & (a < 1.0), free & (a > -1.0), signs[A] * d < 0.0
        knots = np.full((3, p), -np.inf)
        knots[0, up] = e[up] / (1.0 - a[up])  # joins at +t
        knots[1, down] = -e[down] / (1.0 + a[down])  # joins at -t
        knots[2, A[shrink]] = u[shrink] / d[shrink]  # leaves
        knots[(knots <= lam + tie) | (knots > t + tie)] = -np.inf
        k = int(np.argmax(knots))
        if knots.flat[k] == -np.inf:
            # a coefficient against its path sign is rounding at a knot by lam
            beta[A] = np.where(signs[A] * (u - lam * d) > 0.0, u - lam * d, 0.0)
            _check_optimal(X, y, beta, lam, m, a, lam_max)
            return beta
        t = min(float(knots.flat[k]), t)
        row, j = divmod(k, p)
    raise SolverError(f"lasso homotopy passed {max_knots} knots")


def _check_optimal(X, y, beta, lam, m, a, lam_max):
    """SolverError unless beta meets the lasso optimality conditions at lam to
    KKT_RTOL * lam_max.  At lam = 0 the last segment's a must also certify the
    minimal l1 norm: |a| <= 1, and a = sign(beta) on the support."""
    g, s = X.T @ (y - X @ beta) / m, np.sign(beta)
    viol = np.where(s != 0, np.abs(g - lam * s), np.abs(g) - lam) / lam_max
    if lam == 0.0:
        viol = np.maximum(viol, np.where(s != 0, np.abs(a - s), np.abs(a) - 1.0))
    if not viol.max() <= KKT_RTOL:
        raise SolverError(f"lasso homotopy: optimality residual {viol.max():.3g}")


def fit_null(data: Dataset) -> LinearPredictor:
    return LinearPredictor(np.zeros(data.p))


@dataclass(frozen=True, eq=False)  # array fields: == is identity, not elementwise
class RowFit:
    """A linear fit on rows of a dataset, kept as beta = X' weights + primal
    with X its features: `weights` has one entry per row and `primal` one
    per column, and None stands for zero.  Fits on rows of one training
    split add and average in this form, and their coefficients are formed
    once, by `stack` (all candidates of a split in one product) or
    `predictor` (one fit).  A RowFit holds no reference to its dataset,
    which keeps it in its memo without a reference cycle."""

    weights: np.ndarray | None = None
    primal: np.ndarray | None = None

    def fitted(self, data: Dataset, rows: np.ndarray) -> np.ndarray:
        """X[rows] beta without forming beta: the weights part reads
        data.row_gram()[rows]."""
        out = None
        if self.weights is not None:
            out = data.row_gram()[rows] @ self.weights
        if self.primal is not None:
            primal = data.features[rows] @ self.primal
            out = primal if out is None else out + primal
        return out

    def __add__(self, other: "RowFit") -> "RowFit":
        return RowFit(_sum(self.weights, other.weights), _sum(self.primal, other.primal))

    @staticmethod
    def mean(fits) -> "RowFit":
        """The part-wise average of fits on rows of one dataset."""
        if len(fits) == 1:
            return fits[0]
        return RowFit(_mean([f.weights for f in fits]), _mean([f.primal for f in fits]))

    @staticmethod
    def stack(fits, data: Dataset) -> np.ndarray:
        """The coefficients of `fits`, fits on rows of `data`, as the rows of
        one read-only matrix B, in order.  The weights of the fits that have
        them are the rows of W, and B = W X plus the primal parts: one
        product for all fits.  Fits without weights copy their primal part.
        A fit with non-finite weights gets a NaN row and stays out of W:
        the BLAS kernels' blocking can make a row's last bits depend on the
        number of rows of W, and this way the other rows are, bit for bit,
        those of the stack without that fit."""
        B = np.zeros((len(fits), data.p))
        dual = []
        for i, fit in enumerate(fits):
            if fit.weights is None:
                if fit.primal is not None:
                    B[i] = fit.primal
            elif np.all(np.isfinite(fit.weights)):
                dual.append(i)
            else:
                B[i] = np.nan
        if dual:
            B[dual] = np.stack([fits[i].weights for i in dual]) @ data.features
            for i in dual:
                if fits[i].primal is not None:
                    B[i] += fits[i].primal
        B.setflags(write=False)
        return B

    def predictor(self, data: Dataset) -> LinearPredictor:
        """This fit's coefficients alone: the one row of `stack`."""
        return LinearPredictor(RowFit.stack([self], data)[0])


def _sum(a, b):
    return b if a is None else a if b is None else a + b


def _mean(parts):
    given = [part for part in parts if part is not None]
    if not given:
        return None
    zero = np.zeros_like(given[0])
    return np.mean([zero if part is None else part for part in parts], axis=0)


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

    def fit(self, data: Dataset, rows=None, response=None, k=None) -> LinearPredictor:
        """The predictor of `row_fit(data, rows, response, k)`."""
        return self.row_fit(data, rows, response, k).predictor(data)

    def row_fit(self, data: Dataset, rows=None, response=None, k=None) -> RowFit:
        """The fit on the first `k` of row indices `rows` of `data` (all rows
        when `rows` is None, all of `rows` when `k` is None), with `response`
        in place of their responses (residual fits).

        mn2ls on k < p rows is `_mn2ls_rows` on the first k of `rows`, so
        fits on leading rows of one `rows` share one Cholesky factor, and no
        k x p gather or product is formed.  mn2ls on k >= p rows and every
        other kind fit on the gathered rows, as the primal part.  A fit on rows
        with their own responses is kept on `data` per (procedure, rows, k):
        under nested draws each one-step pilot is the fit of a
        zero-step-sized candidate."""
        if rows is None or response is not None:
            return self._row_fit(data, rows, response, k)
        return data.memo(self.fit_key(rows, k), lambda: self._row_fit(data, rows, None, k))

    def fit_key(self, rows, k) -> tuple:
        """The key `row_fit` keeps its fit on the first `k` of `rows`, with
        their own responses, under."""
        return (self, np.asarray(rows, dtype=np.intp).tobytes(), k)

    def _row_fit(self, data, rows, response, k) -> RowFit:
        idx = None if rows is None else np.asarray(rows, dtype=np.intp)[:k]
        fit_on = data
        if idx is not None or response is not None:
            y = response if response is not None else data.response[idx]
            if self.kind == "mn2ls" and idx is not None and idx.size < data.p:
                return _mn2ls_rows(data, rows, y)
            fit_on = Dataset(data.features if idx is None else data.features[idx], y)
        return RowFit(primal=self._fit(fit_on).coefficients)

    def _fit(self, data: Dataset) -> LinearPredictor:
        if self.kind == "mn2ls":
            return fit_mn2ls(data)
        if self.kind == "mn1ls":
            return fit_mn1ls(data)
        if self.kind == "ridge":
            return fit_ridge(data, self.lam)
        if self.kind == "lasso":
            return fit_lasso(data, self.lam)
        return fit_null(data)
