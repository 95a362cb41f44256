# Core domain types: datasets, linear predictors, losses, splits, and the
# seed-derivation scheme shared by every stochastic procedure in the package.

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import _lapack


class InvalidSplitError(ValueError):
    """Requested train/test split sizes are impossible."""


class SolverError(RuntimeError):
    """A numerical solver failed to converge or bracket a root."""


def child_seed(master: int, tag: str, *indices: int) -> int:
    """Derive a reproducible 63-bit child seed from (master, tag, indices).

    Counter-based derivation via SHA-256 so that sweeps are reproducible and
    order-independent under parallel execution.
    """
    payload = repr((int(master), str(tag), tuple(int(i) for i in indices)))
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def rng_from(seed: int) -> np.random.Generator:
    # Philox is counter-based; independent streams per derived seed.
    return np.random.Generator(np.random.Philox(seed))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)  # array fields: == is identity, not elementwise
class Dataset:
    """Feature matrix (n rows, p columns) plus response vector (length n)."""

    features: np.ndarray
    response: np.ndarray
    # memo()'s store; cached_property's lock would serialize all instances
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.response, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {X.shape}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError(
                f"response length {y.shape} does not match {X.shape[0]} feature rows"
            )
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "features", _readonly(X))
        object.__setattr__(self, "response", _readonly(y))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def row_gram(self) -> np.ndarray:
        """X X', formed on the first call and kept for the next ones."""
        return self.memo("row_gram", lambda: _readonly(self.features @ self.features.T))

    def memo(self, key, make):
        """make(), computed on the first call per hashable key and kept for
        the next ones.  make() returning None is a programming error (None
        marks a missing entry) and raises TypeError."""
        value = self._memo.get(key)
        if value is None:
            value = make()
            if value is None:
                raise TypeError("Dataset.memo: make() returned None, which marks a missing entry")
            self._memo[key] = value
        return value

    def order_factor(self, order) -> np.ndarray:
        """Upper Cholesky factor U of the row gram of rows order[:m] in that
        order, m = min(len(order), p - 1), formed on the first call per order
        and kept.  Order None stands for all rows in their own order, and U
        factors row_gram() itself.  For every k <= m the leading k x k block
        of U factors the gram of order[:k], so fits on leading rows of one
        order share U; callers pass an order cut to the rows their fits
        read, so that m covers no more.  When the factorization fails at
        pivot i, U is the leading (i - 1) x (i - 1) block that it completed."""
        if order is not None:
            order = np.asarray(order, dtype=np.intp)

        def factor():
            gram = self.row_gram()
            if order is not None:
                head = order[: self.p - 1]
                # a fresh symmetric array, so its transpose is a Fortran-order
                # copy of the block that dpotrf can factor in place
                gram = gram.take(head, axis=0).take(head, axis=1).T
            try:
                U = _lapack.cho_factor(gram, overwrite_a=order is not None)
            except _lapack.NotPositiveDefinite as exc:
                U = exc.leading
            U.setflags(write=False)
            return U

        return self.memo(("order_factor", None if order is None else order.tobytes()), factor)

    def rows(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=np.intp)
        return Dataset(self.features[idx], self.response[idx])

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        """Headerless CSV, response in the first column, features after."""
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
        if raw.shape[1] < 2:
            raise ValueError("dataset CSV needs a response column plus >=1 feature")
        return cls(raw[:, 1:], raw[:, 0])

    def to_csv(self, path) -> None:
        out = np.column_stack([self.response, self.features])
        np.savetxt(path, out, delimiter=",", fmt="%.17g")


@dataclass(frozen=True, eq=False)  # array fields: == is identity, not elementwise
class LinearPredictor:
    """Coefficient vector of a fitted linear rule (intercept fixed at zero)."""

    coefficients: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.coefficients, dtype=np.float64)
        if b.ndim != 1:
            raise ValueError(f"coefficients must be 1-d, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("coefficients contain non-finite entries")
        object.__setattr__(self, "coefficients", _readonly(b))

    def predict(self, features: np.ndarray) -> np.ndarray:
        X = np.asarray(features, dtype=np.float64)
        if X.ndim == 1:
            return float(X @ self.coefficients)
        return X @ self.coefficients


def loss_values(pred: LinearPredictor, data: Dataset) -> np.ndarray:
    """Per-row squared-error losses of `pred` on `data`, in row order."""
    return (data.response - data.features @ pred.coefficients) ** 2


def split_train_test(data: Dataset, n_te: int, seed: int):
    """Uniformly random split into train (n - n_te rows) and test (n_te rows)."""
    n = data.n
    if not 0 < n_te < n:
        raise InvalidSplitError(f"need 0 < n_te < n, got n_te={n_te}, n={n}")
    perm = rng_from(seed).permutation(n)
    # ascending row order on each side: the bits of every CV fit depend on it
    return data.rows(np.sort(perm[n_te:])), data.rows(np.sort(perm[:n_te]))


def row_order(n: int, seed: int, j: int) -> np.ndarray:
    """Bag draw j's uniformly random permutation of n rows, from
    child_seed(seed, "order", j).  Its first k entries are a uniform k-subset,
    and its last entries a uniform subset of their complement."""
    return rng_from(child_seed(seed, "order", j)).permutation(n)
