# Core domain types: datasets, linear predictors, losses, splits, and the
# seed-derivation scheme shared by every stochastic procedure in the package.

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


class InvalidSplitError(ValueError):
    """Requested train/test split sizes are impossible."""


class InvalidSubsampleError(ValueError):
    """Requested subsample size(s) out of range."""


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
    # row_gram()'s memo; cached_property's lock would serialize all instances
    _row_gram: np.ndarray | None = field(default=None, init=False, repr=False)

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
        if self._row_gram is None:
            object.__setattr__(self, "_row_gram", _readonly(self.features @ self.features.T))
        return self._row_gram

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


def subsample_indices(n: int, k: int, seed: int) -> np.ndarray:
    if not 1 <= k <= n:
        raise InvalidSubsampleError(f"need 1 <= k <= n, got k={k}, n={n}")
    return np.sort(rng_from(seed).choice(n, size=k, replace=False))


def disjoint_pair_indices(n: int, k1: int, k2: int, seed: int):
    if k1 < 1 or k2 < 0 or k1 + k2 > n:
        raise InvalidSubsampleError(
            f"need k1 >= 1, k2 >= 0, k1 + k2 <= n; got k1={k1}, k2={k2}, n={n}"
        )
    perm = rng_from(seed).permutation(n)
    return np.sort(perm[:k1]), np.sort(perm[k1 : k1 + k2])
